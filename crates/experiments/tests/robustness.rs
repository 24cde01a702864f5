//! Robustness integration tests: the error taxonomy end to end, fault
//! injection determinism, and the degrade-to-partial-results
//! acceptance scenario for the supervised suite.

use std::sync::Arc;
use std::time::Duration;

use branchlab_experiments::{
    run_benchmark, run_suite_supervised, supervise, tables, ErrorClass, ExperimentConfig,
    ExperimentError, SupervisorConfig,
};
use branchlab_interp::{run, ExecConfig};
use branchlab_workloads::{benchmark, SUITE};

/// A supervisor with negligible backoff so retry tests stay fast.
fn fast_sup(max_attempts: u32) -> SupervisorConfig {
    SupervisorConfig {
        max_attempts,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..SupervisorConfig::default()
    }
}

/// Run one benchmark through the real pipeline with `tweak` applied to
/// the config, under supervision, and return the failure record.
fn fail_bench(
    name: &'static str,
    tweak: impl Fn(&mut ExperimentConfig),
) -> branchlab_experiments::BenchFailure {
    let mut cfg = ExperimentConfig::test();
    tweak(&mut cfg);
    let bench = benchmark(name).unwrap();
    let (result, stats) = supervise(
        name,
        &fast_sup(3),
        Arc::new(move |_attempt| run_benchmark(bench, &cfg).map(|_| ())),
    );
    let failure = result.expect_err("tweaked config must fail");
    // Permanent errors must never be retried.
    assert_eq!(stats.retries, 0, "{failure}");
    failure
}

#[test]
fn out_of_fuel_is_permanent_and_not_retried() {
    let f = fail_bench("wc", |c| c.max_insts_per_run = 50);
    assert_eq!(f.class, ErrorClass::Permanent, "{f}");
    assert_eq!(f.attempts, 1);
    assert!(f.error.contains("out of fuel"), "{}", f.error);
}

#[test]
fn call_depth_exceeded_is_permanent_and_not_retried() {
    // wc's print_num recurses; depth 1 cannot host the prelude calls.
    let f = fail_bench("wc", |c| c.max_call_depth = 1);
    assert_eq!(f.class, ErrorClass::Permanent, "{f}");
    assert_eq!(f.attempts, 1);
    assert!(f.error.contains("call depth"), "{}", f.error);
}

#[test]
fn memory_too_small_is_permanent_and_not_retried() {
    // grep's global pattern/line buffers cannot fit in one word.
    let f = fail_bench("grep", |c| c.memory_words = 1);
    assert_eq!(f.class, ErrorClass::Permanent, "{f}");
    assert_eq!(f.attempts, 1);
    assert!(f.error.contains("memory"), "{}", f.error);
}

/// Compile and run a crafted MiniC program under supervision, expecting
/// the named permanent interpreter error on the first and only attempt.
fn fail_program(src: &'static str, exec: ExecConfig, expect: &str) {
    let (result, stats) = supervise(
        "crafted",
        &fast_sup(3),
        Arc::new(move |_attempt| {
            let module = branchlab_minic::compile(src).expect("crafted program compiles");
            let program = branchlab_ir::lower(&module).expect("crafted program lowers");
            run(&program, &exec, &[], &mut ())
                .map(|_| ())
                .map_err(ExperimentError::Exec)
        }),
    );
    let failure = result.expect_err("crafted program must fail");
    assert_eq!(failure.class, ErrorClass::Permanent, "{failure}");
    assert_eq!(failure.attempts, 1);
    assert_eq!(stats.retries, 0);
    assert!(failure.error.contains(expect), "{}", failure.error);
}

#[test]
fn memory_fault_is_permanent_and_not_retried() {
    fail_program(
        "int a[4]; int main() { a[-5000000] = 1; return 0; }",
        ExecConfig::default(),
        "memory fault",
    );
}

#[test]
fn stack_overflow_is_permanent_and_not_retried() {
    // No globals, so memory_words = 8 passes the globals check but
    // main's 64-word local array cannot be allocated.
    fail_program(
        "int main() { int buf[64]; buf[0] = 1; return buf[0]; }",
        ExecConfig {
            memory_words: 8,
            ..ExecConfig::default()
        },
        "stack overflow",
    );
}

/// Fault injection armed against `wc` only, exec-error lane certain.
fn wc_killer(cfg: &mut ExperimentConfig) {
    cfg.fault.exec_error_rate = 1.0;
    cfg.fault.benches = vec!["wc".to_string()];
}

#[test]
fn injection_failures_are_deterministic() {
    let mut cfg = ExperimentConfig::test();
    wc_killer(&mut cfg);
    let a = run_suite_supervised(&cfg, &fast_sup(2));
    let b = run_suite_supervised(&cfg, &fast_sup(2));
    assert_eq!(a.failures.len(), 1);
    assert_eq!(a.failures[0].name, b.failures[0].name);
    assert_eq!(a.failures[0].error, b.failures[0].error);
    assert_eq!(a.failures[0].attempts, b.failures[0].attempts);
}

#[test]
fn injected_panic_is_caught_and_counted() {
    let mut cfg = ExperimentConfig::test();
    cfg.fault.panic_rate = 1.0;
    cfg.fault.benches = vec!["wc".to_string()];
    let bench = benchmark("wc").unwrap();
    let (result, stats) = supervise(
        "wc",
        &fast_sup(2),
        Arc::new(move |attempt| {
            branchlab_experiments::run_benchmark_attempt(bench, &cfg, attempt).map(|_| ())
        }),
    );
    let failure = result.expect_err("certain panic injection must fail");
    assert_eq!(failure.class, ErrorClass::Transient, "{failure}");
    assert_eq!(failure.attempts, 2);
    assert_eq!(stats.panics_caught, 2);
    assert_eq!(stats.retries, 1);
    assert!(failure.error.contains("panic"), "{}", failure.error);
}

#[test]
fn acceptance_degrade_to_partial_results() {
    // Injection kills wc on every attempt; everything else completes.
    let mut cfg = ExperimentConfig::test();
    wc_killer(&mut cfg);
    let partial = run_suite_supervised(&cfg, &fast_sup(2));

    assert!(!partial.is_complete());
    assert_eq!(partial.benches.len(), SUITE.len() - 1);
    assert_eq!(partial.failures.len(), 1);
    let f = &partial.failures[0];
    assert_eq!(f.name, "wc");
    assert_eq!(f.class, ErrorClass::Transient);
    assert_eq!(f.attempts, 2, "transient injected faults are retried");
    assert_eq!(partial.supervisor.completed as usize, SUITE.len() - 1);
    assert_eq!(partial.supervisor.failed, 1);
    assert_eq!(partial.supervisor.retries, 1);

    // The partial suite renders annotated tables rather than vanishing
    // rows.
    let t3 = tables::table3(&partial).to_text();
    assert!(
        t3.contains("wc") && t3.contains("FAILED(transient, 2 attempts)"),
        "{t3}"
    );
}
