//! Robustness integration tests: real pipeline and interpreter errors
//! become failure records after one run, panics are caught, a suite's
//! failures are deterministic, and a suite with a failing benchmark
//! degrades to partial results. How such a suite exports and exits is
//! covered by the bench crate's `report_bin.rs`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use branchlab_experiments::{
    run_benchmark, run_suite_supervised, supervise, tables, BenchFailure, ExperimentConfig,
    ExperimentError, SupervisorConfig,
};
use branchlab_interp::{run, ExecConfig};
use branchlab_workloads::{benchmark, SUITE};

/// At `Scale::Test`, seed 1989, cccp, grep and lex have runs longer
/// than this many instructions; the other benchmarks do not.
const FUEL: u64 = 34_000;

/// Supervise `work`, expecting it to fail after exactly one call, and
/// return the failure record.
fn fail_once(
    name: &str,
    work: impl FnOnce() -> Result<(), ExperimentError> + Send + 'static,
) -> BenchFailure {
    let calls = Arc::new(AtomicU32::new(0));
    let counted = Arc::clone(&calls);
    let (result, stats) = supervise(name, &SupervisorConfig::default(), move || {
        counted.fetch_add(1, Ordering::SeqCst);
        work()
    });
    let failure = result.expect_err("the work must fail");
    assert_eq!(calls.load(Ordering::SeqCst), 1, "{failure}");
    assert_eq!((stats.completed, stats.failed), (0, 1), "{failure}");
    failure
}

/// Run one benchmark through the real pipeline with `tweak` applied to
/// the config, under supervision, and return the failure record.
fn fail_bench(name: &'static str, tweak: impl Fn(&mut ExperimentConfig)) -> BenchFailure {
    let mut cfg = ExperimentConfig::test();
    tweak(&mut cfg);
    let bench = benchmark(name).unwrap();
    fail_once(name, move || run_benchmark(bench, &cfg).map(|_| ()))
}

#[test]
fn out_of_fuel_is_permanent_and_not_retried() {
    let f = fail_bench("wc", |c| c.max_insts_per_run = 50);
    assert!(f.error.contains("out of fuel"), "{}", f.error);
}

#[test]
fn call_depth_exceeded_is_permanent_and_not_retried() {
    // wc's print_num recurses; depth 1 cannot host the prelude calls.
    let f = fail_bench("wc", |c| c.max_call_depth = 1);
    assert!(f.error.contains("call depth"), "{}", f.error);
}

#[test]
fn memory_too_small_is_permanent_and_not_retried() {
    // grep's global pattern/line buffers cannot fit in one word.
    let f = fail_bench("grep", |c| c.memory_words = 1);
    assert!(f.error.contains("memory"), "{}", f.error);
}

/// Compile and run a crafted MiniC program under supervision, expecting
/// the named interpreter error from its one run.
fn fail_program(src: &'static str, exec: ExecConfig, expect: &str) {
    let failure = fail_once("crafted", move || {
        let module = branchlab_minic::compile(src).expect("crafted program compiles");
        let program = branchlab_ir::lower(&module).expect("crafted program lowers");
        run(&program, &exec, &[], &mut ())
            .map(|_| ())
            .map_err(ExperimentError::Exec)
    });
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

#[test]
fn real_failures_are_deterministic() {
    let cfg = ExperimentConfig {
        max_insts_per_run: FUEL,
        ..ExperimentConfig::test()
    };
    let a = run_suite_supervised(&cfg, &SupervisorConfig::default());
    let b = run_suite_supervised(&cfg, &SupervisorConfig::default());
    let records = |s: &branchlab_experiments::SuiteResult| {
        s.failures
            .iter()
            .map(|f| (f.name.clone(), f.error.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(records(&a).len(), 3);
    assert_eq!(records(&a), records(&b));
}

#[test]
fn injected_panic_is_caught_and_counted() {
    // The benchmark completes, then the closure panics: the supervisor
    // must turn the panic into a failure record, not lose the thread.
    let bench = benchmark("wc").unwrap();
    let cfg = ExperimentConfig::test();
    let calls = Arc::new(AtomicU32::new(0));
    let counted = Arc::clone(&calls);
    let (result, stats) = supervise::<()>("wc", &SupervisorConfig::default(), move || {
        counted.fetch_add(1, Ordering::SeqCst);
        run_benchmark(bench, &cfg)?;
        panic!("injected after the run");
    });
    let failure = result.expect_err("a panic must fail");
    assert_eq!(failure.error, "benchmark panicked: injected after the run");
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    assert_eq!((stats.panics_caught, stats.failed), (1, 1));
}

#[test]
fn acceptance_degrade_to_partial_results() {
    // At `Scale::Test`, seed 1989, only lex has a run longer than 50k
    // instructions: it fails with `OutOfFuel`, everything else completes.
    let cfg = ExperimentConfig {
        max_insts_per_run: 50_000,
        ..ExperimentConfig::test()
    };
    let partial = run_suite_supervised(&cfg, &SupervisorConfig::default());

    assert!(!partial.is_complete());
    assert_eq!(partial.benches.len(), SUITE.len() - 1);
    assert_eq!(partial.failures.len(), 1);
    let f = &partial.failures[0];
    assert_eq!(f.name, "lex");
    assert!(f.error.contains("out of fuel"), "{f}");
    assert_eq!(partial.supervisor.completed as usize, SUITE.len() - 1);
    assert_eq!(partial.supervisor.failed, 1);

    // The partial suite renders annotated tables rather than vanishing
    // rows.
    let t3 = tables::table3(&partial).to_text();
    assert!(
        t3.lines()
            .any(|l| l.starts_with("lex") && l.contains("FAILED")),
        "{t3}"
    );
}
