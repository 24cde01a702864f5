//! Run sharing never changes a result: a benchmark whose input runs
//! are interpreted by helper threads — as many as a [`CoreBudget`]'s
//! free permits pay for — reports exactly what the serial loop of
//! [`run_benchmark`] reports, in every field but the phases' wall
//! times, and fails with the same error when some runs fail.

use branchlab_experiments::{
    run_benchmark, run_benchmark_with_budget, BenchResult, CoreBudget, ExperimentConfig,
    ExperimentError, RUNS_HELPED, RUNS_INTERPRETED,
};
use branchlab_interp::{run, ExecConfig, ExecError};
use branchlab_workloads::{all_benchmarks, Benchmark, Scale};

const BUDGETS: [usize; 2] = [1, 4];

fn assert_same(serial: &BenchResult, shared: &BenchResult, ctx: &str) {
    assert_eq!(serial.name, shared.name, "{ctx}");
    assert_eq!(serial.source_lines, shared.source_lines, "{ctx}");
    assert_eq!(serial.runs, shared.runs, "{ctx}: runs");
    assert_eq!(serial.stats, shared.stats, "{ctx}: exec stats");
    assert_eq!(serial.mix, shared.mix, "{ctx}: mix");
    assert_eq!(serial.sbtb, shared.sbtb, "{ctx}: SBTB");
    assert_eq!(serial.cbtb, shared.cbtb, "{ctx}: CBTB");
    assert_eq!(serial.fs, shared.fs, "{ctx}: FS");
    assert_eq!(serial.always_taken, shared.always_taken, "{ctx}: AT");
    assert_eq!(serial.always_not_taken, shared.always_not_taken, "{ctx}");
    assert_eq!(serial.btfn, shared.btfn, "{ctx}: BTFN");
    assert_eq!(serial.expansion, shared.expansion, "{ctx}: expansion");
    assert_eq!(
        serial.sbtb_sites.sites(),
        shared.sbtb_sites.sites(),
        "{ctx}"
    );
    assert_eq!(
        serial.cbtb_sites.sites(),
        shared.cbtb_sites.sites(),
        "{ctx}"
    );
    let phases = |r: &BenchResult| -> Vec<(String, u64)> {
        r.phases
            .spans
            .iter()
            .map(|p| (p.name.clone(), p.work))
            .collect()
    };
    assert_eq!(phases(serial), phases(shared), "{ctx}: phase work");
}

#[test]
fn every_benchmark_reports_the_same_result_at_every_budget() {
    let mut benches = 0;
    for bench in all_benchmarks() {
        let cfg = ExperimentConfig::test();
        // The FS binary's outputs are checked against the natural
        // binary's on every run, whichever thread ran either.
        assert!(cfg.verify_equivalence);
        let serial = run_benchmark(bench, &cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(!serial.sbtb_sites.sites().is_empty(), "{}", bench.name);
        for permits in BUDGETS {
            let shared = ExperimentConfig {
                metrics: Default::default(),
                ..cfg.clone()
            };
            let budget = CoreBudget::new(permits);
            let r = run_benchmark_with_budget(bench, &shared, &budget)
                .unwrap_or_else(|e| panic!("{} budget {permits}: {e}", bench.name));
            let ctx = format!("{} budget {permits}", bench.name);
            assert_same(&serial, &r, &ctx);
            assert_eq!(budget.available(), permits, "{ctx}: permits returned");
            let count = |name| shared.metrics.counter(name).get();
            assert_eq!(count(RUNS_INTERPRETED), 2 * r.runs as u64, "{ctx}");
            assert!(count(RUNS_HELPED) <= count(RUNS_INTERPRETED), "{ctx}");
        }
        benches += 1;
    }
    assert_eq!(benches, 14, "the 1989 suite plus dispatch and router");
}

/// Each run's instruction count on the conventional binary.
fn insts_per_run(bench: &Benchmark, cfg: &ExperimentConfig) -> Vec<u64> {
    let program = branchlab_ir::lower(&bench.compile().unwrap()).unwrap();
    bench
        .runs(cfg.scale, cfg.seed)
        .iter()
        .map(|streams| {
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            run(&program, &ExecConfig::default(), &refs, &mut ())
                .unwrap()
                .stats
                .insts
        })
        .collect()
}

#[test]
fn runs_out_of_fuel_fail_with_the_lowest_failing_runs_error_at_every_budget() {
    let mut checked = 0;
    for bench in all_benchmarks() {
        let base = ExperimentConfig::test();
        assert!(matches!(base.scale, Scale::Test));
        let insts = insts_per_run(bench, &base);
        let mut sorted = insts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() < 2 {
            continue;
        }
        // Between the two shortest runs: the shortest passes, the rest
        // (some before it, some after, in run order) run out of fuel.
        let limit = (sorted[0] + sorted[1]) / 2;
        let first = insts.iter().position(|&n| n > limit).unwrap();
        let cfg = ExperimentConfig {
            max_insts_per_run: limit,
            ..base
        };
        let serial = run_benchmark(bench, &cfg).unwrap_err();
        let ExperimentError::Exec(ExecError::OutOfFuel { at }) = serial else {
            panic!("{}: {serial:?}", bench.name);
        };
        for permits in BUDGETS {
            let err =
                run_benchmark_with_budget(bench, &cfg, &CoreBudget::new(permits)).unwrap_err();
            assert!(
                matches!(err, ExperimentError::Exec(ExecError::OutOfFuel { at: a }) if a == at),
                "{} budget {permits}: {err:?}, serial failed at {at:?} (run {first})",
                bench.name
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 10,
        "only {checked} benchmarks have runs of two lengths"
    );
}
