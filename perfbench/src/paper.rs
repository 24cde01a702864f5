//! `paper`: regenerate Tables 1–5 and Figures 3–4 at scale small, as
//! `report --scale small` does, in-process.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use branchlab::experiments::figures::{ascii_plot, figure3, figure4, SchemeAccuracies};
use branchlab::experiments::{
    run_suite_supervised, tables, ExperimentConfig, SuiteResult, SupervisorConfig,
};
use branchlab::predict::{BranchPredictor, Sbtb};
use branchlab::workloads::{Benchmark, Scale, SUITE};

use crate::harness::{
    acc_err_pp, replay_cold_per_run, suite_cbtb, timed_passes, Ctx, HostClock, Run,
    MIN_HALF_PASSES, MIN_PASSES,
};

/// Set-ups per run (`setup_s` is their median); each takes ~50 ms.
const SETUPS: usize = 15;

/// The paper workload's experiment configuration.
#[must_use]
pub fn config(ctx: &Ctx) -> ExperimentConfig {
    ExperimentConfig {
        scale: Scale::Small,
        seed: ctx.seed,
        sweep_threads: Some(ctx.nproc),
        ..ExperimentConfig::default()
    }
}

/// The suite's benchmarks.
#[must_use]
pub fn benches() -> Vec<&'static Benchmark> {
    SUITE.iter().collect()
}

/// Render every table and figure panel of the report.
fn render(suite: &SuiteResult) -> String {
    let mut out = String::new();
    for t in [
        tables::table1(suite),
        tables::table2(suite),
        tables::table3(suite),
        tables::table4(suite),
        tables::table5(suite),
    ] {
        out.push_str(&t.to_text());
    }
    let (s, c, f) = tables::cost_growth(suite);
    out.push_str(&format!("{s:.1} {c:.1} {f:.1}\n"));
    let acc = SchemeAccuracies::from_suite(suite);
    for (panel, k) in figure3(&acc)
        .iter()
        .chain(&figure4(&acc))
        .zip([1u32, 2, 4, 8])
    {
        out.push_str(&panel.to_text());
        out.push_str(&ascii_plot(&acc, k, 12));
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Run {
    let cfg = config(ctx);
    let mut run = Run {
        scale: "small",
        ..Run::default()
    };

    // Nothing is warmed: set-up is generating the seeded inputs, which
    // the timed phase then regenerates itself.
    let mut clock = HostClock::start();
    for _ in 0..SETUPS {
        let (s, ()) = clock.time(
            || {
                for b in SUITE {
                    black_box(b.runs(cfg.scale, cfg.seed));
                }
            },
            |()| 1.0,
        );
        run.setups.push(s);
    }

    // Only the latest suite is kept, so that peak memory is one pass's
    // and does not grow with the number of passes.
    let mut last = None;
    // A pass returns its failures and its unit of work: instructions
    // the suite interpreted in its conventional binaries.
    let mut pass = || {
        last = None;
        let suite = run_suite_supervised(&cfg, &SupervisorConfig::default());
        black_box(render(&suite));
        let failed = suite.failures.len();
        let insts: u64 = suite.benches.iter().map(|b| b.stats.insts).sum();
        last = Some(suite);
        (failed, insts as f64)
    };
    let units = |r: &(usize, f64)| r.1;
    let outputs;
    if ctx.tracer.is_some() {
        let half = ctx.seconds / 2.0;
        let (t, mut o) = timed_passes(&mut clock, half, MIN_HALF_PASSES, &mut pass, units);
        run.passes = t;
        let (t, traced) = timed_passes(
            &mut clock,
            half,
            MIN_HALF_PASSES,
            || {
                let _span = ctx.span("paper.pass");
                pass()
            },
            units,
        );
        run.traced_passes = t;
        o.extend(traced);
        outputs = o;
    } else {
        let (t, o) = timed_passes(&mut clock, ctx.seconds, MIN_PASSES, pass, units);
        run.passes = t;
        outputs = o;
    }
    run.peak_heap_mb = crate::sys::peak_heap_mb();
    run.attempted = (outputs.len() * SUITE.len()) as u64;
    run.failed += outputs.iter().map(|o| o.0).sum::<usize>() as u64;
    let last = last.expect("at least one pass");
    run.check("suite completed with no failures", last.is_complete());
    run.acc_err_pp = acc_err_pp(&SchemeAccuracies::from_suite(&last));
    let insts: u64 = last.benches.iter().map(|b| b.stats.insts).sum();
    run.info.insert("natural_insts".into(), insts as f64);

    // Live scoring must equal scoring the replayed trace (cold per run).
    let _span = ctx.span("check.replay_equals_live");
    let mismatches = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..ctx.nproc {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(live) = last.benches.get(i) else {
                    break;
                };
                let bench = branchlab::workloads::benchmark(live.name).expect("suite bench");
                let preds: Vec<Box<dyn BranchPredictor>> =
                    vec![Box::new(Sbtb::paper()), Box::new(suite_cbtb(&cfg))];
                let ok = match replay_cold_per_run(bench, &cfg, preds) {
                    Ok(r) => r[0] == live.sbtb && r[1] == live.cbtb,
                    Err(e) => {
                        eprintln!("perfbench: {}: {e}", live.name);
                        false
                    }
                };
                mismatches
                    .lock()
                    .expect("mismatch list")
                    .push((live.name, ok));
            });
        }
    });
    let mut results = mismatches.into_inner().expect("mismatch list");
    results.sort_unstable();
    for (name, ok) in results {
        run.check(format!("{name}: live SBTB/CBTB stats equal replay"), ok);
    }
    branchlab::experiments::trace_replay::clear_cache();
    run
}
