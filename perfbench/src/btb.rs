//! `btb`: `btb_bench`'s BTB points on the generated dispatch and
//! router programs at scale small, then the FDIP pricing pass.
//!
//! Scale small (0.76M events) rather than `btb_bench`'s scale paper
//! (7.6M): the footprint is the programs' static branch sites, which
//! do not depend on the input size, and every point's accuracy is
//! within half a point of scale paper's, while a pass is short enough
//! for a run to hold several.

use branchlab::experiments::trace_replay::{captured_runs, clear_cache, replay_runs};
use branchlab::experiments::{eval_predictors, eval_predictors_live, ExperimentConfig};
use branchlab::pipeline::{FdipConfig, FdipSim};
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, MlBtb, MlBtbConfig, MlBtbLevel, PredStats, Sbtb, SbtbConfig,
};
use branchlab::telemetry::SpanLink;
use branchlab::workloads::{benchmark, Benchmark, Scale};

use crate::harness::{
    acc_err_pp_replayed, add_work, child, timed_passes, Ctx, HostClock, Run, MIN_HALF_PASSES,
    MIN_PASSES,
};

/// Set-ups per run (`setup_s` is their median); each takes ~30 ms.
const SETUPS: usize = 15;

/// Point keys, in scoring order.
pub const POINTS: [&str; 7] = [
    "sbtb_256",
    "cbtb_256",
    "mlbtb_256",
    "sbtb_64x4",
    "cbtb_64x4",
    "mlbtb_64x4_2048x8",
    "mlbtb_64x4_bare",
];

/// A fresh predictor for point `key`.
///
/// # Panics
/// Panics on an unknown key.
#[must_use]
pub fn build(key: &str) -> Box<dyn BranchPredictor> {
    match key {
        "sbtb_256" => Box::new(Sbtb::paper()),
        "cbtb_256" => Box::new(Cbtb::paper()),
        "mlbtb_256" => Box::new(MlBtb::new(MlBtbConfig::paper())),
        "sbtb_64x4" => Box::new(Sbtb::new(SbtbConfig {
            entries: 64,
            ways: 4,
        })),
        "cbtb_64x4" => Box::new(Cbtb::new(CbtbConfig {
            entries: 64,
            ways: 4,
            ..CbtbConfig::paper()
        })),
        "mlbtb_64x4_2048x8" => Box::new(MlBtb::new(MlBtbConfig::server())),
        "mlbtb_64x4_bare" => Box::new(MlBtb::new(MlBtbConfig {
            levels: vec![MlBtbLevel {
                entries: 64,
                ways: 4,
                latency: 0,
            }],
            ..MlBtbConfig::server()
        })),
        other => panic!("unknown point `{other}`"),
    }
}

/// The btb workload's experiment configuration.
#[must_use]
pub fn config(ctx: &Ctx) -> ExperimentConfig {
    ExperimentConfig {
        scale: Scale::Small,
        seed: ctx.seed,
        sweep_threads: Some(ctx.nproc),
        ..ExperimentConfig::default()
    }
}

/// The generated large-footprint programs.
#[must_use]
pub fn benches() -> Vec<&'static Benchmark> {
    ["dispatch", "router"]
        .iter()
        .map(|n| benchmark(n).expect("synthetic benchmark"))
        .collect()
}

/// One pass: replay-score every point on every benchmark, then drive
/// each point through the FDIP front end and price it. Returns the
/// replayed stats per benchmark and the number of points whose FDIP
/// scoring disagreed with the replay.
fn pass(
    benches: &[&'static Benchmark],
    cfg: &ExperimentConfig,
    parent: Option<&SpanLink>,
) -> Result<(Vec<Vec<PredStats>>, u64), String> {
    let (moderate, deep) = (FdipConfig::moderate(), FdipConfig::deep());
    let mut all = Vec::new();
    let mut disagreements = 0;
    for bench in benches {
        let runs = captured_runs(bench, cfg).map_err(|e| e.to_string())?;
        let events: u64 = runs.iter().map(branchlab::trace::TraceBuf::events).sum();
        let replayed = {
            let mut span = child(parent, "experiments.eval_predictors");
            add_work(&mut span, events * POINTS.len() as u64);
            eval_predictors(bench, cfg, POINTS.iter().map(|k| build(k)).collect())
                .map_err(|e| e.to_string())?
        };
        for (key, stats) in POINTS.iter().zip(&replayed) {
            let mut span = child(parent, "btb.fdip_pass");
            add_work(&mut span, events);
            let mut sim = FdipSim::new(build(key));
            replay_runs(&runs, &mut sim).map_err(|e| e.to_string())?;
            std::hint::black_box((sim.counts.cost(&moderate), sim.counts.cost(&deep)));
            if sim.stats() != stats {
                eprintln!(
                    "perfbench: {}/{key}: FDIP stats differ from replay",
                    bench.name
                );
                disagreements += 1;
            }
        }
        all.push(replayed);
    }
    Ok((all, disagreements))
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Run {
    let cfg = config(ctx);
    let benches = benches();
    let mut run = Run {
        scale: "small",
        ..Run::default()
    };

    let mut clock = HostClock::start();
    for _ in 0..SETUPS {
        clear_cache();
        let (s, ok) = clock.time(
            || benches.iter().all(|b| captured_runs(b, &cfg).is_ok()),
            |_| 1.0,
        );
        run.setups.push(s);
        run.check("set-up captured", ok);
    }
    let events: u64 = benches
        .iter()
        .filter_map(|b| captured_runs(b, &cfg).ok())
        .map(|runs| {
            runs.iter()
                .map(branchlab::trace::TraceBuf::events)
                .sum::<u64>()
        })
        .sum();
    // A pass's unit of work is one captured branch event (scored at
    // every point and priced through the FDIP front end).
    let units = events as f64;

    let mut outputs;
    if ctx.tracer.is_some() {
        let (t, o) = timed_passes(
            &mut clock,
            ctx.seconds / 2.0,
            MIN_HALF_PASSES,
            || pass(&benches, &cfg, None),
            |_| units,
        );
        run.passes = t;
        outputs = o;
        let link = ctx.link();
        let (t, o) = timed_passes(
            &mut clock,
            ctx.seconds / 2.0,
            MIN_HALF_PASSES,
            || {
                let span = child(link.as_ref(), "btb.pass");
                pass(&benches, &cfg, span.as_ref().map(|s| s.link()).as_ref())
            },
            |_| units,
        );
        run.traced_passes = t;
        outputs.extend(o);
    } else {
        let (t, o) = timed_passes(
            &mut clock,
            ctx.seconds,
            MIN_PASSES,
            || pass(&benches, &cfg, None),
            |_| units,
        );
        run.passes = t;
        outputs = o;
    }
    run.peak_heap_mb = crate::sys::peak_heap_mb();
    let points = (benches.len() * POINTS.len()) as u64;
    run.attempted = outputs.len() as u64 * points;
    for o in &outputs {
        match o {
            Ok((_, disagreements)) => run.failed += disagreements,
            Err(e) => {
                eprintln!("perfbench: btb pass failed: {e}");
                run.failed += points;
            }
        }
    }

    // Each point's replayed stats must equal live interpretation.
    let _span = ctx.span("check.replay_equals_live");
    let replayed = outputs.pop().and_then(Result::ok).map(|(r, _)| r);
    for (i, bench) in benches.iter().enumerate() {
        let live = eval_predictors_live(bench, &cfg, POINTS.iter().map(|k| build(k)).collect());
        for (j, key) in POINTS.iter().enumerate() {
            let ok = match (&live, &replayed) {
                (Ok(live), Some(r)) => live[j] == r[i][j],
                _ => false,
            };
            run.check(format!("{}/{key}: replay stats equal live", bench.name), ok);
        }
    }

    match acc_err_pp_replayed(&benches, &cfg, ctx.nproc) {
        Ok(v) => run.acc_err_pp = v,
        Err(e) => run.check(format!("accuracy replay: {e}"), false),
    }
    run
}
