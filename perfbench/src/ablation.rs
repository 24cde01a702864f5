//! `ablation`: the `ablation` binary's study set — `full_study` on
//! compress at scale small — over a trace warmed in set-up.
//!
//! cccp is left out: its 24M-event study takes about 9 s on two cores,
//! too long for a run to hold several timed passes. compress (4.6M
//! events, about 2 s) exercises the same decode, scoring, lane and
//! executor code.

use branchlab::experiments::ablation::{full_study, StudySpec};
use branchlab::experiments::trace_replay::{cached_profile, captured_runs, clear_cache};
use branchlab::experiments::ExperimentConfig;
use branchlab::workloads::{benchmark, Benchmark, Scale};

use crate::harness::{
    acc_err_pp_replayed, child, time, timed_passes, Ctx, HostClock, Run, MIN_HALF_PASSES,
    MIN_PASSES,
};

/// Set-ups per run (`setup_s` is their median); each takes ~0.5 s.
const SETUPS: usize = 5;

/// The ablation workload's experiment configuration at `threads`
/// sweep threads.
#[must_use]
pub fn config(ctx: &Ctx, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: Scale::Small,
        seed: ctx.seed,
        sweep_threads: Some(threads),
        ..ExperimentConfig::default()
    }
}

/// The studied benchmarks.
#[must_use]
pub fn benches() -> Vec<&'static Benchmark> {
    ["compress"]
        .iter()
        .map(|n| benchmark(n).expect("suite benchmark"))
        .collect()
}

/// Sweep points `full_study` scores per benchmark under `spec` (RAS
/// depths excluded): SBTB + CBTB per size, CBTB per way count and
/// counter variant, SBTB + CBTB + FS per flush interval, four static
/// baselines, and CBTB + gshare + local.
#[must_use]
pub fn study_points(spec: &StudySpec<'_>) -> usize {
    2 * spec.btb_sizes.len()
        + spec.assoc_ways.len()
        + spec.counter_variants.len()
        + 3 * spec.context_intervals.len()
        + 4
        + 3
}

/// Every table of one study pass over `benches`, rendered as text.
///
/// # Errors
/// The first benchmark's pipeline error.
pub fn study_pass(
    benches: &[&'static Benchmark],
    cfg: &ExperimentConfig,
    parent: Option<&branchlab::telemetry::SpanLink>,
) -> Result<String, String> {
    let spec = StudySpec::default();
    let mut out = String::new();
    for bench in benches {
        let _span = child(parent, "experiments.full_study");
        for t in full_study(bench, cfg, &spec).map_err(|e| format!("{}: {e}", bench.name))? {
            out.push_str(&t.to_text());
        }
    }
    Ok(out)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Run {
    let cfg = config(ctx, ctx.nproc);
    let benches = benches();
    let mut run = Run {
        scale: "small",
        ..Run::default()
    };

    let mut clock = HostClock::start();
    for _ in 0..SETUPS {
        clear_cache();
        let (s, ok) = clock.time(
            || {
                benches
                    .iter()
                    .all(|b| captured_runs(b, &cfg).is_ok() && cached_profile(b, &cfg).is_ok())
            },
            |_| 1.0,
        );
        run.setups.push(s);
        run.check("set-up captured and profiled", ok);
    }
    // A pass's unit of work is one captured branch event, which every
    // sweep point scores.
    let units = benches
        .iter()
        .filter_map(|b| captured_runs(b, &cfg).ok())
        .flat_map(|runs| {
            runs.iter()
                .map(branchlab::trace::TraceBuf::events)
                .collect::<Vec<_>>()
        })
        .sum::<u64>() as f64;
    run.info.insert("events".into(), units);

    let mut outputs;
    let pass = |parent: Option<&branchlab::telemetry::SpanLink>| {
        let r = study_pass(&benches, &cfg, parent);
        if let Err(e) = &r {
            eprintln!("perfbench: {e}");
        }
        r
    };
    if ctx.tracer.is_some() {
        let half = ctx.seconds / 2.0;
        let (t, o) = timed_passes(&mut clock, half, MIN_HALF_PASSES, || pass(None), |_| units);
        run.passes = t;
        outputs = o;
        let link = ctx.link();
        let (t, o) = timed_passes(
            &mut clock,
            half,
            MIN_HALF_PASSES,
            || {
                let span = child(link.as_ref(), "ablation.pass");
                pass(span.as_ref().map(|s| s.link()).as_ref())
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
            || pass(None),
            |_| units,
        );
        run.passes = t;
        outputs = o;
    }
    run.attempted = (outputs.len() * benches.len()) as u64;
    run.failed += outputs.iter().filter(|o| o.is_err()).count() as u64;
    run.peak_heap_mb = crate::sys::peak_heap_mb();

    // The same tables must come out at one sweep thread.
    let serial_cfg = config(ctx, 1);
    let (serial_s, serial) = {
        let _span = ctx.span("check.serial_tables");
        time(|| study_pass(&benches, &serial_cfg, None))
    };
    let parallel = outputs.pop().expect("at least one pass");
    run.check(
        format!("tables at 1 thread equal tables at {} threads", ctx.nproc),
        serial.is_ok() && serial == parallel,
    );
    run.info.insert("serial_pass_s".into(), serial_s);

    match acc_err_pp_replayed(&benches, &cfg, ctx.nproc) {
        Ok(v) => run.acc_err_pp = v,
        Err(e) => run.check(format!("accuracy replay: {e}"), false),
    }
    if ctx.tracer.is_some() {
        let walls: Vec<f64> = run.passes.iter().map(|s| s.wall_s).collect();
        let parallel_s = crate::stats::median(&walls).unwrap_or(f64::NAN);
        run.layer.insert(
            "experiments.sweep.parallel_efficiency",
            serial_s / (ctx.nproc as f64 * parallel_s),
        );
    }
    run
}
