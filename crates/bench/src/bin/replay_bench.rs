//! Replay-vs-reinterpret benchmark: runs the full ablation study set
//! twice per benchmark — once re-interpreting every sweep point (the
//! pre-replay `O(points × interpret)` baseline: `--no-trace-replay`
//! plus one full compile→lower→interpret pipeline per sweep point) and
//! once on the batched trace-replay engine (one capture + one replay
//! pass scores every point) — verifies the rendered tables are
//! identical, and writes `BENCH_replay.json` recording per-phase
//! wall-clock and the measured speedup so the perf trajectory is
//! tracked PR over PR.
//!
//! A second phase measures the parallel sweep executor on the
//! now-warm traces: each benchmark's study set is scored on one thread
//! and on `--sweep-threads N` threads (default: available
//! parallelism, floored at 4 so the executor's chunking and merge are
//! always exercised), the tables are verified byte-identical, and the
//! wall-clock plus `suite.sweep.parallel.*` counters land in
//! `BENCH_sweep_parallel.json` (`--sweep-out`). The file records
//! `available_parallelism` so a ~1x "speedup" on a single-core runner
//! is self-explaining.
//!
//! Usage:
//! `replay_bench [--scale test|small|paper] [--seed N] [--out FILE]
//! [--sweep-out FILE] [--sweep-threads N] [--trace-cache DIR]
//! [--trace-out FILE] [--benches A,B,...]`
//!
//! A third phase measures the bit-parallel lane engine: a
//! 26-configuration CBTB counter-family sweep (every
//! `(counter_bits, threshold)` point at the paper's 256-entry
//! fully-associative geometry) is scored on warm traces once through
//! the scalar path (`use_lane_scoring` off — the PR-3 per-point
//! replay) and once lane-packed, the per-configuration `PredStats`
//! are verified identical, and the wall-clock plus
//! `suite.sweep.lane.*` counters land in `BENCH_lanes.json`
//! (`--lanes-out`). Both sides run on one thread, so the ratio
//! isolates lane packing from thread parallelism. `--lanes-only`
//! skips the first two (much slower) phases when regenerating just
//! the lane artifact.
//!
//! `--trace-out FILE` additionally drops the run's per-phase timing as
//! Chrome trace-event JSON (open at ui.perfetto.dev); tracing is off
//! unless requested, so benchmark numbers are unperturbed.
//!
//! (Own argument parser: this binary needs `--out`/`--benches`, which
//! the shared suite `Options` intentionally does not know about.)

use std::sync::Arc;
use std::time::Instant;

use branchlab::experiments::ablation::{full_study, StudySpec};
use branchlab::experiments::trace_replay::captured_runs;
use branchlab::experiments::{
    ExperimentConfig, ExperimentError, SweepBatch, Table, LANE_COUNTERS, SWEEP_COUNTERS,
    TRACE_COUNTERS,
};
use branchlab::predict::{BranchPredictor, Cbtb, CbtbConfig};
use branchlab::telemetry::{JsonValue, MetricsRegistry, PhaseSpan};
use branchlab::workloads::{benchmark, Scale};
use branchlab_bench::{counters_json, sweep_phase_spans, trace_phase_spans};

/// `cfg`, counting into a fresh registry of its own, so one measured
/// run's counters can be read apart from the rest.
fn counted(cfg: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        metrics: Arc::new(MetricsRegistry::new()),
        ..cfg.clone()
    }
}

/// Add `from`'s values of the counters `names` into `into` (one
/// benchmark's run rolled up into its phase total).
fn add_counters(into: &MetricsRegistry, from: &MetricsRegistry, names: &[&str]) {
    for name in names {
        into.counter(name).add(from.counter(name).get());
    }
}

fn spans_json(spans: &[PhaseSpan]) -> JsonValue {
    JsonValue::Arr(spans.iter().map(PhaseSpan::to_json_value).collect())
}

/// The ablation binary's study set, reproduced point for point.
fn study_set(
    bench: &branchlab::workloads::Benchmark,
    cfg: &ExperimentConfig,
) -> Result<Vec<Table>, ExperimentError> {
    full_study(bench, cfg, &StudySpec::default())
}

fn tables_csv(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n")
}

struct Args {
    config: ExperimentConfig,
    out: std::path::PathBuf,
    sweep_out: std::path::PathBuf,
    lanes_out: std::path::PathBuf,
    lanes_only: bool,
    sweep_threads: Option<usize>,
    trace_out: Option<std::path::PathBuf>,
    benches: Vec<String>,
}

fn parse_args() -> Args {
    const USAGE: &str = "usage: replay_bench [--scale test|small|paper] [--seed N] \
[--out FILE] [--sweep-out FILE] [--lanes-out FILE] [--lanes-only] [--sweep-threads N] \
[--trace-cache DIR] [--trace-out FILE] [--benches A,B,...]";
    let mut config = ExperimentConfig::default();
    let mut out = std::path::PathBuf::from("BENCH_replay.json");
    let mut sweep_out = std::path::PathBuf::from("BENCH_sweep_parallel.json");
    let mut lanes_out = std::path::PathBuf::from("BENCH_lanes.json");
    let mut lanes_only = false;
    let mut sweep_threads = None;
    let mut trace_out = None;
    let mut benches: Vec<String> = vec!["compress".into(), "cccp".into()];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                config.scale = match args.next().unwrap_or_default().as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => panic!("unknown scale `{other}` (test|small|paper)"),
                };
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--out" => out = args.next().expect("--out needs a file path").into(),
            "--sweep-out" => {
                sweep_out = args.next().expect("--sweep-out needs a file path").into();
            }
            "--lanes-out" => {
                lanes_out = args.next().expect("--lanes-out needs a file path").into();
            }
            "--lanes-only" => lanes_only = true,
            "--sweep-threads" => {
                sweep_threads = Some(
                    args.next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .expect("--sweep-threads needs an integer")
                        .max(1),
                );
            }
            "--trace-cache" => {
                config.trace_cache_dir =
                    Some(args.next().expect("--trace-cache needs a directory").into());
            }
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a file path").into());
            }
            "--benches" => {
                let list = args.next().expect("--benches needs a comma list");
                benches = list.split(',').map(str::trim).map(String::from).collect();
            }
            other => panic!("unknown argument `{other}`\n{USAGE}"),
        }
    }
    Args {
        config,
        out,
        sweep_out,
        lanes_out,
        lanes_only,
        sweep_threads,
        trace_out,
        benches,
    }
}

/// The lane phase's sweep: every `(counter_bits, threshold)` point at
/// the paper's 256-entry fully-associative geometry — 26 compatible
/// configurations that pack into one 26-lane family.
fn counter_family() -> Vec<CbtbConfig> {
    let mut configs = Vec::new();
    for counter_bits in 1..=4u8 {
        for threshold in 1..(1u8 << counter_bits) {
            configs.push(CbtbConfig {
                counter_bits,
                threshold,
                ..CbtbConfig::paper()
            });
        }
    }
    configs
}

/// Phase three: lane-packed vs scalar scoring of the counter family on
/// warm traces, both single-threaded, written to `--lanes-out`.
/// Returns whether every lane-scored `PredStats` matched its scalar
/// twin exactly.
fn lanes_phase(args: &Args) -> bool {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let configs = counter_family();
    let scalar_cfg = ExperimentConfig {
        use_lane_scoring: false,
        sweep_threads: Some(1),
        ..args.config.clone()
    };
    let lane_cfg = ExperimentConfig {
        sweep_threads: Some(1),
        ..args.config.clone()
    };
    let build = || -> Vec<Box<dyn BranchPredictor>> {
        counter_family()
            .into_iter()
            .map(|c| Box::new(Cbtb::new(c)) as Box<dyn BranchPredictor>)
            .collect()
    };

    let mut per_bench = Vec::new();
    let mut total_scalar = 0.0f64;
    let mut total_lane = 0.0f64;
    let mut all_match = true;
    let lanes = MetricsRegistry::new();

    for name in &args.benches {
        let bench =
            benchmark(name).unwrap_or_else(|| panic!("benchmark `{name}` missing from suite"));

        // Warm the trace cache so both timings are pure scoring.
        let events: u64 = captured_runs(bench, &args.config)
            .unwrap_or_else(|e| panic!("{name}: trace capture failed: {e}"))
            .iter()
            .map(branchlab::trace::TraceBuf::events)
            .sum();

        let started = Instant::now();
        let mut batch = SweepBatch::new(bench, &scalar_cfg);
        let st = batch.eval(build());
        let scalar = batch
            .run()
            .unwrap_or_else(|e| panic!("{name}: scalar sweep failed: {e}"));
        let scalar_s = started.elapsed().as_secs_f64();

        let bench_cfg = counted(&lane_cfg);
        let started = Instant::now();
        let mut batch = SweepBatch::new(bench, &bench_cfg);
        let lt = batch.eval(build());
        let laned = batch
            .run()
            .unwrap_or_else(|e| panic!("{name}: lane sweep failed: {e}"));
        let lane_s = started.elapsed().as_secs_f64();
        add_counters(&lanes, &bench_cfg.metrics, &LANE_COUNTERS);

        let stats_match = laned.stats(lt) == scalar.stats(st);
        all_match &= stats_match;
        let speedup = if lane_s > 0.0 {
            scalar_s / lane_s
        } else {
            f64::INFINITY
        };
        total_scalar += scalar_s;
        total_lane += lane_s;
        eprintln!(
            "{name}: scalar {scalar_s:.3}s, lane-packed {lane_s:.3}s ({speedup:.1}x, \
             {} configs x {events} events, match: {stats_match})",
            configs.len(),
        );

        per_bench.push(JsonValue::obj(vec![
            ("name", name.as_str().into()),
            ("events", events.into()),
            ("scalar_s", scalar_s.into()),
            ("lane_s", lane_s.into()),
            ("speedup", speedup.into()),
            ("stats_match", stats_match.into()),
            ("lanes", counters_json(&bench_cfg.metrics, &LANE_COUNTERS)),
        ]));
    }

    let speedup = if total_lane > 0.0 {
        total_scalar / total_lane
    } else {
        f64::INFINITY
    };
    let report = JsonValue::obj(vec![
        ("tool", "replay_bench/lanes".into()),
        (
            "baseline",
            "scalar replay (use_lane_scoring off): one monomorphized eval_block walk per sweep \
             point, single-threaded"
                .into(),
        ),
        ("configs", (configs.len() as u64).into()),
        ("available_parallelism", (cores as u64).into()),
        (
            "scale",
            format!("{:?}", args.config.scale).to_lowercase().into(),
        ),
        ("seed", args.config.seed.into()),
        ("stats_match", all_match.into()),
        ("scalar_s", total_scalar.into()),
        ("lane_s", total_lane.into()),
        ("speedup", speedup.into()),
        ("benches", JsonValue::Arr(per_bench)),
        ("lanes", counters_json(&lanes, &LANE_COUNTERS)),
    ]);
    std::fs::write(&args.lanes_out, report.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", args.lanes_out.display()));
    eprintln!(
        "replay_bench: scalar {total_scalar:.2}s vs lane-packed {total_lane:.2}s \
         ({speedup:.1}x across {} configs) -> {}",
        configs.len(),
        args.lanes_out.display()
    );
    all_match
}

/// Phase two: serial-vs-parallel sweep scoring on warm traces, written
/// to `--sweep-out`. Returns whether every parallel table matched its
/// serial twin, plus the phase's sweep counters (for the `--trace-out`
/// export).
fn sweep_parallel_phase(args: &Args) -> (bool, MetricsRegistry) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Floor at 4 so chunking, batch stealing, and the plan-order merge
    // are exercised even on small runners; the report records `cores`
    // so a ~1x speedup there is self-explaining.
    let threads = args.sweep_threads.unwrap_or_else(|| cores.max(4));
    let serial_cfg = ExperimentConfig {
        sweep_threads: Some(1),
        ..args.config.clone()
    };
    let parallel_cfg = ExperimentConfig {
        sweep_threads: Some(threads),
        ..args.config.clone()
    };

    let mut per_bench = Vec::new();
    let mut total_serial = 0.0f64;
    let mut total_parallel = 0.0f64;
    let mut all_match = true;
    let sweep = MetricsRegistry::new();

    for name in &args.benches {
        let bench =
            benchmark(name).unwrap_or_else(|| panic!("benchmark `{name}` missing from suite"));

        // Traces are warm from phase one (same scale/seed), so both
        // timings below are pure sweep scoring, not capture.
        let started = Instant::now();
        let serial = study_set(bench, &serial_cfg)
            .unwrap_or_else(|e| panic!("{name}: serial sweep failed: {e}"));
        let serial_s = started.elapsed().as_secs_f64();

        let bench_cfg = counted(&parallel_cfg);
        let started = Instant::now();
        let parallel = study_set(bench, &bench_cfg)
            .unwrap_or_else(|e| panic!("{name}: parallel sweep failed: {e}"));
        let parallel_s = started.elapsed().as_secs_f64();
        add_counters(&sweep, &bench_cfg.metrics, &SWEEP_COUNTERS);
        let count = |name| bench_cfg.metrics.counter(name).get();

        let tables_match = tables_csv(&serial) == tables_csv(&parallel);
        all_match &= tables_match;
        let speedup = if parallel_s > 0.0 {
            serial_s / parallel_s
        } else {
            f64::INFINITY
        };
        total_serial += serial_s;
        total_parallel += parallel_s;
        eprintln!(
            "{name}: serial sweep {serial_s:.2}s, {threads}-thread sweep {parallel_s:.2}s \
             ({speedup:.1}x, {} points in {} batches, match: {tables_match})",
            count("suite.sweep.parallel.points"),
            count("suite.sweep.parallel.batches"),
        );

        per_bench.push(JsonValue::obj(vec![
            ("name", name.as_str().into()),
            ("serial_s", serial_s.into()),
            ("parallel_s", parallel_s.into()),
            ("speedup", speedup.into()),
            ("tables_match", tables_match.into()),
            ("sweep", counters_json(&bench_cfg.metrics, &SWEEP_COUNTERS)),
        ]));
    }

    let speedup = if total_parallel > 0.0 {
        total_serial / total_parallel
    } else {
        f64::INFINITY
    };
    let report = JsonValue::obj(vec![
        ("tool", "replay_bench/sweep_parallel".into()),
        ("threads", (threads as u64).into()),
        ("available_parallelism", (cores as u64).into()),
        (
            "scale",
            format!("{:?}", args.config.scale).to_lowercase().into(),
        ),
        ("seed", args.config.seed.into()),
        ("tables_match", all_match.into()),
        ("serial_s", total_serial.into()),
        ("parallel_s", total_parallel.into()),
        ("speedup", speedup.into()),
        ("benches", JsonValue::Arr(per_bench)),
        ("sweep", counters_json(&sweep, &SWEEP_COUNTERS)),
        ("phases", spans_json(&sweep_phase_spans(&sweep))),
    ]);
    std::fs::write(&args.sweep_out, report.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", args.sweep_out.display()));
    eprintln!(
        "replay_bench: serial sweep {total_serial:.2}s vs {threads}-thread sweep \
         {total_parallel:.2}s ({speedup:.1}x on {cores} cores) -> {}",
        args.sweep_out.display()
    );
    (all_match, sweep)
}

fn main() {
    let args = parse_args();
    if args.lanes_only {
        if !lanes_phase(&args) {
            eprintln!("replay_bench: MISMATCH between lane-packed and scalar sweep stats");
            std::process::exit(1);
        }
        return;
    }
    let mut per_bench = Vec::new();
    let mut total_reinterpret = 0.0f64;
    let mut total_replay = 0.0f64;
    let mut all_match = true;
    let trace = MetricsRegistry::new();

    for name in &args.benches {
        let bench =
            benchmark(name).unwrap_or_else(|| panic!("benchmark `{name}` missing from suite"));

        let baseline_cfg = ExperimentConfig {
            use_trace_replay: false,
            sweep_per_point: true,
            ..args.config.clone()
        };
        let started = Instant::now();
        let baseline = study_set(bench, &baseline_cfg)
            .unwrap_or_else(|e| panic!("{name}: re-interpretation baseline failed: {e}"));
        let reinterpret_s = started.elapsed().as_secs_f64();

        let bench_cfg = counted(&args.config);
        let started = Instant::now();
        let replayed = study_set(bench, &bench_cfg)
            .unwrap_or_else(|e| panic!("{name}: replay run failed: {e}"));
        let replay_s = started.elapsed().as_secs_f64();
        add_counters(&trace, &bench_cfg.metrics, &TRACE_COUNTERS);
        let count = |name| bench_cfg.metrics.counter(name).get();

        let stats_match = tables_csv(&baseline) == tables_csv(&replayed);
        all_match &= stats_match;
        let speedup = if replay_s > 0.0 {
            reinterpret_s / replay_s
        } else {
            f64::INFINITY
        };
        total_reinterpret += reinterpret_s;
        total_replay += replay_s;
        eprintln!(
            "{name}: reinterpret {reinterpret_s:.2}s, capture+replay {replay_s:.2}s \
             ({speedup:.1}x, {} events captured, {} replayed, match: {stats_match})",
            count("suite.trace.events_captured"),
            count("suite.trace.events_replayed"),
        );

        per_bench.push(JsonValue::obj(vec![
            ("name", name.as_str().into()),
            ("reinterpret_s", reinterpret_s.into()),
            ("replay_s", replay_s.into()),
            ("speedup", speedup.into()),
            ("stats_match", stats_match.into()),
            ("trace", counters_json(&bench_cfg.metrics, &TRACE_COUNTERS)),
        ]));
    }

    let speedup = if total_replay > 0.0 {
        total_reinterpret / total_replay
    } else {
        f64::INFINITY
    };
    let report = JsonValue::obj(vec![
        ("tool", "replay_bench".into()),
        (
            "baseline",
            "per-point reinterpretation (one compile->profile->interpret pipeline per sweep point)"
                .into(),
        ),
        (
            "scale",
            format!("{:?}", args.config.scale).to_lowercase().into(),
        ),
        ("seed", args.config.seed.into()),
        ("stats_match", all_match.into()),
        ("reinterpret_s", total_reinterpret.into()),
        ("replay_s", total_replay.into()),
        ("speedup", speedup.into()),
        ("benches", JsonValue::Arr(per_bench)),
        ("trace", counters_json(&trace, &TRACE_COUNTERS)),
        ("phases", spans_json(&trace_phase_spans(&trace))),
    ]);
    std::fs::write(&args.out, report.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", args.out.display()));
    eprintln!(
        "replay_bench: total reinterpret {total_reinterpret:.2}s vs capture+replay \
         {total_replay:.2}s ({speedup:.1}x) -> {}",
        args.out.display()
    );
    let (sweep_match, sweep) = sweep_parallel_phase(&args);
    let lanes_match = lanes_phase(&args);
    if let Some(path) = &args.trace_out {
        // Phase spans carry durations, not wall timestamps, so the
        // exporter lays each group out sequentially on its own row.
        let groups = vec![
            (
                "replay: trace replay".to_string(),
                trace_phase_spans(&trace),
            ),
            (
                "replay: parallel sweep".to_string(),
                sweep_phase_spans(&sweep),
            ),
        ];
        let chrome = branchlab::telemetry::phases_chrome_trace("replay_bench", &groups);
        std::fs::write(path, chrome.to_json_pretty())
            .unwrap_or_else(|e| panic!("writing Chrome trace to {} failed: {e}", path.display()));
        eprintln!("replay_bench: Chrome trace written to {}", path.display());
    }
    if !all_match {
        eprintln!("replay_bench: MISMATCH between replayed and re-interpreted tables");
        std::process::exit(1);
    }
    if !sweep_match {
        eprintln!("replay_bench: MISMATCH between serial and parallel sweep tables");
        std::process::exit(1);
    }
    if !lanes_match {
        eprintln!("replay_bench: MISMATCH between lane-packed and scalar sweep stats");
        std::process::exit(1);
    }
}
