//! branchlab's benchmark: one command runs any workload for a seed,
//! checks its outputs, and prints every metric with its unit.
//!
//! ```text
//! perfbench --workload paper|ablation|btb|serve --seed N --seconds S --trace 0|1
//! perfbench --compare A.json B.json
//! perfbench --spread RECORD.json...
//! ```
//!
//! Run it from the repository root (it reads `BENCHMARK.json` there and
//! writes records under `perfbench/out/`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod ablation;
mod btb;
mod catalog;
mod gen;
mod harness;
mod layers;
mod paper;
mod serve;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use branchlab::experiments::ExperimentConfig;
use branchlab::telemetry::json::{self, JsonValue};
use branchlab::telemetry::{chrome_trace, validate_chrome_trace};
use branchlab::workloads::Benchmark;

use harness::{Ctx, Run, Tracer};
use stats::median;

/// Counts live heap bytes for `peak_heap_mb`.
#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload paper|ablation|btb|serve --seed N \
--seconds S --trace 0|1\n       perfbench --compare A.json B.json\n       \
perfbench --spread RECORD.json...";

/// Where result records and Chrome traces go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1989;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        match argv.as_slice() {
            [_, a, b] => std::process::exit(compare(Path::new(a), Path::new(b))),
            _ => fail("--compare needs two result files"),
        }
    }
    if argv.first().map(String::as_str) == Some("--spread") {
        std::process::exit(spread(&argv[1..]));
    }
    let args = parse_args(argv.into_iter()).unwrap_or_else(|e| fail(&e));
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| fail(&format!("reading BENCHMARK.json: {e}")));
    if let Err(e) = catalog::check_declared(&declared) {
        fail(&e);
    }

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: sys::nproc(),
        tracer: args
            .trace
            .then(|| Tracer::new(&format!("{} seed {}", args.workload, args.seed))),
    };
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    let (mut run, benches, cfg): (Run, Vec<&'static Benchmark>, ExperimentConfig) =
        match args.workload.as_str() {
            "paper" => (paper::run(&ctx), paper::benches(), paper::config(&ctx)),
            "ablation" => (
                ablation::run(&ctx),
                ablation::benches(),
                ablation::config(&ctx, ctx.nproc),
            ),
            "btb" => (btb::run(&ctx), btb::benches(), btb::config(&ctx)),
            _ => (serve::run(&ctx), serve::benches(), serve::config(&ctx)),
        };

    let mut metrics = BTreeMap::new();
    if ctx.tracer.is_some() {
        traced_layers(&ctx, &args.workload, &mut run, &benches, &cfg);
        let Ctx { tracer, .. } = ctx;
        let trace = tracer.expect("traced run").finish();
        metrics.extend(layers::metrics(&trace));
        metrics.extend(std::mem::take(&mut run.layer));
        let untraced = ns_per_unit(&run.passes);
        let traced = ns_per_unit(&run.traced_passes);
        metrics.insert(
            "telemetry.trace_overhead_pct",
            (traced - untraced) / untraced * 100.0,
        );
        export_trace(&args, &trace, &mut run);
    } else {
        let setup_s: Vec<f64> = run.setups.iter().map(|s| s.ref_s).collect();
        metrics.insert("setup_s", median(&setup_s).unwrap_or(f64::NAN));
        metrics.insert("run_ns_per_unit", ns_per_unit(&run.passes));
        metrics.insert("peak_heap_mb", run.peak_heap_mb);
        metrics.insert("acc_err_pp", run.acc_err_pp);
    }
    emit(&args, &run, &metrics, catalog::printed(args.trace));
}

/// Median reference nanoseconds per unit of work over `passes`.
fn ns_per_unit(passes: &[harness::Sample]) -> f64 {
    let per_unit: Vec<f64> = passes
        .iter()
        .map(harness::Sample::ref_ns_per_unit)
        .collect();
    median(&per_unit).unwrap_or(f64::NAN)
}

/// The traced run's probes beyond the workload's own passes: the layer
/// probe, the sweep-efficiency probe, and the server probe.
fn traced_layers(
    ctx: &Ctx,
    workload: &str,
    run: &mut Run,
    benches: &[&'static Benchmark],
    cfg: &ExperimentConfig,
) {
    let probed = layers::probe(ctx, benches, cfg);
    run.check(
        format!(
            "layer probe: {}",
            probed.as_ref().err().map_or("ok", String::as_str)
        ),
        probed.is_ok(),
    );
    if !run
        .layer
        .contains_key("experiments.sweep.parallel_efficiency")
    {
        let bench = *probed.as_ref().unwrap_or(&benches[0]);
        match layers::sweep_efficiency(ctx, bench, cfg) {
            Ok(e) => {
                run.layer.insert("experiments.sweep.parallel_efficiency", e);
            }
            Err(e) => run.check(format!("sweep probe: {e}"), false),
        }
    }
    if workload != "serve" {
        match serve::probe(ctx, benches, cfg) {
            Ok(m) => run.layer.extend(m),
            Err(e) => run.check(format!("server probe: {e}"), false),
        }
    }
}

/// Write the run's spans as a Chrome trace and validate the file.
fn export_trace(args: &Args, trace: &branchlab::telemetry::RequestTrace, run: &mut Run) {
    let path = out_path(args, "trace.json");
    let started = std::time::Instant::now();
    let text = chrome_trace(&[Arc::new(trace.clone())]).to_json();
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &text));
    let valid = written
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|t| validate_chrome_trace(&t));
    let ok = valid.as_ref().is_ok_and(|names| {
        [
            "perfbench",
            "layers",
            "minic.compile",
            "predict.lanes",
            "trace.decode",
        ]
        .iter()
        .all(|n| names.iter().any(|seen| seen == n))
    });
    eprintln!(
        "perfbench: Chrome trace {} ({} spans) written and validated in {:.2} s",
        path.display(),
        trace.spans.len(),
        started.elapsed().as_secs_f64()
    );
    run.check(format!("Chrome trace {} validates", path.display()), ok);
}

fn out_path(args: &Args, ext: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.{ext}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

/// Write the result record and print the metrics, then the final
/// JSON line.
fn emit(
    args: &Args,
    run: &Run,
    metrics: &BTreeMap<&'static str, f64>,
    printed: &[catalog::MetricDef],
) {
    let mut correct = run.checks.iter().all(|c| c.ok) && run.attempted > 0 && run.failed == 0;
    let mut fields = Vec::new();
    for d in printed {
        let value = metrics.get(d.name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {} was not measured", d.name);
            correct = false;
            0.0
        };
        println!("{} = {value} {}", d.name, d.unit);
        fields.push((
            d.name,
            JsonValue::obj(vec![("value", value.into()), ("unit", d.unit.into())]),
        ));
    }
    let summary = JsonValue::obj(vec![
        ("correct", correct.into()),
        ("attempted", run.attempted.max(1).into()),
        ("failed", run.failed.into()),
        ("metrics", JsonValue::obj(fields)),
    ]);

    let record = JsonValue::obj(vec![
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("scale", run.scale.into()),
        ("available_parallelism", sys::nproc().into()),
        ("git_describe", sys::git_describe().into()),
        ("result", summary.clone()),
        (
            "checks",
            JsonValue::Arr(
                run.checks
                    .iter()
                    .map(|c| {
                        JsonValue::obj(vec![("name", c.name.as_str().into()), ("ok", c.ok.into())])
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            JsonValue::obj(vec![
                ("setups", samples(&run.setups)),
                ("passes", samples(&run.passes)),
                ("traced_passes", samples(&run.traced_passes)),
            ]),
        ),
        (
            "info",
            JsonValue::Obj(
                run.info
                    .iter()
                    .filter(|(_, v)| v.is_finite())
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
    ]);
    let path = out_path(args, "json");
    match std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, record.to_json_pretty() + "\n"))
    {
        Ok(()) => eprintln!("perfbench: record written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    println!("{}", summary.to_json());
}

fn samples(xs: &[harness::Sample]) -> JsonValue {
    JsonValue::Arr(
        xs.iter()
            .map(|s| {
                JsonValue::obj(vec![
                    ("wall_s", s.wall_s.into()),
                    ("ref_s", s.ref_s.into()),
                    ("units", s.units.into()),
                    ("probe_s", s.probe_s.into()),
                ])
            })
            .collect(),
    )
}

fn load_record(p: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
}

fn record_metrics(r: &JsonValue) -> Vec<(String, f64)> {
    match r.get("result").and_then(|s| s.get("metrics")) {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Run-to-run spread of each metric over result records of one
/// workload: median, quartiles, and the interquartile range as a share
/// of the median. Refuses (exit 2) records from different core counts.
fn spread(files: &[String]) -> i32 {
    let records: Result<Vec<JsonValue>, String> =
        files.iter().map(|f| load_record(Path::new(f))).collect();
    let records = match records {
        Ok(r) if r.len() >= 2 => r,
        Ok(_) => {
            eprintln!("perfbench: --spread needs at least two records");
            return 2;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    for key in ["available_parallelism", "workload", "trace"] {
        if records.iter().any(|r| r.get(key) != records[0].get(key)) {
            eprintln!("perfbench: refusing: records differ in `{key}`");
            return 2;
        }
    }
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &records {
        for (name, v) in record_metrics(r) {
            by_name.entry(name).or_default().push(v);
        }
    }
    println!(
        "{:<40} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "q1", "median", "q3", "iqr/med"
    );
    for (name, vs) in by_name {
        if let Some((q1, q2, q3)) = stats::quartiles(&vs) {
            println!(
                "{name:<40} {:>4} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>8.4}",
                vs.len(),
                (q3 - q1) / q2
            );
        }
    }
    0
}

/// Print metric ratios between two result records; refuse (exit 2)
/// when they were taken on different core counts or workloads.
fn compare(a: &Path, b: &Path) -> i32 {
    let (ra, rb) = match (load_record(a), load_record(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    for key in ["available_parallelism", "workload", "scale", "trace"] {
        if ra.get(key) != rb.get(key) {
            eprintln!(
                "perfbench: refusing to compare: `{key}` differs ({:?} vs {:?})",
                ra.get(key),
                rb.get(key)
            );
            return 2;
        }
    }
    let mb = record_metrics(&rb);
    println!("{:<40} {:>14} {:>14} {:>8}", "metric", "A", "B", "B/A");
    for (name, va) in record_metrics(&ra) {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| *n == name) {
            println!("{name:<40} {va:>14.6} {vb:>14.6} {:>8.3}", vb / va);
        }
    }
    0
}
