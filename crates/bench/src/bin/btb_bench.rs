//! BTB-hierarchy study: the paper's scheme comparison (SBTB / CBTB /
//! Forward Semantic) re-run in the large-code-footprint regime against
//! the multi-level BTB hierarchy, with FDIP front-end costs.
//!
//! The 1989 suite fits comfortably in a 256-entry BTB, so the paper
//! never observes capacity pressure. The generated server workloads
//! (`dispatch`, `router`) spread execution across hundreds of branch
//! sites; this study scores every scheme on them at two geometries:
//!
//! * **paper-256** — the paper's 256-entry fully-associative buffer
//!   (`cbtb_256` and `mlbtb_256` are the same single-level `MlBtb`,
//!   built from a `CbtbConfig` and an `MlBtbConfig`);
//! * **stressed-64x4** — a 64-entry 4-way L1 that the synthetic
//!   footprints overflow, alone (SBTB/CBTB) and backed by a 2048-entry
//!   8-way L2 (`MlBtb::server`).
//!
//! Every point is scored twice — batched trace replay and live
//! re-interpretation — and the artifact records `stats_match` per
//! point. A third pass per point drives the [`FdipSim`] front end over
//! the warm trace, crosschecks its `PredStats` against the replay
//! scoring, and prices the moderate and deep FDIP penalty
//! configurations from the class tallies in closed form. Multi-level
//! points additionally record per-level hit/miss/fill/evict counts and
//! the promotion/demotion traffic.
//!
//! Usage:
//! `btb_bench [--scale test|small|paper] [--seed N] [--out FILE]
//! [--trace-cache DIR] [--benches A,B,...]`
//!
//! (Own argument parser: `--out`/`--benches` are not part of the
//! shared suite `Options`.) A bad command line prints the error and the
//! usage line to stderr and exits 2, like the suite binaries.

use branchlab::experiments::trace_replay::{cached_profile, captured_runs, replay_runs};
use branchlab::experiments::{eval_predictors, eval_predictors_live, ExperimentConfig};
use branchlab::pipeline::{FdipConfig, FdipSim};
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, ForwardSemantic, MlBtb, MlBtbConfig, MlBtbStats, Sbtb,
    SbtbConfig,
};
use branchlab::telemetry::JsonValue;
use branchlab::workloads::{benchmark, Benchmark, Scale};
use branchlab_bench::EXIT_USAGE;

const USAGE: &str = "usage: btb_bench [-h|--help] [--scale test|small|paper] [--seed N] \
[--out FILE] [--trace-cache DIR] [--benches A,B,...]";

struct Args {
    config: ExperimentConfig,
    out: std::path::PathBuf,
    benches: Vec<&'static Benchmark>,
}

/// Parse the command line (everything after the binary name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut config = ExperimentConfig::default();
    let mut out = std::path::PathBuf::from("BENCH_btb.json");
    let mut names = "dispatch,router".to_string();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--scale" => {
                let v = value("a value")?;
                config.scale = Scale::from_name(&v)
                    .ok_or_else(|| format!("unknown scale `{v}` (test|small|paper)"))?;
            }
            "--seed" => {
                let v = value("an integer")?;
                config.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, not `{v}`"))?;
            }
            "--out" => out = value("a file path")?.into(),
            "--trace-cache" => config.trace_cache_dir = Some(value("a directory")?.into()),
            "--benches" => names = value("a comma list")?,
            _ => return Err(format!("unknown argument `{arg}`")),
        }
    }
    let benches = names
        .split(',')
        .map(str::trim)
        .map(|name| benchmark(name).ok_or_else(|| format!("benchmark `{name}` not found")))
        .collect::<Result<_, _>>()?;
    Ok(Args {
        config,
        out,
        benches,
    })
}

/// One study point: a scheme at a geometry, rebuildable on demand so
/// the replay, live, and FDIP passes each score a fresh predictor.
struct Point {
    key: &'static str,
    scheme: &'static str,
    geometry: &'static str,
    /// `Some` for multi-level points — replayed separately to pull the
    /// per-level statistics out of the concrete type.
    mlbtb: Option<MlBtbConfig>,
}

fn points() -> Vec<Point> {
    let stressed_l1 = MlBtbConfig {
        levels: vec![branchlab::predict::MlBtbLevel {
            entries: 64,
            ways: 4,
            latency: 0,
        }],
        ..MlBtbConfig::server()
    };
    vec![
        Point {
            key: "sbtb_256",
            scheme: "sbtb",
            geometry: "paper-256",
            mlbtb: None,
        },
        Point {
            key: "cbtb_256",
            scheme: "cbtb",
            geometry: "paper-256",
            mlbtb: None,
        },
        Point {
            key: "fs",
            scheme: "forward-semantic",
            geometry: "profile (bufferless)",
            mlbtb: None,
        },
        Point {
            key: "mlbtb_256",
            scheme: "mlbtb",
            geometry: "paper-256",
            mlbtb: Some(MlBtbConfig::paper()),
        },
        Point {
            key: "sbtb_64x4",
            scheme: "sbtb",
            geometry: "stressed-64x4",
            mlbtb: None,
        },
        Point {
            key: "cbtb_64x4",
            scheme: "cbtb",
            geometry: "stressed-64x4",
            mlbtb: None,
        },
        Point {
            key: "mlbtb_64x4_2048x8",
            scheme: "mlbtb",
            geometry: "stressed-64x4 + L2 2048x8",
            mlbtb: Some(MlBtbConfig::server()),
        },
        Point {
            key: "mlbtb_64x4_bare",
            scheme: "mlbtb",
            geometry: "stressed-64x4 (no L2)",
            mlbtb: Some(stressed_l1),
        },
    ]
}

/// Build the predictor for one point (FS needs the benchmark profile).
fn build(point: &Point, fs: &ForwardSemantic) -> Box<dyn BranchPredictor> {
    if let Some(cfg) = &point.mlbtb {
        return Box::new(MlBtb::new(cfg.clone()));
    }
    match point.key {
        "sbtb_256" => Box::new(Sbtb::paper()),
        "cbtb_256" => Box::new(Cbtb::paper()),
        "fs" => Box::new(fs.clone()),
        "sbtb_64x4" => Box::new(Sbtb::new(SbtbConfig {
            entries: 64,
            ways: 4,
        })),
        "cbtb_64x4" => Box::new(Cbtb::new(CbtbConfig {
            entries: 64,
            ways: 4,
            ..CbtbConfig::paper()
        })),
        other => panic!("unknown point `{other}`"),
    }
}

fn level_stats_json(stats: &MlBtbStats) -> JsonValue {
    JsonValue::obj(vec![
        (
            "levels",
            JsonValue::Arr(
                stats
                    .levels
                    .iter()
                    .map(|l| {
                        JsonValue::obj(vec![
                            ("hits", l.hits.into()),
                            ("misses", l.misses.into()),
                            ("fills", l.fills.into()),
                            ("evicts", l.evicts.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("promotions", stats.promotions.into()),
        ("demotions", stats.demotions.into()),
        ("dropped", stats.dropped.into()),
        ("latency_cycles", stats.latency_cycles.into()),
    ])
}

fn study_bench(bench: &Benchmark, config: &ExperimentConfig) -> (JsonValue, bool) {
    let name = bench.name;
    let profile =
        cached_profile(bench, config).unwrap_or_else(|e| panic!("{name}: profiling failed: {e}"));
    let fs = ForwardSemantic::from_profile(&profile.sites);
    let runs = captured_runs(bench, config)
        .unwrap_or_else(|e| panic!("{name}: trace capture failed: {e}"));
    let events: u64 = runs.iter().map(branchlab::trace::TraceBuf::events).sum();

    let specs = points();
    let preds = |fs: &ForwardSemantic| -> Vec<Box<dyn BranchPredictor>> {
        specs.iter().map(|p| build(p, fs)).collect()
    };
    let replayed = eval_predictors(bench, config, preds(&fs))
        .unwrap_or_else(|e| panic!("{name}: replay evaluation failed: {e}"));
    let live = eval_predictors_live(bench, config, preds(&fs))
        .unwrap_or_else(|e| panic!("{name}: live evaluation failed: {e}"));

    let moderate = FdipConfig::moderate();
    let deep = FdipConfig::deep();
    let mut all_match = true;
    let mut rows = Vec::new();
    for (i, point) in specs.iter().enumerate() {
        // FDIP pass on the warm trace: class tallies for the closed-form
        // penalty sweep, plus a third independent scoring of the same
        // predictor to crosscheck against replay and live.
        let mut sim = FdipSim::new(build(point, &fs));
        replay_runs(&runs, &mut sim)
            .unwrap_or_else(|e| panic!("{name}/{}: FDIP replay failed: {e}", point.key));
        let stats_match = replayed[i] == live[i] && *sim.stats() == replayed[i];
        all_match &= stats_match;

        let mut fields = vec![
            ("key", point.key.into()),
            ("scheme", point.scheme.into()),
            ("geometry", point.geometry.into()),
            ("stats_match", stats_match.into()),
            ("accuracy", replayed[i].accuracy().into()),
            ("miss_ratio", replayed[i].miss_ratio().into()),
            (
                "fdip",
                JsonValue::obj(vec![
                    ("prefetch_hits", sim.counts.prefetch_hits.into()),
                    ("sequential_hits", sim.counts.sequential_hits.into()),
                    ("redirects", sim.counts.redirects.into()),
                    ("misfetches", sim.counts.misfetches.into()),
                    ("cost_moderate", sim.counts.cost(&moderate).into()),
                    ("cost_deep", sim.counts.cost(&deep).into()),
                ]),
            ),
        ];
        // Multi-level points: replay once more on the concrete type to
        // expose the hierarchy counters the boxed pass erases.
        if let Some(cfg) = &point.mlbtb {
            let mut ml = FdipSim::new(MlBtb::new(cfg.clone()));
            replay_runs(&runs, &mut ml)
                .unwrap_or_else(|e| panic!("{name}/{}: mlbtb replay failed: {e}", point.key));
            fields.push(("mlbtb", level_stats_json(&ml.eval.predictor.stats())));
        }
        rows.push(JsonValue::obj(fields));
        eprintln!(
            "{name}/{}: accuracy {:.4}, fdip cost {:.3} (moderate) / {:.3} (deep), match: {stats_match}",
            point.key,
            replayed[i].accuracy(),
            sim.counts.cost(&moderate),
            sim.counts.cost(&deep),
        );
    }

    let report = JsonValue::obj(vec![
        ("name", name.into()),
        ("branch_sites", (bench.branch_sites() as u64).into()),
        ("footprint_class", bench.footprint_class().into()),
        ("events", events.into()),
        ("points", JsonValue::Arr(rows)),
    ]);
    (report, all_match)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let args = parse_args(argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(EXIT_USAGE);
    });
    let mut benches = Vec::new();
    let mut all_match = true;
    for bench in &args.benches {
        let (report, matched) = study_bench(bench, &args.config);
        benches.push(report);
        all_match &= matched;
    }
    let moderate = FdipConfig::moderate();
    let deep = FdipConfig::deep();
    let fdip_cfg = |c: &FdipConfig| {
        JsonValue::obj(vec![
            ("prefetch_hit", u64::from(c.prefetch_hit).into()),
            ("redirect", u64::from(c.redirect).into()),
            ("miss", u64::from(c.miss).into()),
        ])
    };
    let report = JsonValue::obj(vec![
        ("tool", "btb_bench".into()),
        ("scale", args.config.scale.name().into()),
        ("seed", args.config.seed.into()),
        ("stats_match", all_match.into()),
        (
            "fdip_penalties",
            JsonValue::obj(vec![
                ("moderate", fdip_cfg(&moderate)),
                ("deep", fdip_cfg(&deep)),
            ]),
        ),
        ("benches", JsonValue::Arr(benches)),
    ]);
    std::fs::write(&args.out, report.to_json_pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {} failed: {e}", args.out.display()));
    eprintln!("btb_bench: wrote {}", args.out.display());
    if !all_match {
        eprintln!("btb_bench: MISMATCH between replayed, live, and FDIP-scored stats");
        std::process::exit(1);
    }
}
