//! # branchlab-bench
//!
//! The benchmark harness: one binary per paper artifact —
//! `table1` … `table5`, `fig3`, `fig4`, an `ablation` binary for the
//! extension studies, and a `report` binary that regenerates everything
//! in one run (used to produce EXPERIMENTS.md). Std-only timing benches
//! (under `benches/`) cover the interpreter, the predictors, and the
//! Forward Semantic transform.
//!
//! Every binary accepts:
//!
//! * `--scale test|small|paper` (default `small`)
//! * `--seed N` (default 1989)
//! * `--markdown` / `--csv` output formats (default fixed-width text)
//! * `--telemetry-out DIR` — write a run manifest (`manifest.json`)
//!   plus metrics snapshots (`metrics.jsonl`, `metrics.prom`) with
//!   per-benchmark phase timings and per-site predictor counters
//! * `--trace-cache DIR` — persist captured branch traces on disk
//!   (hash-validated; stale or corrupt entries degrade to re-capture)
//! * `--no-trace-replay` — re-interpret every sweep point instead of
//!   replaying captured traces (the slow baseline)
//! * `--sweep-threads N` — score sweep points on N worker threads
//!   (default: the machine's available parallelism); results are
//!   bit-identical at any thread count
//! * `--trace-out FILE` — write the run's per-benchmark phase
//!   timelines as Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`); off by default, so benchmark numbers are
//!   never perturbed by tracing

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use branchlab::experiments::figures::{ascii_plot, figure3, figure4, SchemeAccuracies};
use branchlab::experiments::{
    run_suite_supervised, tables, BenchResult, ExperimentConfig, SuiteResult, SupervisorConfig,
    Table, LANE_COUNTERS, SWEEP_COUNTERS, TRACE_COUNTERS,
};
use branchlab::predict::PredStats;
use branchlab::telemetry::manifest::BenchmarkRecord;
use branchlab::telemetry::{JsonValue, MetricsRegistry, PhaseSpan, RunManifest};
use branchlab::workloads::Scale;

pub mod timing;

/// Sites listed in the manifest's per-predictor top-mispredicted table.
pub const MANIFEST_TOP_K_SITES: usize = 10;

/// Output format selected on the command line.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Format {
    /// Fixed-width text (default).
    Text,
    /// GitHub-flavored markdown.
    Markdown,
    /// Comma-separated values.
    Csv,
}

/// Parsed command-line options shared by all bench binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Experiment configuration (scale, seed, fault injection, …).
    pub config: ExperimentConfig,
    /// Supervision policy (retries, watchdog, checkpoint/resume).
    pub supervisor: SupervisorConfig,
    /// Output format.
    pub format: Format,
    /// Directory for the run manifest and metrics snapshots; also turns
    /// on per-site predictor telemetry.
    pub telemetry_out: Option<PathBuf>,
    /// File for the run's Chrome trace-event export (phase timelines
    /// per benchmark; `None` disables the export).
    pub trace_out: Option<PathBuf>,
}

const USAGE: &str =
    "usage: [--scale test|small|paper] [--seed N] [--markdown|--csv] [--no-verify] \
[--telemetry-out DIR] [--trace-out FILE] [--trace-cache DIR] [--no-trace-replay] \
[--sweep-threads N] \
[--max-attempts N] \
[--backoff-ms N] [--watchdog-ms N] [--checkpoint FILE] [--resume] [--fault-exec-rate R] \
[--fault-panic-rate R] [--fault-delay-rate R] [--fault-delay-ms N] [--fault-seed N] \
[--fault-benches A,B,...]";

impl Options {
    /// Parse `std::env::args`.
    ///
    /// # Panics
    /// Panics with a usage message on unknown arguments.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (everything after the binary
    /// name).
    ///
    /// # Panics
    /// Panics with a usage message on unknown arguments.
    #[must_use]
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut config = ExperimentConfig::default();
        let mut supervisor = SupervisorConfig::default();
        let mut format = Format::Text;
        let mut telemetry_out = None;
        let mut trace_out = None;
        let mut args = args.into_iter();
        let next_u64 = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
            args.next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs an integer"))
        };
        let next_rate = |args: &mut dyn Iterator<Item = String>, flag: &str| -> f64 {
            let r: f64 = args
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs a rate in [0, 1]"));
            assert!((0.0..=1.0).contains(&r), "{flag} needs a rate in [0, 1]");
            r
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = args.next().unwrap_or_default();
                    config.scale = match v.as_str() {
                        "test" => Scale::Test,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => panic!("unknown scale `{other}` (test|small|paper)"),
                    };
                }
                "--seed" => config.seed = next_u64(&mut args, "--seed"),
                "--markdown" => format = Format::Markdown,
                "--csv" => format = Format::Csv,
                "--no-verify" => config.verify_equivalence = false,
                "--telemetry-out" => {
                    let dir = args.next().expect("--telemetry-out needs a directory");
                    config.collect_site_telemetry = true;
                    telemetry_out = Some(PathBuf::from(dir));
                }
                "--trace-out" => {
                    let file = args.next().expect("--trace-out needs a file path");
                    trace_out = Some(PathBuf::from(file));
                }
                "--trace-cache" => {
                    let dir = args.next().expect("--trace-cache needs a directory");
                    config.trace_cache_dir = Some(PathBuf::from(dir));
                }
                "--no-trace-replay" => config.use_trace_replay = false,
                "--sweep-threads" => {
                    config.sweep_threads =
                        Some((next_u64(&mut args, "--sweep-threads") as usize).max(1));
                }
                "--max-attempts" => {
                    supervisor.max_attempts = next_u64(&mut args, "--max-attempts").max(1) as u32;
                }
                "--backoff-ms" => {
                    supervisor.backoff_base =
                        Duration::from_millis(next_u64(&mut args, "--backoff-ms"));
                }
                "--watchdog-ms" => {
                    supervisor.watchdog =
                        Some(Duration::from_millis(next_u64(&mut args, "--watchdog-ms")));
                }
                "--checkpoint" => {
                    let file = args.next().expect("--checkpoint needs a file path");
                    supervisor.checkpoint = Some(PathBuf::from(file));
                }
                "--resume" => supervisor.resume = true,
                "--fault-exec-rate" => {
                    config.fault.exec_error_rate = next_rate(&mut args, "--fault-exec-rate");
                }
                "--fault-panic-rate" => {
                    config.fault.panic_rate = next_rate(&mut args, "--fault-panic-rate");
                }
                "--fault-delay-rate" => {
                    config.fault.delay_rate = next_rate(&mut args, "--fault-delay-rate");
                }
                "--fault-delay-ms" => {
                    config.fault.delay =
                        Duration::from_millis(next_u64(&mut args, "--fault-delay-ms"));
                }
                "--fault-seed" => config.fault.seed = next_u64(&mut args, "--fault-seed"),
                "--fault-benches" => {
                    let list = args.next().expect("--fault-benches needs a comma list");
                    config.fault.benches =
                        list.split(',').map(str::trim).map(String::from).collect();
                }
                other => panic!("unknown argument `{other}`\n{USAGE}"),
            }
        }
        Options {
            config,
            supervisor,
            format,
            telemetry_out,
            trace_out,
        }
    }

    /// Render a table in the selected format.
    #[must_use]
    pub fn render(&self, table: &Table) -> String {
        match self.format {
            Format::Text => table.to_text(),
            Format::Markdown => table.to_markdown(),
            Format::Csv => table.to_csv(),
        }
    }
}

/// Process exit code for a suite with at least one failed benchmark.
pub const EXIT_PARTIAL: i32 = 1;

/// Run the full supervised suite with progress and failure diagnostics
/// to stderr. Never panics on benchmark failure: failed benches come
/// back as [`SuiteResult::failures`] records (check
/// [`SuiteResult::is_complete`], or let [`artifact_main`] turn them
/// into a non-zero exit).
#[must_use]
pub fn suite(options: &Options) -> SuiteResult {
    eprintln!(
        "running 12-benchmark suite (scale {:?}, seed {}) …",
        options.config.scale, options.config.seed
    );
    if options.config.fault.enabled() {
        eprintln!(
            "fault injection armed: exec {:.2} / panic {:.2} / delay {:.2} (seed {})",
            options.config.fault.exec_error_rate,
            options.config.fault.panic_rate,
            options.config.fault.delay_rate,
            options.config.fault.seed
        );
    }
    let start = std::time::Instant::now();
    let suite = run_suite_supervised(&options.config, &options.supervisor);
    let insts: u64 = suite.benches.iter().map(|b| b.stats.insts).sum();
    let sup = &suite.supervisor;
    eprintln!(
        "done in {:.1}s ({:.1}M dynamic instructions; {} completed, {} failed, {} resumed, {} retries)",
        start.elapsed().as_secs_f64(),
        insts as f64 / 1e6,
        sup.completed,
        sup.failed,
        sup.resumed,
        sup.retries,
    );
    for f in &suite.failures {
        eprintln!("  {f}");
    }
    suite
}

/// The shared main of every table/figure binary: parse the command
/// line, run the supervised suite, hand it to `emit` for rendering,
/// and — when `--telemetry-out` was given — write the run manifest and
/// metrics snapshots. Exits with [`EXIT_PARTIAL`] (after rendering the
/// partial tables and telemetry) when any benchmark failed.
///
/// # Panics
/// Panics on an unwritable telemetry directory (these binaries are
/// terminal tools); benchmark failures degrade instead of panicking.
pub fn artifact_main(tool: &str, emit: impl FnOnce(&Options, &SuiteResult)) {
    let options = Options::from_args();
    let suite = suite(&options);
    emit(&options, &suite);
    if let Some(dir) = &options.telemetry_out {
        let path = write_telemetry(tool, &options, &suite, dir)
            .unwrap_or_else(|e| panic!("writing telemetry to {} failed: {e}", dir.display()));
        eprintln!("telemetry manifest written to {}", path.display());
    }
    if let Some(path) = &options.trace_out {
        let chrome = suite_chrome_trace(tool, &suite, &options.config.metrics);
        std::fs::write(path, chrome.to_json_pretty())
            .unwrap_or_else(|e| panic!("writing Chrome trace to {} failed: {e}", path.display()));
        eprintln!("Chrome trace written to {}", path.display());
    }
    if !suite.is_complete() {
        eprintln!(
            "{tool}: partial results — {} of {} benchmarks failed",
            suite.failures.len(),
            suite.failures.len() + suite.benches.len()
        );
        std::process::exit(EXIT_PARTIAL);
    }
}

/// Everything `report` prints: Tables 1–5, the cost-growth and
/// average-accuracy lines, and Figures 3–4 with their ASCII plots.
#[must_use]
pub fn render_report(options: &Options, suite: &SuiteResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in [
        tables::table1(suite),
        tables::table2(suite),
        tables::table3(suite),
        tables::table4(suite),
        tables::table5(suite),
    ] {
        writeln!(out, "{}", options.render(&t)).expect("writing to a String");
    }
    let (s, c, f) = tables::cost_growth(suite);
    writeln!(
        out,
        "Cost growth k+l 2->3: SBTB {s:.1}%  CBTB {c:.1}%  FS {f:.1}%  (paper: 7.7/6.9/5.3)\n"
    )
    .expect("writing to a String");
    let acc = SchemeAccuracies::from_suite(suite);
    writeln!(
        out,
        "Average accuracies: SBTB {:.1}%  CBTB {:.1}%  FS {:.1}%  (paper: 91.5/92.4/93.5)\n",
        acc.sbtb * 100.0,
        acc.cbtb * 100.0,
        acc.fs * 100.0
    )
    .expect("writing to a String");
    for (panel, k) in figure3(&acc)
        .iter()
        .chain(&figure4(&acc))
        .zip([1u32, 2, 4, 8])
    {
        writeln!(out, "{}", options.render(panel)).expect("writing to a String");
        writeln!(out, "{}", ascii_plot(&acc, k, 12)).expect("writing to a String");
    }
    out
}

/// Render a suite run as a Chrome trace-event document: one process
/// row per benchmark (its compile/profile/evaluate phase timeline)
/// plus rows for the run's trace-replay and parallel-sweep phases,
/// from the counters in `registry`. Openable in Perfetto /
/// `chrome://tracing`.
#[must_use]
pub fn suite_chrome_trace(
    tool: &str,
    suite: &SuiteResult,
    registry: &MetricsRegistry,
) -> JsonValue {
    let mut groups: Vec<(String, Vec<PhaseSpan>)> = suite
        .benches
        .iter()
        .map(|b| (b.name.to_string(), b.phases.clone()))
        .collect();
    groups.push((
        "suite: trace replay".to_string(),
        trace_phase_spans(registry),
    ));
    groups.push((
        "suite: parallel sweep".to_string(),
        sweep_phase_spans(registry),
    ));
    branchlab::telemetry::phases_chrome_trace(tool, &groups)
}

/// The values of the counters `names` in `registry`, as a JSON object
/// keyed by each name's last dotted segment
/// (`suite.trace.captures` → `captures`).
#[must_use]
pub fn counters_json(registry: &MetricsRegistry, names: &[&str]) -> JsonValue {
    JsonValue::Obj(
        names
            .iter()
            .map(|name| {
                let key = name.rsplit('.').next().unwrap_or(name);
                (key.to_string(), registry.counter(name).get().into())
            })
            .collect(),
    )
}

fn counter_span(registry: &MetricsRegistry, name: &str, wall_us: &str, work: &str) -> PhaseSpan {
    PhaseSpan {
        name: name.to_string(),
        wall: Duration::from_micros(registry.counter(wall_us).get()),
        work: registry.counter(work).get(),
    }
}

/// The run's `trace_capture` (work = events captured) and
/// `trace_replay` (work = events replayed) phases, from its
/// `suite.trace.*` wall-clock counters.
#[must_use]
pub fn trace_phase_spans(registry: &MetricsRegistry) -> Vec<PhaseSpan> {
    vec![
        counter_span(
            registry,
            "trace_capture",
            "suite.trace.capture_us",
            "suite.trace.events_captured",
        ),
        counter_span(
            registry,
            "trace_replay",
            "suite.trace.replay_us",
            "suite.trace.events_replayed",
        ),
    ]
}

/// The run's `sweep_score` (aggregate worker time, work = points
/// scored) and `sweep_merge` (plan-order merge time, work = batches
/// merged) phases, from its `suite.sweep.parallel.*` counters.
#[must_use]
pub fn sweep_phase_spans(registry: &MetricsRegistry) -> Vec<PhaseSpan> {
    vec![
        counter_span(
            registry,
            "sweep_score",
            "suite.sweep.parallel.busy_us",
            "suite.sweep.parallel.points",
        ),
        counter_span(
            registry,
            "sweep_merge",
            "suite.sweep.parallel.merge_us",
            "suite.sweep.parallel.batches",
        ),
    ]
}

/// Prediction scoring as a JSON object for the manifest.
fn pred_json(stats: &PredStats) -> JsonValue {
    JsonValue::obj(vec![
        ("events", stats.events.into()),
        ("correct", stats.correct.into()),
        ("accuracy", stats.accuracy().into()),
        ("btb_lookups", stats.btb_lookups.into()),
        ("btb_misses", stats.btb_misses.into()),
        ("miss_ratio", stats.miss_ratio().into()),
    ])
}

/// Scoring plus per-site counters for one BTB scheme.
fn btb_json(stats: &PredStats, sites: &branchlab::telemetry::SiteProbe) -> JsonValue {
    JsonValue::obj(vec![
        ("stats", pred_json(stats)),
        ("sites", sites.to_json_value(MANIFEST_TOP_K_SITES)),
    ])
}

/// One benchmark's manifest record: phase spans plus per-predictor
/// summaries.
fn bench_record(b: &BenchResult) -> BenchmarkRecord {
    BenchmarkRecord {
        name: b.name.to_string(),
        phases: b.phases.clone(),
        predictors: vec![
            ("sbtb".into(), btb_json(&b.sbtb, &b.sbtb_sites)),
            ("cbtb".into(), btb_json(&b.cbtb, &b.cbtb_sites)),
            ("fs".into(), pred_json(&b.fs)),
            ("always_taken".into(), pred_json(&b.always_taken)),
            ("always_not_taken".into(), pred_json(&b.always_not_taken)),
            ("btfn".into(), pred_json(&b.btfn)),
        ],
    }
}

/// Write `manifest.json`, `metrics.jsonl`, and `metrics.prom` for a
/// suite run under `dir`. Returns the manifest path.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_telemetry(
    tool: &str,
    options: &Options,
    suite: &SuiteResult,
    dir: &std::path::Path,
) -> std::io::Result<PathBuf> {
    let mut manifest = RunManifest::new(tool);
    let cfg = &options.config;
    manifest.set_config("scale", format!("{:?}", cfg.scale).to_lowercase().as_str());
    manifest.set_config("seed", cfg.seed);
    manifest.set_config("fs_slots", u64::from(cfg.fs_slots));
    manifest.set_config("cbtb_strict", cfg.cbtb_strict);
    manifest.set_config("verify_equivalence", cfg.verify_equivalence);
    if cfg.fault.enabled() {
        manifest.set_config("fault_seed", cfg.fault.seed);
        manifest.set_config("fault_exec_rate", cfg.fault.exec_error_rate);
        manifest.set_config("fault_panic_rate", cfg.fault.panic_rate);
        manifest.set_config("fault_delay_rate", cfg.fault.delay_rate);
    }
    manifest.set_config("max_attempts", u64::from(options.supervisor.max_attempts));

    let registry = &cfg.metrics;
    for (name, value) in suite.supervisor.counters() {
        registry.counter(&format!("suite.{name}")).add(value);
    }
    manifest.set_section("trace", counters_json(registry, &TRACE_COUNTERS));
    let mut sweep_json = counters_json(registry, &SWEEP_COUNTERS);
    if let JsonValue::Obj(fields) = &mut sweep_json {
        fields.push((
            "configured_threads".to_string(),
            JsonValue::from(cfg.resolved_sweep_threads() as u64),
        ));
    }
    manifest.set_section("sweep_parallel", sweep_json);
    for span in sweep_phase_spans(registry) {
        registry
            .counter(&format!("suite.sweep.parallel.phase.{}.wall_us", span.name))
            .add(span.wall.as_micros().min(u128::from(u64::MAX)) as u64);
    }
    manifest.set_section("sweep_lanes", counters_json(registry, &LANE_COUNTERS));
    manifest.set_section(
        "supervisor",
        JsonValue::Obj(
            suite
                .supervisor
                .counters()
                .iter()
                .map(|(k, v)| ((*k).to_string(), JsonValue::from(*v)))
                .collect(),
        ),
    );
    manifest.set_section(
        "failures",
        JsonValue::Arr(
            suite
                .failures
                .iter()
                .map(|f| {
                    JsonValue::obj(vec![
                        ("bench", f.name.as_str().into()),
                        ("error", f.error.as_str().into()),
                        ("class", f.class.to_string().into()),
                        ("attempts", u64::from(f.attempts).into()),
                        ("elapsed_ms", (f.elapsed.as_millis() as u64).into()),
                    ])
                })
                .collect(),
        ),
    );
    for f in &suite.failures {
        registry.counter(&format!("bench.{}.failed", f.name)).inc();
        registry
            .counter(&format!("bench.{}.attempts", f.name))
            .add(u64::from(f.attempts));
    }
    for b in &suite.benches {
        manifest.push_benchmark(bench_record(b));
        b.stats.export(registry, &format!("bench.{}.exec", b.name));
        for (scheme, stats) in [("sbtb", &b.sbtb), ("cbtb", &b.cbtb), ("fs", &b.fs)] {
            let prefix = format!("bench.{}.{scheme}", b.name);
            registry
                .counter(&format!("{prefix}.events"))
                .add(stats.events);
            registry
                .counter(&format!("{prefix}.correct"))
                .add(stats.correct);
            registry
                .counter(&format!("{prefix}.mispredicts"))
                .add(stats.events - stats.correct);
        }
        for phase in &b.phases {
            registry
                .counter(&format!("bench.{}.phase.{}.wall_us", b.name, phase.name))
                .add(phase.wall.as_micros().min(u128::from(u64::MAX)) as u64);
        }
    }
    manifest.write_to(dir, Some(&registry.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_scale() {
        let o = Options::parse(Vec::new());
        assert_eq!(o.config.seed, 1989);
        assert!(matches!(o.config.scale, Scale::Small));
        assert!(o.telemetry_out.is_none());
        assert!(!o.config.collect_site_telemetry);
        assert!(!o.config.fault.enabled());
        assert_eq!(o.supervisor, SupervisorConfig::default());
    }

    #[test]
    fn supervisor_and_fault_flags_parse() {
        let o = Options::parse(
            [
                "--max-attempts",
                "5",
                "--backoff-ms",
                "7",
                "--watchdog-ms",
                "250",
                "--checkpoint",
                "/tmp/ck.jsonl",
                "--resume",
                "--fault-exec-rate",
                "0.25",
                "--fault-panic-rate",
                "0.5",
                "--fault-delay-rate",
                "1.0",
                "--fault-delay-ms",
                "9",
                "--fault-seed",
                "77",
                "--fault-benches",
                "wc, grep",
            ]
            .map(String::from),
        );
        assert_eq!(o.supervisor.max_attempts, 5);
        assert_eq!(o.supervisor.backoff_base, Duration::from_millis(7));
        assert_eq!(o.supervisor.watchdog, Some(Duration::from_millis(250)));
        assert_eq!(
            o.supervisor.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/ck.jsonl"))
        );
        assert!(o.supervisor.resume);
        let fault = &o.config.fault;
        assert!(fault.enabled());
        assert_eq!(fault.exec_error_rate, 0.25);
        assert_eq!(fault.panic_rate, 0.5);
        assert_eq!(fault.delay_rate, 1.0);
        assert_eq!(fault.delay, Duration::from_millis(9));
        assert_eq!(fault.seed, 77);
        assert_eq!(fault.benches, vec!["wc".to_string(), "grep".to_string()]);
    }

    #[test]
    #[should_panic(expected = "rate in [0, 1]")]
    fn out_of_range_rates_rejected() {
        let _ = Options::parse(["--fault-exec-rate".to_string(), "1.5".to_string()]);
    }

    #[test]
    fn all_flags_parse() {
        let o = Options::parse(
            [
                "--scale",
                "test",
                "--seed",
                "7",
                "--csv",
                "--no-verify",
                "--telemetry-out",
                "/tmp/t",
            ]
            .map(String::from),
        );
        assert!(matches!(o.config.scale, Scale::Test));
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.format, Format::Csv);
        assert!(!o.config.verify_equivalence);
        assert_eq!(
            o.telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
        assert!(
            o.config.collect_site_telemetry,
            "--telemetry-out enables site probes"
        );
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_rejected() {
        let _ = Options::parse(["--bogus".to_string()]);
    }

    #[test]
    fn sweep_threads_flag_parses_and_clamps() {
        let o = Options::parse(Vec::new());
        assert!(
            o.config.sweep_threads.is_none(),
            "default defers to the core count"
        );
        let o = Options::parse(["--sweep-threads", "6"].map(String::from));
        assert_eq!(o.config.sweep_threads, Some(6));
        assert_eq!(o.config.resolved_sweep_threads(), 6);
        let o = Options::parse(["--sweep-threads", "0"].map(String::from));
        assert_eq!(o.config.sweep_threads, Some(1), "0 clamps to serial");
    }

    #[test]
    fn trace_flags_parse() {
        let o = Options::parse(Vec::new());
        assert!(o.config.use_trace_replay, "replay is the default");
        assert!(o.config.trace_cache_dir.is_none());
        let o =
            Options::parse(["--trace-cache", "/tmp/traces", "--no-trace-replay"].map(String::from));
        assert!(!o.config.use_trace_replay);
        assert_eq!(
            o.config.trace_cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/traces"))
        );
    }

    #[test]
    fn trace_out_flag_parses_and_defaults_off() {
        let o = Options::parse(Vec::new());
        assert!(o.trace_out.is_none(), "tracing export is opt-in");
        let o = Options::parse(["--trace-out", "/tmp/run.trace.json"].map(String::from));
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/run.trace.json"))
        );
    }

    #[test]
    fn counters_json_keys_by_last_segment() {
        let reg = MetricsRegistry::new();
        reg.counter("suite.trace.captures").add(3);
        let json = counters_json(&reg, &TRACE_COUNTERS);
        assert_eq!(json.get("captures").and_then(JsonValue::as_int), Some(3));
        assert_eq!(
            json.get("profile_hits").and_then(JsonValue::as_int),
            Some(0)
        );
        let JsonValue::Obj(fields) = json else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), TRACE_COUNTERS.len());
    }

    #[test]
    fn phase_spans_come_from_the_run_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("suite.trace.replay_us").add(15);
        reg.counter("suite.trace.events_replayed").add(40);
        reg.counter("suite.sweep.parallel.points").add(72);
        reg.counter("suite.sweep.parallel.merge_us").add(10);
        let trace = trace_phase_spans(&reg);
        assert_eq!(trace[0].name, "trace_capture");
        assert_eq!(trace[1].name, "trace_replay");
        assert_eq!(trace[1].wall, Duration::from_micros(15));
        assert_eq!(trace[1].work, 40);
        let sweep = sweep_phase_spans(&reg);
        assert_eq!(sweep[0].name, "sweep_score");
        assert_eq!(sweep[0].work, 72);
        assert_eq!(sweep[1].name, "sweep_merge");
        assert_eq!(sweep[1].wall, Duration::from_micros(10));
    }

    #[test]
    fn write_telemetry_reports_the_run_registry() {
        let options = Options::parse(["--scale", "test", "--sweep-threads", "3"].map(String::from));
        options
            .config
            .metrics
            .counter("suite.trace.captures")
            .add(2);
        options
            .config
            .metrics
            .counter("suite.sweep.lane.families")
            .add(5);
        let dir = std::env::temp_dir().join(format!("branchlab-telemetry-{}", std::process::id()));
        let suite = SuiteResult::from_benches(Vec::new());
        let path = write_telemetry("test", &options, &suite, &dir).unwrap();
        let manifest =
            branchlab::telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let section = |name: &str, key: &str| {
            manifest
                .get(name)
                .and_then(|s| s.get(key))
                .and_then(JsonValue::as_int)
        };
        assert_eq!(section("trace", "captures"), Some(2));
        assert_eq!(section("sweep_lanes", "families"), Some(5));
        assert_eq!(section("sweep_parallel", "sweeps"), Some(0));
        assert_eq!(section("sweep_parallel", "configured_threads"), Some(3));
        let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        for name in TRACE_COUNTERS
            .iter()
            .chain(&SWEEP_COUNTERS)
            .chain(&LANE_COUNTERS)
        {
            assert!(jsonl.contains(&format!("\"{name}\"")), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_selects_format() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let mut o = Options::parse(Vec::new());
        o.format = Format::Csv;
        assert!(o.render(&t).starts_with("a\n"));
        o.format = Format::Markdown;
        assert!(o.render(&t).contains("| a |"));
    }
}
