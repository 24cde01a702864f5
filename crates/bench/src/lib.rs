//! # branchlab-bench
//!
//! The benchmark harness: one binary per paper artifact —
//! `table1` … `table5`, `fig3`, `fig4`, an `ablation` binary for the
//! extension studies, and a `report` binary that regenerates everything
//! in one run (used to produce EXPERIMENTS.md).
//!
//! Every binary accepts:
//!
//! * `-h` / `--help` — print the usage line and exit
//! * `--scale test|small|paper` (default `small`)
//! * `--seed N` (default 1989)
//! * `--markdown` / `--csv` output formats (default fixed-width text)
//! * `--trace-out FILE` — write the run's traces as Chrome trace-event
//!   JSON (open in Perfetto or `chrome://tracing`): one row per
//!   benchmark, a root span over its phases, placed at the wall-clock
//!   time it ran, so benchmarks that ran concurrently overlap; off by
//!   default
//!
//! The paper-suite binaries (tables, figures, `report`; [`USAGE`]) also
//! take `--telemetry-out DIR` — write a run manifest (`manifest.json`)
//! plus metrics snapshots (`metrics.jsonl`, `metrics.prom`) with
//! per-benchmark phase timings and per-site predictor counters — and
//! the verification, supervision and fault-injection flags. `ablation`
//! ([`ABLATION_USAGE`]) instead takes the flags that steer its trace
//! replay:
//!
//! * `--trace-cache DIR` — persist captured branch traces on disk
//!   (hash-validated; stale or corrupt entries degrade to re-capture)
//! * `--sweep-threads N` — score sweep points on N worker threads
//!   (default: the machine's available parallelism); results are
//!   bit-identical at any thread count

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use branchlab::experiments::figures::{ascii_plot, figure3, figure4, SchemeAccuracies};
use branchlab::experiments::{
    run_suite_supervised, tables, BenchResult, ExperimentConfig, SuiteResult, SupervisorConfig,
    Table,
};
use branchlab::predict::PredStats;
use branchlab::telemetry::manifest::BenchmarkRecord;
use branchlab::telemetry::{chrome_trace, JsonValue, RequestTrace, RunManifest};
use branchlab::workloads::Scale;

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
    /// Supervision policy (retries, watchdog).
    pub supervisor: SupervisorConfig,
    /// Output format.
    pub format: Format,
    /// Directory for the run manifest and metrics snapshots.
    pub telemetry_out: Option<PathBuf>,
    /// File for the run's Chrome trace-event export (`None` disables
    /// the export).
    pub trace_out: Option<PathBuf>,
}

/// The paper-suite binaries' command line (tables, figures, `report`),
/// listing [`PAPER_FLAGS`]; `-h` or `--help` prints it. The suite
/// never replays a trace or runs a sweep, so `--trace-cache` and
/// `--sweep-threads` are unknown arguments here.
pub const USAGE: &str =
    "usage: [-h|--help] [--scale test|small|paper] [--seed N] [--markdown|--csv] [--no-verify] \
[--telemetry-out DIR] [--trace-out FILE] \
[--max-attempts N] \
[--backoff-ms N] [--watchdog-ms N] [--fault-exec-rate R] \
[--fault-panic-rate R] [--fault-delay-rate R] [--fault-delay-ms N] [--fault-seed N] \
[--fault-benches A,B,...]";

/// The flags [`USAGE`] lists, `-h`/`--help` aside.
pub const PAPER_FLAGS: [&str; 16] = [
    "--scale",
    "--seed",
    "--markdown",
    "--csv",
    "--no-verify",
    "--telemetry-out",
    "--trace-out",
    "--max-attempts",
    "--backoff-ms",
    "--watchdog-ms",
    "--fault-exec-rate",
    "--fault-panic-rate",
    "--fault-delay-rate",
    "--fault-delay-ms",
    "--fault-seed",
    "--fault-benches",
];

/// `ablation`'s command line, listing [`ABLATION_FLAGS`]: the output
/// flags plus those that steer its trace replay and sweeps. The paper
/// suite's (`--telemetry-out`, `--no-verify`, supervision and fault
/// injection) act on the supervised suite, which `ablation` does not
/// run, so there they are unknown arguments.
pub const ABLATION_USAGE: &str =
    "usage: ablation [-h|--help] [--scale test|small|paper] [--seed N] \
[--markdown|--csv] [--trace-out FILE] [--trace-cache DIR] [--sweep-threads N]";

/// The flags [`ABLATION_USAGE`] lists, `-h`/`--help` aside.
pub const ABLATION_FLAGS: [&str; 7] = [
    "--scale",
    "--seed",
    "--markdown",
    "--csv",
    "--trace-out",
    "--trace-cache",
    "--sweep-threads",
];

/// Process exit code for a command line [`Options::parse`] rejects.
pub const EXIT_USAGE: i32 = 2;

impl Options {
    /// Parse `std::env::args` against [`USAGE`]; see
    /// [`Options::from_args_for`].
    #[must_use]
    pub fn from_args() -> Self {
        Self::from_args_for(USAGE, &PAPER_FLAGS)
    }

    /// Parse `std::env::args` for a binary whose command line is
    /// `usage` and which takes only the flags in `honoured`. With `-h`
    /// or `--help` among them, print `usage` to stdout and exit 0
    /// before parsing anything; on a bad command line, print the error
    /// and `usage` to stderr and exit [`EXIT_USAGE`].
    #[must_use]
    pub fn from_args_for(usage: &str, honoured: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "-h" || a == "--help") {
            println!("{usage}");
            std::process::exit(0);
        }
        Self::parse_for(args, honoured).unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(EXIT_USAGE);
        })
    }

    /// Parse an explicit paper-suite argument list (everything after
    /// the binary name) against [`PAPER_FLAGS`].
    ///
    /// # Errors
    /// Names the offending argument: an unknown flag, a flag with no
    /// value, or a value out of range.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        Self::parse_for(args, &PAPER_FLAGS)
    }

    /// [`Options::parse`], with every flag outside `honoured` an
    /// unknown argument.
    fn parse_for(
        args: impl IntoIterator<Item = String>,
        honoured: &[&str],
    ) -> Result<Self, String> {
        let mut config = ExperimentConfig::default();
        let mut supervisor = SupervisorConfig::default();
        let mut format = Format::Text;
        let mut telemetry_out = None;
        let mut trace_out = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !honoured.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            let int = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag} needs an integer, not `{v}`"))
            };
            let rate = |v: String| {
                v.parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| format!("{flag} needs a rate in [0, 1], not `{v}`"))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    config.scale = Scale::from_name(&v)
                        .ok_or_else(|| format!("unknown scale `{v}` (test|small|paper)"))?;
                }
                "--seed" => config.seed = int(value()?)?,
                "--markdown" => format = Format::Markdown,
                "--csv" => format = Format::Csv,
                "--no-verify" => config.verify_equivalence = false,
                "--telemetry-out" => telemetry_out = Some(PathBuf::from(value()?)),
                "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
                "--trace-cache" => config.trace_cache_dir = Some(PathBuf::from(value()?)),
                "--sweep-threads" => config.sweep_threads = Some((int(value()?)? as usize).max(1)),
                "--max-attempts" => supervisor.max_attempts = int(value()?)?.max(1) as u32,
                "--backoff-ms" => supervisor.backoff_base = Duration::from_millis(int(value()?)?),
                "--watchdog-ms" => {
                    supervisor.watchdog = Some(Duration::from_millis(int(value()?)?));
                }
                "--fault-exec-rate" => config.fault.exec_error_rate = rate(value()?)?,
                "--fault-panic-rate" => config.fault.panic_rate = rate(value()?)?,
                "--fault-delay-rate" => config.fault.delay_rate = rate(value()?)?,
                "--fault-delay-ms" => config.fault.delay = Duration::from_millis(int(value()?)?),
                "--fault-seed" => config.fault.seed = int(value()?)?,
                "--fault-benches" => {
                    config.fault.benches = value()?
                        .split(',')
                        .map(str::trim)
                        .map(String::from)
                        .collect();
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Options {
            config,
            supervisor,
            format,
            telemetry_out,
            trace_out,
        })
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
        "done in {:.1}s ({:.1}M dynamic instructions; {} completed, {} failed, {} retries)",
        start.elapsed().as_secs_f64(),
        insts as f64 / 1e6,
        sup.completed,
        sup.failed,
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
        let traces: Vec<_> = suite
            .benches
            .iter()
            .map(|b| Arc::new(b.phases.clone()))
            .collect();
        write_chrome_trace(tool, path, &traces);
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

/// Write `traces` to `path` as a Chrome trace-event document
/// (openable in Perfetto / `chrome://tracing`).
///
/// # Panics
/// Panics on an unwritable `path`, like the rest of the bench
/// binaries' outputs.
pub fn write_chrome_trace(tool: &str, path: &Path, traces: &[Arc<RequestTrace>]) {
    std::fs::write(path, chrome_trace(traces).to_json_pretty())
        .unwrap_or_else(|e| panic!("writing Chrome trace to {} failed: {e}", path.display()));
    eprintln!("{tool}: Chrome trace written to {}", path.display());
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

/// One benchmark's manifest record: its trace's spans plus
/// per-predictor summaries.
fn bench_record(b: &BenchResult) -> BenchmarkRecord {
    BenchmarkRecord {
        name: b.name.to_string(),
        phases: b.phases.spans.clone(),
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
    dir: &Path,
) -> std::io::Result<PathBuf> {
    let mut manifest = RunManifest::new(tool);
    let cfg = &options.config;
    manifest.set_config("scale", cfg.scale.name());
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
    }
    manifest.write_to(dir, Some(&registry.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_small_scale() {
        let o = Options::parse(Vec::new()).unwrap();
        assert_eq!(o.config.seed, 1989);
        assert!(matches!(o.config.scale, Scale::Small));
        assert!(o.telemetry_out.is_none());
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
        )
        .unwrap();
        assert_eq!(o.supervisor.max_attempts, 5);
        assert_eq!(o.supervisor.backoff_base, Duration::from_millis(7));
        assert_eq!(o.supervisor.watchdog, Some(Duration::from_millis(250)));
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
        Options::parse(["--fault-exec-rate", "1.5"].map(String::from)).unwrap();
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
        )
        .unwrap();
        assert!(matches!(o.config.scale, Scale::Test));
        assert_eq!(o.config.seed, 7);
        assert_eq!(o.format, Format::Csv);
        assert!(!o.config.verify_equivalence);
        assert_eq!(
            o.telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/t"))
        );
    }

    #[test]
    #[should_panic(expected = "unknown argument `--bogus`")]
    fn unknown_flag_rejected() {
        Options::parse(["--bogus".to_string()]).unwrap();
    }

    fn parse_err(args: &[&str]) -> String {
        Options::parse(args.iter().map(|a| a.to_string())).unwrap_err()
    }

    #[test]
    fn retired_checkpoint_flags_are_errors() {
        assert!(parse_err(&["--checkpoint", "x"]).contains("unknown argument `--checkpoint`"));
        assert!(parse_err(&["--resume"]).contains("unknown argument `--resume`"));
    }

    #[test]
    fn flags_missing_their_value_are_errors() {
        for flag in ["--scale", "--seed", "--telemetry-out", "--fault-benches"] {
            assert_eq!(parse_err(&[flag]), format!("{flag} needs a value"));
        }
        assert!(parse_err(&["--seed", "abc"]).contains("--seed needs an integer"));
    }

    fn parse_ablation(args: &[&str]) -> Options {
        Options::parse_for(args.iter().map(|a| a.to_string()), &ABLATION_FLAGS).unwrap()
    }

    #[test]
    fn sweep_threads_flag_parses_and_clamps() {
        let o = parse_ablation(&[]);
        assert!(
            o.config.sweep_threads.is_none(),
            "default defers to the core count"
        );
        let o = parse_ablation(&["--sweep-threads", "6"]);
        assert_eq!(o.config.sweep_threads, Some(6));
        assert_eq!(o.config.resolved_sweep_threads(), 6);
        let o = parse_ablation(&["--sweep-threads", "0"]);
        assert_eq!(o.config.sweep_threads, Some(1), "0 clamps to serial");
        // The paper suite runs no sweep.
        assert_eq!(
            parse_err(&["--sweep-threads", "2"]),
            "unknown argument `--sweep-threads`"
        );
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse_ablation(&[]);
        assert!(o.config.trace_cache_dir.is_none());
        let o = parse_ablation(&["--trace-cache", "/tmp/traces"]);
        assert_eq!(
            o.config.trace_cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/traces"))
        );
        // The paper suite captures no trace.
        assert_eq!(
            parse_err(&["--trace-cache", "/tmp/traces"]),
            "unknown argument `--trace-cache`"
        );
    }

    #[test]
    fn trace_out_flag_parses_and_defaults_off() {
        let o = Options::parse(Vec::new()).unwrap();
        assert!(o.trace_out.is_none(), "tracing export is opt-in");
        let o = Options::parse(["--trace-out", "/tmp/run.trace.json"].map(String::from)).unwrap();
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/run.trace.json"))
        );
    }

    #[test]
    fn write_telemetry_reports_the_run_registry() {
        let options = Options::parse(["--scale", "test"].map(String::from)).unwrap();
        let registry = &options.config.metrics;
        registry.counter("suite.trace.captures").add(2);
        registry.counter("suite.sweep.lane.families").add(5);
        let dir = std::env::temp_dir().join(format!("branchlab-telemetry-{}", std::process::id()));
        let suite = SuiteResult::from_benches(Vec::new());
        let path = write_telemetry("test", &options, &suite, &dir).unwrap();
        let manifest =
            branchlab::telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            manifest
                .get("supervisor")
                .and_then(|s| s.get("benches_completed"))
                .and_then(JsonValue::as_int),
            Some(0)
        );
        // The paper suite neither replays nor sweeps: the manifest has
        // no sections for it, and metrics.jsonl holds what the run's
        // registry counted.
        for section in ["trace", "sweep_parallel", "sweep_lanes"] {
            assert!(manifest.get(section).is_none(), "{section}");
        }
        let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        for name in ["suite.trace.captures", "suite.sweep.lane.families"] {
            assert!(jsonl.contains(&format!("\"{name}\"")), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_selects_format() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into()]);
        let mut o = Options::parse(Vec::new()).unwrap();
        o.format = Format::Csv;
        assert!(o.render(&t).starts_with("a\n"));
        o.format = Format::Markdown;
        assert!(o.render(&t).contains("| a |"));
    }
}
