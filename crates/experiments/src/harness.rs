//! The end-to-end experiment pipeline: compile → lower → evaluate the
//! conventional binary → derive the profile from that same pass →
//! transform → evaluate the Forward Semantic binary, over every
//! benchmark, in a single interpreter pass per run per layout.
//!
//! Every stage of [`run_benchmark`] runs inside a telemetry span, so
//! each [`BenchResult`] carries a per-phase wall-clock (and work-count)
//! breakdown; with [`ExperimentConfig::collect_site_telemetry`] set,
//! the SBTB/CBTB per-branch-site hit/miss/evict/alias/mispredict
//! counters are published as [`SiteProbe`]s.

use std::sync::Arc;

use branchlab_fsem::{code_expansion, fs_program, ExpansionPoint, FsConfig};
use branchlab_interp::{run, ErrorClass, ExecConfig, ExecError, ExecStats};
use branchlab_ir::{lower, LowerError, Program};
use branchlab_minic::CompileError;
use branchlab_predict::{
    BranchPredictor, CbtbConfig, Evaluator, NaturalPass, PredStats, SbtbConfig, SiteOutcomes,
};
use branchlab_profile::{Profile, ProfileError};
use branchlab_telemetry::{MetricsRegistry, PhaseSpan, SiteProbe, Timeline};
use branchlab_trace::{BranchEvent, BranchMix, ExecHooks};
use branchlab_workloads::{Benchmark, Scale};

use crate::fault::{FaultConfig, FaultInjector};
use crate::supervisor::{run_suite_supervised, BenchFailure, SupervisorConfig, SupervisorStats};

/// The phases every [`BenchResult`] reports, in pipeline order.
pub const PHASES: [&str; 7] = [
    "compile",
    "lower",
    "natural_eval",
    "profile",
    "fs_build",
    "fs_eval",
    "expansion",
];

/// Experiment-wide knobs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Input scale for every benchmark.
    pub scale: Scale,
    /// Master seed for input generation.
    pub seed: u64,
    /// Forward slots (k + ℓ) used when building the FS binary whose
    /// dynamic accuracy is measured. Accuracy is insensitive to this;
    /// Table 5 sweeps its own depths.
    pub fs_slots: u16,
    /// Instruction budget per run (guards against runaway inputs).
    pub max_insts_per_run: u64,
    /// Cross-check that the FS binary produces byte-identical outputs to
    /// the conventional binary on every run.
    pub verify_equivalence: bool,
    /// Use the paper's literal "predicted taken when C > T" counter rule
    /// (see DESIGN.md); `false` selects the Smith-style `C ≥ T` reading.
    pub cbtb_strict: bool,
    /// Report per-branch-site BTB telemetry (hits, misses, evictions,
    /// aliases, mispredicts) in [`BenchResult::sbtb_sites`] and
    /// [`BenchResult::cbtb_sites`]. The natural pass keeps these
    /// counters per pc either way and the flag only decides whether
    /// they are published, so it costs no evaluation throughput: at
    /// scale small on 2 cores the suite's `natural_eval` phases summed
    /// to 1.9–2.5 s with it off and 2.0–2.6 s with it on (6 runs each).
    /// Off by default, since only telemetry exports read the probes.
    pub collect_site_telemetry: bool,
    /// Interpreter data memory in words (globals + frame stack); small
    /// values surface `MemoryTooSmall`/`StackOverflow` through the
    /// harness, which the robustness tests rely on.
    pub memory_words: usize,
    /// Interpreter call-depth limit.
    pub max_call_depth: usize,
    /// Deterministic fault injection (disabled by default).
    pub fault: FaultConfig,
    /// Feed sweep-style evaluations ([`eval_predictors`] and the
    /// ablation studies) from captured traces instead of
    /// re-interpreting every configuration point. Replay is
    /// bit-identical to live interpretation (enforced by test); turn
    /// off only to measure the re-interpretation baseline.
    pub use_trace_replay: bool,
    /// Directory for the on-disk trace cache (`--trace-cache DIR`);
    /// `None` keeps traces in memory only.
    pub trace_cache_dir: Option<std::path::PathBuf>,
    /// With `use_trace_replay` off, run one full compile→profile→interpret
    /// pipeline per sweep configuration point in [`SweepBatch`]-driven
    /// studies, instead of amortizing a study's points into one live
    /// pass. This is the O(points × interpret) re-interpretation
    /// methodology that trace-driven replay replaces; `replay_bench`
    /// uses it as the measured baseline. No effect on results — every
    /// evaluation mode is bit-identical.
    ///
    /// [`SweepBatch`]: crate::batch::SweepBatch
    pub sweep_per_point: bool,
    /// Worker threads for parallel sweep scoring in [`SweepBatch`]-driven
    /// studies (`--sweep-threads N`). `None` uses
    /// `available_parallelism`; an explicit value may exceed the core
    /// count (useful for scheduling experiments). Results are
    /// bit-identical at every thread count — each sweep point consumes
    /// the complete event stream in capture order regardless of which
    /// worker scores it.
    ///
    /// [`SweepBatch`]: crate::batch::SweepBatch
    pub sweep_threads: Option<usize>,
    /// Let [`SweepBatch`](crate::SweepBatch) pack compatible sweep
    /// points into bit-parallel lane families
    /// ([`LaneFamily`](branchlab_predict::LaneFamily)) during replay
    /// scoring. On by default; results are bit-identical either way,
    /// so turning it off only serves as the scalar baseline for
    /// `replay_bench`'s lane phase.
    pub use_lane_scoring: bool,
    /// The run's registry: trace capture/replay, parallel-sweep and
    /// lane-planner counters (`suite.trace.*`, `suite.sweep.parallel.*`,
    /// `suite.sweep.lane.*`) accumulate here. Clones share it, so a
    /// run and every config derived from it count into one place; a
    /// default config gets a fresh, empty registry. It records what
    /// the run did and never changes what it does.
    pub metrics: Arc<MetricsRegistry>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let exec = ExecConfig::default();
        ExperimentConfig {
            scale: Scale::Small,
            seed: 1989,
            fs_slots: 2,
            max_insts_per_run: 2_000_000_000,
            verify_equivalence: true,
            cbtb_strict: true,
            collect_site_telemetry: false,
            memory_words: exec.memory_words,
            max_call_depth: exec.max_call_depth,
            fault: FaultConfig::default(),
            use_trace_replay: true,
            trace_cache_dir: None,
            sweep_per_point: false,
            sweep_threads: None,
            use_lane_scoring: true,
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests.
    #[must_use]
    pub fn test() -> Self {
        ExperimentConfig {
            scale: Scale::Test,
            ..ExperimentConfig::default()
        }
    }

    /// The effective sweep worker count: [`ExperimentConfig::sweep_threads`]
    /// if set, else `available_parallelism`. Always at least 1. Only the
    /// automatic fallback is capped by the machine's core count; an
    /// explicit request is honored as given.
    #[must_use]
    pub fn resolved_sweep_threads(&self) -> usize {
        if let Some(n) = self.sweep_threads {
            return n.max(1);
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    pub(crate) fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            max_insts: self.max_insts_per_run,
            memory_words: self.memory_words,
            max_call_depth: self.max_call_depth,
        }
    }
}

/// Everything measured for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Static source lines (Table 1 *Lines* analogue).
    pub source_lines: usize,
    /// Number of input runs (Table 1 *Runs*).
    pub runs: usize,
    /// Dynamic statistics accumulated over all runs on the conventional
    /// layout (Table 1 *Inst.* / *Control*).
    pub stats: ExecStats,
    /// Taken/not-taken and known/unknown mixes (Table 2).
    pub mix: BranchMix,
    /// SBTB scoring (Table 3 ρ, A).
    pub sbtb: PredStats,
    /// CBTB scoring (Table 3 ρ, A).
    pub cbtb: PredStats,
    /// Forward Semantic scoring, measured on the FS binary (Table 3 A).
    pub fs: PredStats,
    /// Always-taken baseline (related-work ablation).
    pub always_taken: PredStats,
    /// Always-not-taken baseline.
    pub always_not_taken: PredStats,
    /// Backward-taken/forward-not-taken baseline.
    pub btfn: PredStats,
    /// Code expansion at k + ℓ ∈ {1, 2, 4, 8} (Table 5).
    pub expansion: Vec<ExpansionPoint>,
    /// Wall-clock/work breakdown of the pipeline stages, one span per
    /// entry of [`PHASES`] (plus interpreter sub-spans in run order).
    pub phases: Vec<PhaseSpan>,
    /// Per-branch-site SBTB telemetry (empty unless
    /// [`ExperimentConfig::collect_site_telemetry`] was set).
    pub sbtb_sites: SiteProbe,
    /// Per-branch-site CBTB telemetry (empty unless
    /// [`ExperimentConfig::collect_site_telemetry`] was set).
    pub cbtb_sites: SiteProbe,
}

impl BenchResult {
    /// The recorded wall-clock duration of `phase`, if present.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Errors from the experiment pipeline.
#[derive(Debug)]
pub enum ExperimentError {
    /// A benchmark failed to compile (would be a bug in the suite).
    Compile(CompileError),
    /// Lowering failed.
    Lower(LowerError),
    /// Profiling failed.
    Profile(ProfileError),
    /// An evaluation run failed.
    Exec(ExecError),
    /// The FS binary diverged from the conventional binary.
    EquivalenceViolation {
        /// Benchmark name.
        bench: &'static str,
        /// Which run diverged.
        run: usize,
    },
    /// The benchmark thread panicked; the supervisor caught the unwind
    /// and captured the payload.
    Panic(String),
    /// The watchdog deadline elapsed before the benchmark finished.
    Timeout {
        /// The configured deadline.
        limit: std::time::Duration,
    },
    /// A captured trace failed to replay (malformed buffer). Only
    /// reachable through cache corruption that slipped past the
    /// checksum, and deterministic given the bytes — permanent.
    Trace(String),
}

impl ExperimentError {
    /// Transient/permanent classification driving the supervisor's
    /// retry policy (see the crate docs for the full taxonomy).
    /// Compile/lower/profile errors and equivalence violations are
    /// deterministic pipeline outcomes; interpreter errors delegate to
    /// [`ExecError::class`] (everything real is permanent, injected
    /// faults are transient); panics and watchdog timeouts are
    /// environmental and therefore retry-eligible.
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        match self {
            ExperimentError::Exec(e) => e.class(),
            ExperimentError::Panic(_) | ExperimentError::Timeout { .. } => ErrorClass::Transient,
            ExperimentError::Compile(_)
            | ExperimentError::Lower(_)
            | ExperimentError::Profile(_)
            | ExperimentError::Trace(_)
            | ExperimentError::EquivalenceViolation { .. } => ErrorClass::Permanent,
        }
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "compile failed: {e}"),
            ExperimentError::Lower(e) => write!(f, "lowering failed: {e}"),
            ExperimentError::Profile(e) => write!(f, "profiling failed: {e}"),
            ExperimentError::Exec(e) => write!(f, "evaluation run failed: {e}"),
            ExperimentError::EquivalenceViolation { bench, run } => {
                write!(
                    f,
                    "FS binary diverged from conventional binary: {bench} run {run}"
                )
            }
            ExperimentError::Panic(payload) => write!(f, "benchmark panicked: {payload}"),
            ExperimentError::Timeout { limit } => {
                write!(f, "watchdog deadline ({limit:?}) exceeded")
            }
            ExperimentError::Trace(reason) => write!(f, "trace replay failed: {reason}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<CompileError> for ExperimentError {
    fn from(e: CompileError) -> Self {
        ExperimentError::Compile(e)
    }
}
impl From<LowerError> for ExperimentError {
    fn from(e: LowerError) -> Self {
        ExperimentError::Lower(e)
    }
}
impl From<ProfileError> for ExperimentError {
    fn from(e: ProfileError) -> Self {
        ExperimentError::Profile(e)
    }
}
impl From<ExecError> for ExperimentError {
    fn from(e: ExecError) -> Self {
        ExperimentError::Exec(e)
    }
}

/// Run the complete pipeline for one benchmark.
///
/// # Errors
/// Returns [`ExperimentError`] on any stage failure, including semantic
/// divergence of the transformed binary when
/// [`ExperimentConfig::verify_equivalence`] is set.
pub fn run_benchmark(
    bench: &'static Benchmark,
    config: &ExperimentConfig,
) -> Result<BenchResult, ExperimentError> {
    run_benchmark_attempt(bench, config, 1)
}

/// [`run_benchmark`] for a specific supervisor attempt number — the
/// attempt feeds the [`FaultInjector`]'s decision hash so a retried
/// attempt draws fresh faults (injection is transient by construction).
///
/// # Errors
/// As [`run_benchmark`], plus injected faults when
/// [`ExperimentConfig::fault`] is armed.
pub fn run_benchmark_attempt(
    bench: &'static Benchmark,
    config: &ExperimentConfig,
    attempt: u32,
) -> Result<BenchResult, ExperimentError> {
    let timeline = Timeline::new();
    let injector = FaultInjector::new(&config.fault, bench.name, attempt);

    let module = {
        let _span = timeline.span("compile");
        injector.trip("compile")?;
        bench.compile()?
    };
    let runs = bench.runs(config.scale, config.seed);
    // One slice table per benchmark, shared by the natural and FS
    // evaluation loops below (previously rebuilt inside each loop).
    let run_slices: Vec<Vec<&[u8]>> = runs
        .iter()
        .map(|streams| streams.iter().map(Vec::as_slice).collect())
        .collect();
    let exec_cfg = config.exec_config();

    // 1. The conventional binary.
    let natural: Program = {
        let _span = timeline.span("lower");
        lower(&module)?
    };

    // 2. One pass per run over the conventional binary scores the
    //    SBTB, the CBTB and the static baselines at once, and counts
    //    what the profile is derived from. Each input run is a separate
    //    program invocation: hardware buffers start cold (the compiler
    //    schemes keep their bits, of course).
    let mut natural_pass = NaturalPass::new(
        &natural.code,
        SbtbConfig::paper(),
        CbtbConfig {
            strict_greater: config.cbtb_strict,
            ..CbtbConfig::paper()
        },
    );
    let mut stats = ExecStats::default();
    let mut natural_outcomes = Vec::new();
    {
        let mut span = timeline.span("natural_eval");
        injector.trip("natural_eval")?;
        for refs in &run_slices {
            natural_pass.start_run();
            let out = run(&natural, &exec_cfg, refs, &mut natural_pass)?;
            stats.merge(&out.stats);
            natural_outcomes.push((out.exit_value, out.outputs));
        }
        span.add_work(stats.insts);
    }

    // 3. The profile, derived from the natural pass's counts (the
    //    paper's probe build, without a probe run), and the FS binary
    //    built from it.
    let profile: Profile = {
        let _span = timeline.span("profile");
        injector.trip("profile")?;
        Profile::from_natural(&module, &natural, natural_pass.outcomes().counts())?
    };
    let fs_bin: Program = {
        let _span = timeline.span("fs_build");
        fs_program(&module, &profile, FsConfig::with_slots(config.fs_slots))?
    };

    // 4. The FS binary runs with its likely bits steering prediction.
    let mut fs_outcomes = SiteOutcomes::new(&fs_bin.code);
    {
        let mut span = timeline.span("fs_eval");
        injector.trip("fs_eval")?;
        for (ri, refs) in run_slices.iter().enumerate() {
            let out = run(&fs_bin, &exec_cfg, refs, &mut fs_outcomes)?;
            span.add_work(out.stats.insts);
            if config.verify_equivalence {
                let (exit, outputs) = &natural_outcomes[ri];
                if out.exit_value != *exit || out.outputs != *outputs {
                    return Err(ExperimentError::EquivalenceViolation {
                        bench: bench.name,
                        run: ri,
                    });
                }
            }
        }
    }

    // 5. Static code expansion (Table 5 depths).
    let expansion = {
        let _span = timeline.span("expansion");
        code_expansion(&module, &profile, &[1, 2, 4, 8])?
    };

    let (sbtb_sites, cbtb_sites) = if config.collect_site_telemetry {
        (natural_pass.sbtb_sites(), natural_pass.cbtb_sites())
    } else {
        (SiteProbe::disabled(), SiteProbe::disabled())
    };
    let outcomes = natural_pass.outcomes();
    Ok(BenchResult {
        name: bench.name,
        source_lines: bench.source_lines(),
        runs: runs.len(),
        stats,
        mix: outcomes.mix(),
        sbtb: natural_pass.sbtb_stats(),
        cbtb: natural_pass.cbtb_stats(),
        fs: fs_outcomes.likely_bit(),
        always_taken: outcomes.always_taken(),
        always_not_taken: outcomes.always_not_taken(),
        btfn: outcomes.btfn(),
        expansion,
        phases: timeline.finish(),
        sbtb_sites,
        cbtb_sites,
    })
}

/// Results for the whole suite, possibly partial: benchmarks the
/// supervisor could not complete (retries exhausted, watchdog fired,
/// permanent pipeline error) appear as [`BenchFailure`] records instead
/// of aborting the run, so every unaffected benchmark's data survives.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Completed per-benchmark results, in suite order (including
    /// results restored from a `--resume` checkpoint).
    pub benches: Vec<BenchResult>,
    /// Benchmarks that failed after supervision, in suite order.
    pub failures: Vec<BenchFailure>,
    /// Supervisor counters for the run (retries, watchdog firings,
    /// caught panics, …).
    pub supervisor: SupervisorStats,
}

impl SuiteResult {
    /// A complete, failure-free result — the constructor tests and
    /// callers with pre-computed [`BenchResult`]s use.
    #[must_use]
    pub fn from_benches(benches: Vec<BenchResult>) -> Self {
        SuiteResult {
            supervisor: SupervisorStats {
                completed: benches.len() as u64,
                ..SupervisorStats::default()
            },
            benches,
            failures: Vec::new(),
        }
    }

    /// `true` when every benchmark completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Results restricted to the ten Table 1–4 benchmarks.
    pub fn main_benches(&self) -> impl Iterator<Item = &BenchResult> {
        self.benches
            .iter()
            .filter(|b| branchlab_workloads::benchmark(b.name).is_some_and(|bm| bm.in_main_tables))
    }

    /// Failures restricted to the ten Table 1–4 benchmarks.
    pub fn main_failures(&self) -> impl Iterator<Item = &BenchFailure> {
        self.failures
            .iter()
            .filter(|f| branchlab_workloads::benchmark(&f.name).is_some_and(|bm| bm.in_main_tables))
    }

    /// Mean and sample standard deviation of a per-benchmark metric over
    /// the main suite.
    pub fn mean_std(&self, f: impl Fn(&BenchResult) -> f64) -> (f64, f64) {
        let xs: Vec<f64> = self.main_benches().map(f).collect();
        mean_std(&xs)
    }
}

/// Mean and sample standard deviation (n − 1 denominator).
#[must_use]
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Run the full 12-benchmark suite on a supervised worker pool (at
/// most `available_parallelism` benchmarks in flight), with the default
/// [`SupervisorConfig`] (panic isolation and transient-error retries,
/// no watchdog, no checkpoint).
///
/// Never aborts on a single benchmark failure: panicking or erroring
/// benchmarks become [`SuiteResult::failures`] records and every other
/// benchmark's result is kept. Use [`run_suite_supervised`] to
/// configure retries, watchdog deadlines, and checkpoint/resume.
#[must_use]
pub fn run_suite(config: &ExperimentConfig) -> SuiteResult {
    run_suite_supervised(config, &SupervisorConfig::default())
}

/// All configured predictors scored off one event stream.
struct Many {
    evals: Vec<Evaluator<Box<dyn BranchPredictor>>>,
}

impl ExecHooks for Many {
    fn branch(&mut self, ev: &BranchEvent) {
        for e in &mut self.evals {
            e.branch(ev);
        }
    }
}

/// Evaluate an arbitrary set of predictors over every run of a
/// benchmark's conventional binary (the ablation workhorse).
///
/// With [`ExperimentConfig::use_trace_replay`] set (the default), the
/// event stream comes from the benchmark's cached trace — captured at
/// most once per (benchmark, program, scale, seed) — and is replayed
/// into the predictors at memory speed. Replay delivers the exact
/// sequence live interpretation would, so the statistics are
/// bit-identical to [`eval_predictors_live`] (enforced by the
/// `replay_fidelity` integration test).
///
/// # Errors
/// Returns [`ExperimentError`] on compile/lower/run/replay failure.
pub fn eval_predictors(
    bench: &Benchmark,
    config: &ExperimentConfig,
    predictors: Vec<Box<dyn BranchPredictor>>,
) -> Result<Vec<PredStats>, ExperimentError> {
    if !config.use_trace_replay {
        return eval_predictors_live(bench, config, predictors);
    }
    let runs = crate::trace_replay::captured_runs(bench, config)?;
    let mut many = Many {
        evals: predictors.into_iter().map(Evaluator::new).collect(),
    };
    let started = std::time::Instant::now();
    let events = crate::trace_replay::replay_runs(&runs, &mut many)?;
    crate::trace_replay::note_replay(config, events, started);
    Ok(many.evals.into_iter().map(|e| e.stats).collect())
}

/// [`eval_predictors`] by direct interpretation, one interpreter pass
/// per run — the re-interpretation baseline that trace replay is
/// measured against (and the fidelity oracle in tests).
///
/// # Errors
/// Returns [`ExperimentError`] on compile/lower/run failure.
pub fn eval_predictors_live(
    bench: &Benchmark,
    config: &ExperimentConfig,
    predictors: Vec<Box<dyn BranchPredictor>>,
) -> Result<Vec<PredStats>, ExperimentError> {
    let module = bench.compile()?;
    let program = lower(&module)?;
    let exec_cfg = config.exec_config();
    let mut many = Many {
        evals: predictors.into_iter().map(Evaluator::new).collect(),
    };
    for streams in bench.runs(config.scale, config.seed) {
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&program, &exec_cfg, &refs, &mut many)?;
    }
    Ok(many.evals.into_iter().map(|e| e.stats).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_predict::Sbtb;
    use branchlab_workloads::benchmark;

    #[test]
    fn wc_pipeline_end_to_end() {
        let r = run_benchmark(benchmark("wc").unwrap(), &ExperimentConfig::test()).unwrap();
        assert!(r.stats.insts > 10_000, "{:?}", r.stats);
        assert!(r.mix.cond_total() > 0);
        assert!(r.sbtb.accuracy() > 0.5, "SBTB {:?}", r.sbtb);
        assert!(r.cbtb.accuracy() > 0.5, "CBTB {:?}", r.cbtb);
        assert!(r.fs.accuracy() > 0.5, "FS {:?}", r.fs);
        // SBTB misses far more often than CBTB (taken-only residence).
        assert!(r.sbtb.miss_ratio() > r.cbtb.miss_ratio());
        assert_eq!(r.expansion.len(), 4);
    }

    #[test]
    fn every_result_carries_all_phase_spans() {
        let r = run_benchmark(benchmark("wc").unwrap(), &ExperimentConfig::test()).unwrap();
        for phase in PHASES {
            let span = r
                .phase(phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            assert_eq!(span.name, phase);
        }
        // The spans come in pipeline order.
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, PHASES);
        // The evaluation spans carry instruction counts as work.
        assert_eq!(r.phase("natural_eval").unwrap().work, r.stats.insts);
        assert!(r.phase("fs_eval").unwrap().work > 0);
        // Site telemetry is off by default.
        assert!(r.sbtb_sites.sites().is_empty());
        assert!(r.cbtb_sites.sites().is_empty());
    }

    #[test]
    fn site_telemetry_attributes_mispredicts_to_sites() {
        let config = ExperimentConfig {
            collect_site_telemetry: true,
            ..ExperimentConfig::test()
        };
        let r = run_benchmark(benchmark("wc").unwrap(), &config).unwrap();
        use branchlab_telemetry::ProbeKind;
        // The probe's view must agree with the evaluator's scoring.
        assert_eq!(
            r.sbtb_sites.total(ProbeKind::Mispredict),
            r.sbtb.events - r.sbtb.correct
        );
        assert_eq!(
            r.cbtb_sites.total(ProbeKind::Mispredict),
            r.cbtb.events - r.cbtb.correct
        );
        assert_eq!(
            r.sbtb_sites.total(ProbeKind::Hit),
            r.sbtb.events - r.sbtb.btb_misses
        );
        assert_eq!(r.sbtb_sites.total(ProbeKind::Miss), r.sbtb.btb_misses);
        assert!(!r.sbtb_sites.top_mispredicted(5).is_empty());
    }

    #[test]
    fn equivalence_is_verified_for_grep() {
        // grep has the most intricate control flow; the FS binary must
        // behave identically.
        let r = run_benchmark(benchmark("grep").unwrap(), &ExperimentConfig::test()).unwrap();
        assert!(r.fs.events > 0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn config_clones_share_one_registry_and_defaults_get_fresh_ones() {
        let run = ExperimentConfig::test();
        let derived = ExperimentConfig {
            seed: 7,
            ..run.clone()
        };
        derived.metrics.counter("suite.trace.replays").inc();
        assert_eq!(run.metrics.counter("suite.trace.replays").get(), 1);
        let other = ExperimentConfig::test();
        assert_eq!(other.metrics.counter("suite.trace.replays").get(), 0);
    }

    #[test]
    fn eval_predictors_counts_its_replay_in_the_run_registry() {
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig::test();
        eval_predictors(bench, &cfg, vec![Box::new(Sbtb::paper())]).unwrap();
        let events: u64 = crate::trace_replay::captured_runs(bench, &cfg)
            .unwrap()
            .iter()
            .map(branchlab_trace::TraceBuf::events)
            .sum();
        let count = |name| cfg.metrics.counter(name).get();
        assert_eq!(count("suite.trace.replays"), 1);
        assert_eq!(count("suite.trace.events_replayed"), events);

        // The live path replays nothing.
        let live = ExperimentConfig {
            use_trace_replay: false,
            ..ExperimentConfig::test()
        };
        eval_predictors(bench, &live, vec![Box::new(Sbtb::paper())]).unwrap();
        assert_eq!(live.metrics.counter("suite.trace.replays").get(), 0);
    }

    #[test]
    fn eval_predictors_single_pass_consistency() {
        let cfg = ExperimentConfig::test();
        let stats = eval_predictors(
            benchmark("wc").unwrap(),
            &cfg,
            vec![Box::new(Sbtb::paper()), Box::new(Sbtb::paper())],
        )
        .unwrap();
        // Two identical predictors over the same stream must agree.
        assert_eq!(stats[0], stats[1]);
    }
}
