//! The end-to-end experiment pipeline: compile → lower → evaluate the
//! conventional binary → derive the profile from that same pass →
//! transform → evaluate the Forward Semantic binary, over every
//! benchmark, in a single interpreter pass per run per layout.
//!
//! Every stage of [`run_benchmark`] runs inside a child of one root
//! span of the benchmark's own trace, so each [`BenchResult`] carries
//! a per-phase wall-clock (and work-count) breakdown anchored in wall
//! time, plus the SBTB/CBTB per-branch-site
//! hit/miss/evict/alias/mispredict counters as [`SiteProbe`]s.
//!
//! [`eval_predictors`] scores any predictor set off the benchmark's
//! captured trace through a one-group [`SweepBatch`];
//! [`eval_predictors_live`] scores it by direct interpretation, the
//! oracle the replay-fidelity tests hold every replayed pass to.
//!
//! [`SweepBatch`]: crate::SweepBatch

use std::sync::Arc;

use branchlab_fsem::{code_expansion, fs_program, ExpansionPoint, FsConfig};
use branchlab_interp::{run, ExecConfig, ExecError, ExecStats};
use branchlab_ir::{lower, LowerError, Program};
use branchlab_minic::CompileError;
use branchlab_predict::{
    BranchPredictor, CbtbConfig, Evaluator, NaturalPass, PredStats, SbtbConfig, SiteOutcomes,
};
use branchlab_profile::{Profile, ProfileError};
use branchlab_telemetry::{MetricsRegistry, RequestTrace, SiteProbe, Span, TraceContext};
use branchlab_trace::{BranchEvent, BranchMix, ExecHooks};
use branchlab_workloads::{Benchmark, Scale};

use crate::budget::{share_runs, CoreBudget};
use crate::supervisor::{
    run_suite_supervised, BenchFailure, SupervisorConfig, SupervisorStats, SUPERVISED_THREAD_PREFIX,
};

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
    /// Interpreter data memory in words (globals + frame stack); small
    /// values surface `MemoryTooSmall`/`StackOverflow` through the
    /// harness, which the robustness tests rely on.
    pub memory_words: usize,
    /// Interpreter call-depth limit.
    pub max_call_depth: usize,
    /// Directory for the on-disk trace cache (`--trace-cache DIR`);
    /// `None` keeps traces in memory only.
    pub trace_cache_dir: Option<std::path::PathBuf>,
    /// Worker threads for [`SweepBatch`] scoring — [`eval_predictors`]
    /// and the ablation studies (`ablation --sweep-threads N`); at 1
    /// the batch is one work item scored on the calling thread. `None`
    /// uses `available_parallelism`; an explicit value may exceed the
    /// core count (useful for scheduling experiments). Results are
    /// bit-identical at every thread count — each sweep point consumes
    /// the complete event stream in capture order regardless of which
    /// worker scores it.
    ///
    /// [`SweepBatch`]: crate::batch::SweepBatch
    pub sweep_threads: Option<usize>,
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
            memory_words: exec.memory_words,
            max_call_depth: exec.max_call_depth,
            trace_cache_dir: None,
            sweep_threads: None,
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
    /// The benchmark's trace, labelled with its name: a root
    /// `run_benchmark` span with one child per entry of [`PHASES`], in
    /// pipeline order, each carrying its wall-clock time and work.
    pub phases: RequestTrace,
    /// Per-branch-site SBTB telemetry (hits, misses, evictions,
    /// aliases, mispredicts), from the natural pass's per-pc tallies.
    pub sbtb_sites: SiteProbe,
    /// Per-branch-site CBTB telemetry, as for
    /// [`BenchResult::sbtb_sites`].
    pub cbtb_sites: SiteProbe,
}

impl BenchResult {
    /// The span of `phase`, if recorded.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&Span> {
        self.phases.spans.iter().find(|p| p.name == name)
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
    /// checksum.
    Trace(String),
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
    run_benchmark_with_budget(bench, config, &CoreBudget::new(0))
}

/// [`run_benchmark`] whose evaluation phases share their input runs
/// with helper threads that `budget`'s free permits pay for
/// ([`CoreBudget`]). Runs are independent — each starts with cold
/// buffers — and their counts add, so the result is the same at every
/// budget, and with no free permit every run is interpreted on the
/// calling thread. The supervisor passes the suite's budget, so cores
/// its finished workers give back help the benchmarks still running.
///
/// # Errors
/// As [`run_benchmark`]; when several runs fail, the lowest-index
/// run's error, as a serial loop over the runs returns it.
pub fn run_benchmark_with_budget(
    bench: &'static Benchmark,
    config: &ExperimentConfig,
    budget: &CoreBudget,
) -> Result<BenchResult, ExperimentError> {
    let ctx = TraceContext::new();
    ctx.set_label(bench.name);
    let root = ctx.root("run_benchmark");
    let helper_name = format!("{SUPERVISED_THREAD_PREFIX}{}:run-helper", bench.name);

    let module = {
        let _span = root.child("compile");
        bench.compile()?
    };
    let runs = bench.runs(config.scale, config.seed);
    // One slice table per benchmark, shared by both evaluation phases.
    let run_slices: Vec<Vec<&[u8]>> = runs
        .iter()
        .map(|streams| streams.iter().map(Vec::as_slice).collect())
        .collect();
    // Both evaluation phases claim runs largest input first: run time
    // grows with input, so no phase ends waiting on a long run that
    // started last.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&ri| std::cmp::Reverse(runs[ri].iter().map(Vec::len).sum::<usize>()));
    let exec_cfg = config.exec_config();

    // 1. The conventional binary.
    let natural: Program = {
        let _span = root.child("lower");
        lower(&module)?
    };

    // 2. One pass per run over the conventional binary scores the
    //    SBTB, the CBTB and the static baselines at once, and counts
    //    what the profile is derived from. Each input run is a separate
    //    program invocation: hardware buffers start cold (the compiler
    //    schemes keep their bits, of course).
    let cbtb = CbtbConfig {
        strict_greater: config.cbtb_strict,
        ..CbtbConfig::paper()
    };
    let mut stats = ExecStats::default();
    let (natural_pass, natural_outcomes) = {
        let mut span = root.child("natural_eval");
        let (pass, outs) = share_runs(
            budget,
            &helper_name,
            &config.metrics,
            &order,
            || NaturalPass::new(&natural.code, SbtbConfig::paper(), cbtb),
            |ri, pass| {
                pass.start_run();
                Ok(run(&natural, &exec_cfg, &run_slices[ri], pass)?)
            },
            NaturalPass::merge,
        )?;
        let mut outcomes = Vec::with_capacity(outs.len());
        for out in outs {
            stats.merge(&out.stats);
            outcomes.push((out.exit_value, out.outputs));
        }
        span.add_work(stats.insts);
        (pass, outcomes)
    };

    // 3. The profile, derived from the natural pass's counts (the
    //    paper's probe build, without a probe run), and the FS binary
    //    built from it.
    let profile: Profile = {
        let _span = root.child("profile");
        Profile::from_natural(&module, &natural, natural_pass.outcomes().counts())?
    };
    let fs_bin: Program = {
        let _span = root.child("fs_build");
        fs_program(&module, &profile, FsConfig::with_slots(config.fs_slots))?
    };

    // 4. The FS binary runs with its likely bits steering prediction.
    let fs_outcomes = {
        let mut span = root.child("fs_eval");
        let (outcomes, insts) = share_runs(
            budget,
            &helper_name,
            &config.metrics,
            &order,
            || SiteOutcomes::new(&fs_bin.code),
            |ri, outcomes| {
                let out = run(&fs_bin, &exec_cfg, &run_slices[ri], outcomes)?;
                if config.verify_equivalence {
                    let (exit, outputs) = &natural_outcomes[ri];
                    if out.exit_value != *exit || out.outputs != *outputs {
                        return Err(ExperimentError::EquivalenceViolation {
                            bench: bench.name,
                            run: ri,
                        });
                    }
                }
                Ok(out.stats.insts)
            },
            SiteOutcomes::merge,
        )?;
        span.add_work(insts.iter().sum());
        outcomes
    };

    // 5. Static code expansion (Table 5 depths).
    let expansion = {
        let _span = root.child("expansion");
        code_expansion(&module, &profile, &[1, 2, 4, 8])?
    };

    let outcomes = natural_pass.outcomes();
    drop(root);
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
        phases: ctx.finish(),
        sbtb_sites: natural_pass.sbtb_sites(),
        cbtb_sites: natural_pass.cbtb_sites(),
    })
}

/// Results for the whole suite, possibly partial: benchmarks the
/// supervisor could not complete (a pipeline error, a panic, the
/// watchdog fired) appear as [`BenchFailure`] records instead of
/// aborting the run, so every unaffected benchmark's data survives.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Completed per-benchmark results, in suite order.
    pub benches: Vec<BenchResult>,
    /// Benchmarks that failed, in suite order.
    pub failures: Vec<BenchFailure>,
    /// Supervisor counters for the run (completions, failures,
    /// watchdog firings, caught panics).
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
/// [`SupervisorConfig`] (panic isolation, no watchdog).
///
/// Never aborts on a single benchmark failure: panicking or erroring
/// benchmarks become [`SuiteResult::failures`] records and every other
/// benchmark's result is kept. Use [`run_suite_supervised`] to set a
/// watchdog deadline.
#[must_use]
pub fn run_suite(config: &ExperimentConfig) -> SuiteResult {
    run_suite_supervised(config, &SupervisorConfig::default())
}

/// All configured predictors scored off one live event stream, event
/// by event.
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
/// benchmark's conventional binary: a one-group
/// [`SweepBatch`](crate::SweepBatch) run. The event stream comes from
/// the benchmark's cached trace — captured at most once per
/// (benchmark, program, scale, seed) — and is replayed into the
/// predictors at memory speed. Replay delivers the exact sequence live
/// interpretation would, so the statistics are bit-identical to
/// [`eval_predictors_live`] (enforced by the `replay_fidelity`
/// integration test).
///
/// # Errors
/// Returns [`ExperimentError`] on compile/lower/run/replay failure.
pub fn eval_predictors(
    bench: &Benchmark,
    config: &ExperimentConfig,
    predictors: Vec<Box<dyn BranchPredictor>>,
) -> Result<Vec<PredStats>, ExperimentError> {
    let mut batch = crate::SweepBatch::new(bench, config);
    let ticket = batch.eval(predictors);
    Ok(batch.run()?.stats(ticket).to_vec())
}

/// [`eval_predictors`] by direct interpretation, one interpreter pass
/// per run — the fidelity oracle that tests hold trace replay to.
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
        // One trace per benchmark: a root span, then the phases in
        // pipeline order, each a child lying inside the root's interval.
        assert_eq!(r.phases.label, "wc");
        let (root, phases) = r.phases.spans.split_first().unwrap();
        assert_eq!((root.name.as_str(), root.parent), ("run_benchmark", None));
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, PHASES);
        for p in phases {
            assert_eq!(p.parent, Some(root.id), "{}", p.name);
            assert!(
                root.start_us <= p.start_us && p.end_us() <= root.end_us(),
                "{} [{}, {}] outside root [{}, {}]",
                p.name,
                p.start_us,
                p.end_us(),
                root.start_us,
                root.end_us()
            );
        }
        // The evaluation spans carry instruction counts as work.
        assert_eq!(r.phase("natural_eval").unwrap().work, r.stats.insts);
        assert!(r.phase("fs_eval").unwrap().work > 0);
        // Site telemetry is always published.
        assert!(!r.sbtb_sites.sites().is_empty());
        assert!(!r.cbtb_sites.sites().is_empty());
    }

    #[test]
    fn site_telemetry_attributes_mispredicts_to_sites() {
        // The site totals must agree with each buffer's scoring.
        let cfg = ExperimentConfig::test();
        for name in ["wc", "grep", "cccp", "lex"] {
            let r = run_benchmark(benchmark(name).unwrap(), &cfg).unwrap();
            for (scheme, stats, sites) in [
                ("SBTB", &r.sbtb, &r.sbtb_sites),
                ("CBTB", &r.cbtb, &r.cbtb_sites),
            ] {
                let t = sites.totals();
                assert_eq!(t.hits + t.misses, stats.btb_lookups, "{name} {scheme}");
                assert_eq!(t.misses, stats.btb_misses, "{name} {scheme}");
                assert_eq!(t.taken + t.not_taken, stats.events, "{name} {scheme}");
                assert_eq!(
                    t.mispredicts,
                    stats.events - stats.correct,
                    "{name} {scheme}"
                );
                assert!(!sites.top_mispredicted(5).is_empty(), "{name} {scheme}");
            }
        }
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

        // The live oracle replays nothing.
        let live = ExperimentConfig::test();
        eval_predictors_live(bench, &live, vec![Box::new(Sbtb::paper())]).unwrap();
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
