//! Shared plumbing: run context, timed pass loops, spans, checks, and
//! the result record each workload fills in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use branchlab::experiments::figures::SchemeAccuracies;
use branchlab::experiments::trace_replay::{cached_profile, captured_runs, replay_runs};
use branchlab::experiments::ExperimentConfig;
use branchlab::predict::{
    BranchPredictor, Cbtb, CbtbConfig, Evaluator, ForwardSemantic, PredStats, Sbtb,
};
use branchlab::telemetry::{RequestTrace, SpanHandle, SpanLink, TraceContext};
use branchlab::workloads::Benchmark;

/// How a run was asked to behave.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Worker threads for parallel stages (`available_parallelism`).
    pub nproc: usize,
    /// The traced run's span sink (`None` when untraced).
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// A child span of the run's root, or `None` when untraced.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<SpanHandle> {
        self.tracer.as_ref().map(|t| t.link.child(name))
    }

    /// The root span's link, for spans opened on other threads.
    #[must_use]
    pub fn link(&self) -> Option<SpanLink> {
        self.tracer.as_ref().map(|t| t.link.clone())
    }
}

/// The traced run's span sink: one [`TraceContext`] whose root span
/// covers the whole run.
pub struct Tracer {
    ctx: TraceContext,
    root: Option<SpanHandle>,
    link: SpanLink,
}

impl Tracer {
    /// Open the run's trace under `label`.
    #[must_use]
    pub fn new(label: &str) -> Self {
        let ctx = TraceContext::new();
        ctx.set_label(label);
        let root = ctx.root("perfbench");
        let link = root.link();
        Tracer {
            ctx,
            root: Some(root),
            link,
        }
    }

    /// Close the root span and return every recorded span.
    #[must_use]
    pub fn finish(mut self) -> RequestTrace {
        drop(self.root.take());
        self.ctx.finish()
    }
}

/// Open a child span under `parent` when tracing.
#[must_use]
pub fn child(parent: Option<&SpanLink>, name: &str) -> Option<SpanHandle> {
    parent.map(|p| p.child(name))
}

/// Attribute `n` work units to an optional span.
pub fn add_work(span: &mut Option<SpanHandle>, n: u64) {
    if let Some(s) = span {
        s.add_work(n);
    }
}

/// Timed passes every run takes at least, however long they last, so
/// that the pass figure is a median and not a single sample.
pub const MIN_PASSES: usize = 5;

/// Timed passes each half of a traced run takes at least.
pub const MIN_HALF_PASSES: usize = 3;

/// The host probe's time on an idle core of the reference host (a
/// 2 GHz Xeon). It only fixes the unit of reference seconds.
pub const PROBE_REF_S: f64 = 0.006;

/// Rounds of the host probe kernel; the probe is the fastest, so that
/// an interrupt or preemption inside one round does not count.
const PROBE_ROUNDS: usize = 4;

/// The host probe's table: static, so that it is not part of the heap
/// the benchmark measures.
static PROBE_TABLE: Mutex<[u8; 1 << 21]> = Mutex::new([0; 1 << 21]);

/// Time a fixed, repository-independent kernel: 750K random
/// read-modify-writes of 2-bit counters in a 2 MiB table, the access
/// pattern of a predictor table, taking the fastest of
/// [`PROBE_ROUNDS`] rounds. On a shared host, other tenants' memory
/// traffic slows this kernel and the simulation workloads together, by
/// up to 2× for tens of seconds at a time.
#[must_use]
pub fn probe_host_s() -> f64 {
    let mut table = PROBE_TABLE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    table.fill(0);
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut taken = 0u64;
    let mut fastest = f64::INFINITY;
    for _ in 0..PROBE_ROUNDS {
        let t = Instant::now();
        for _ in 0..750_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let c = table[i];
            taken += u64::from(c >= 2);
            table[i] = if x & 1 == 1 {
                (c + 1).min(3)
            } else {
                c.saturating_sub(1)
            };
        }
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(taken);
    fastest
}

/// One timed piece of work.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Wall time at the reference host's speed: `wall_s` ×
    /// [`PROBE_REF_S`] ÷ `probe_s`.
    pub ref_s: f64,
    /// Units of work done (instructions, events, requests).
    pub units: f64,
    /// Mean of the host probes on either side, seconds.
    pub probe_s: f64,
}

impl Sample {
    /// Reference nanoseconds per unit of work.
    #[must_use]
    pub fn ref_ns_per_unit(&self) -> f64 {
        self.ref_s / self.units * 1e9
    }
}

/// Times work between host probes: each timed piece is followed by a
/// probe, and the mean of the probes before and after it is the host's
/// slowdown while it ran.
pub struct HostClock {
    /// The latest probe, seconds.
    last_probe_s: f64,
}

impl HostClock {
    /// A clock that starts with a probe.
    #[must_use]
    pub fn start() -> Self {
        HostClock {
            last_probe_s: probe_host_s(),
        }
    }

    /// Time `f`; `units` gives the work it did from its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T, units: impl FnOnce(&T) -> f64) -> (Sample, T) {
        let t = Instant::now();
        let v = f();
        let wall_s = t.elapsed().as_secs_f64();
        let after = probe_host_s();
        let probe_s = (self.last_probe_s + after) / 2.0;
        self.last_probe_s = after;
        let sample = Sample {
            wall_s,
            ref_s: wall_s * PROBE_REF_S / probe_s,
            units: units(&v),
            probe_s,
        };
        (sample, v)
    }
}

/// Run `pass` back to back until `seconds` have elapsed and at least
/// `min_passes` passes ran, each timed by `clock` as the `units` of
/// work its value reports; returns each pass's sample and value.
pub fn timed_passes<T>(
    clock: &mut HostClock,
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
    units: impl Fn(&T) -> f64,
) -> (Vec<Sample>, Vec<T>) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut values = Vec::new();
    while samples.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let (s, v) = clock.time(&mut pass, &units);
        samples.push(s);
        values.push(v);
    }
    (samples, values)
}

/// Wall time of `f` in seconds, with its value.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// One named correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything a workload measured in one run.
#[derive(Default)]
pub struct Run {
    /// Input scale the workload ran at.
    pub scale: &'static str,
    /// Each set-up (one unit of work each).
    pub setups: Vec<Sample>,
    /// Each untraced timed pass.
    pub passes: Vec<Sample>,
    /// Each traced timed pass (traced run only).
    pub traced_passes: Vec<Sample>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, plus correctness mismatches.
    pub failed: u64,
    /// Correctness checks performed outside the timed phase.
    pub checks: Vec<Check>,
    /// Peak live heap from start-up to the end of the timed phase,
    /// before the correctness checks allocate, MB.
    pub peak_heap_mb: f64,
    /// Model error against the paper's Table 3 averages, pp.
    pub acc_err_pp: f64,
    /// Extra figures for the result record and stdout (not gated).
    pub info: BTreeMap<String, f64>,
    /// Per-layer figures the workload produced itself (traced run).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Record a check; a failed one also counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
            self.failed += 1;
        }
        self.checks.push(Check { name, ok });
    }
}

/// The paper's CBTB as the suite scores it (`C > T` unless configured
/// otherwise).
#[must_use]
pub fn suite_cbtb(config: &ExperimentConfig) -> Cbtb {
    Cbtb::new(CbtbConfig {
        strict_greater: config.cbtb_strict,
        ..CbtbConfig::paper()
    })
}

/// Score `predictors` over a benchmark's captured trace the way the
/// paper's harness scores live runs: every input run starts with cold
/// buffers.
///
/// # Errors
/// A description of a capture or replay failure.
pub fn replay_cold_per_run(
    bench: &Benchmark,
    config: &ExperimentConfig,
    predictors: Vec<Box<dyn BranchPredictor>>,
) -> Result<Vec<PredStats>, String> {
    let runs = captured_runs(bench, config).map_err(|e| e.to_string())?;
    let mut evals: Vec<_> = predictors.into_iter().map(Evaluator::new).collect();
    for run in runs.iter() {
        for e in &mut evals {
            e.predictor.flush();
            replay_runs(std::slice::from_ref(run), e).map_err(|e| e.to_string())?;
        }
    }
    Ok(evals.into_iter().map(|e| e.stats).collect())
}

/// Mean absolute gap, in percentage points, between measured scheme
/// averages and the paper's Table 3 averages.
#[must_use]
pub fn acc_err_pp(measured: &SchemeAccuracies) -> f64 {
    let paper = SchemeAccuracies::paper();
    let gaps = [
        measured.sbtb - paper.sbtb,
        measured.cbtb - paper.cbtb,
        measured.fs - paper.fs,
    ];
    gaps.iter().map(|g| g.abs() * 100.0).sum::<f64>() / 3.0
}

/// [`acc_err_pp`] for benchmarks outside the paper pipeline: SBTB and
/// CBTB replayed cold per run, Forward Semantic predicted from the
/// profile, averaged over `benches` (scored on `threads` threads).
///
/// # Errors
/// A description of the first capture, profile or replay failure.
pub fn acc_err_pp_replayed(
    benches: &[&'static Benchmark],
    config: &ExperimentConfig,
    threads: usize,
) -> Result<f64, String> {
    type Scored = Result<Vec<f64>, String>;
    let score = |bench: &Benchmark| -> Scored {
        let profile = cached_profile(bench, config).map_err(|e| e.to_string())?;
        let stats = replay_cold_per_run(
            bench,
            config,
            vec![
                Box::new(Sbtb::paper()),
                Box::new(suite_cbtb(config)),
                Box::new(ForwardSemantic::from_profile(&profile.sites)),
            ],
        )?;
        Ok(stats.iter().map(PredStats::accuracy).collect())
    };
    let slots: Vec<Mutex<Option<Scored>>> = benches.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, benches.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(bench) = benches.get(i) else { break };
                *slots[i].lock().expect("accuracy slot") = Some(score(bench));
            });
        }
    });
    // Summed in benchmark order, so the figure does not depend on
    // which thread finished first.
    let mut sums = [0.0f64; 3];
    for slot in slots {
        let acc = slot.into_inner().expect("accuracy slot").expect("scored")?;
        for (sum, a) in sums.iter_mut().zip(acc) {
            *sum += a;
        }
    }
    let n = benches.len() as f64;
    Ok(acc_err_pp(&SchemeAccuracies {
        sbtb: sums[0] / n,
        cbtb: sums[1] / n,
        fs: sums[2] / n,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_err_is_the_mean_absolute_gap_in_points() {
        assert_eq!(acc_err_pp(&SchemeAccuracies::paper()), 0.0);
        let measured = SchemeAccuracies {
            sbtb: 0.923,
            cbtb: 0.939,
            fs: 0.932,
        };
        // |0.8| + |1.5| + |-0.3| = 2.6 points over three schemes.
        assert!((acc_err_pp(&measured) - 2.6 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn timed_passes_respect_the_minimum() {
        let (samples, values) = timed_passes(&mut HostClock::start(), 0.0, 3, || 1, |_| 2.0);
        assert_eq!((samples.len(), values.len()), (3, 3));
        assert!(samples.iter().all(|s| s.units == 2.0 && s.ref_s > 0.0));
    }

    #[test]
    fn reference_time_divides_out_the_probed_slowdown() {
        let mut clock = HostClock {
            last_probe_s: f64::INFINITY,
        };
        let nap = || std::thread::sleep(std::time::Duration::from_millis(5));
        let (s, ()) = clock.time(nap, |()| 1.0);
        assert!(s.wall_s >= 0.005);
        assert_eq!(
            s.ref_s, 0.0,
            "an infinitely slow host leaves no reference time"
        );
        let (s, ()) = clock.time(|| (), |()| 4.0);
        assert!(s.ref_s > 0.0 && s.ref_ns_per_unit() == s.ref_s / 4.0 * 1e9);
    }
}
