//! Trace-driven replay: capture each benchmark's dynamic event stream
//! once, then feed every sweep configuration from the captured trace at
//! memory speed.
//!
//! This is the paper's own methodology — the ten Unix benchmarks were
//! traced once and every scheme was scored off those traces — and it
//! turns the sweep cost from O(points × interpret) into
//! O(interpret + points × replay).
//!
//! * [`captured_runs`]: the natural-layout trace of a benchmark, one
//!   [`TraceBuf`] per input run, from (in priority order) the
//!   process-wide in-memory cache, the optional on-disk cache
//!   ([`ExperimentConfig::trace_cache_dir`], hash-validated), or a
//!   fresh capture pass. Keyed by benchmark name + program content
//!   hash + scale + seed ([`TraceKey`]), so a source edit or input
//!   change can never serve a stale trace.
//! * [`replay_runs`]: drive any [`ExecHooks`] sink from the buffers,
//!   run by run, exactly as the live interpreter would have. Sweep
//!   scoring does not come through here: [`SweepBatch`] decodes the
//!   buffers block-wise through `BlockIter`.
//! * [`cached_profile`]: the benchmark's profile, derived once per key
//!   from its captured trace and shared by the studies that need
//!   branch-site statistics.
//! * [`TRACE_COUNTERS`]: the `suite.trace.*` counters recording cache
//!   traffic and capture/replay wall-clock in the run's registry
//!   ([`ExperimentConfig::metrics`]).
//!
//! [`SweepBatch`]: crate::SweepBatch

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use branchlab_interp::run;
use branchlab_ir::lower;
use branchlab_profile::Profile;
use branchlab_trace::{
    hash_bytes, load_trace, replay, save_trace, Capture, ExecHooks, PcCounts, TraceBuf, TraceKey,
};
use branchlab_workloads::Benchmark;

use crate::harness::{ExperimentConfig, ExperimentError};

/// The cache key identifying one benchmark's trace under one input
/// configuration.
#[must_use]
pub fn trace_key(bench: &Benchmark, config: &ExperimentConfig) -> TraceKey {
    TraceKey {
        bench: bench.name.to_string(),
        program_hash: hash_bytes(bench.source.as_bytes()),
        scale: config.scale.name().to_string(),
        seed: config.seed,
    }
}

type TraceMap = Mutex<HashMap<TraceKey, Arc<Vec<TraceBuf>>>>;
type ProfileMap = Mutex<HashMap<TraceKey, Arc<Profile>>>;

fn trace_map() -> &'static TraceMap {
    static MAP: OnceLock<TraceMap> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

fn profile_map() -> &'static ProfileMap {
    static MAP: OnceLock<ProfileMap> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The `suite.trace.*` counters that [`captured_runs`],
/// [`cached_profile`] and [`SweepBatch`](crate::SweepBatch) bump in
/// [`ExperimentConfig::metrics`], in export order.
pub const TRACE_COUNTERS: [&str; 11] = [
    "suite.trace.captures",
    "suite.trace.memory_hits",
    "suite.trace.disk_hits",
    "suite.trace.disk_invalid",
    "suite.trace.replays",
    "suite.trace.events_captured",
    "suite.trace.events_replayed",
    "suite.trace.capture_us",
    "suite.trace.replay_us",
    "suite.trace.profile_computes",
    "suite.trace.profile_hits",
];

fn bump(config: &ExperimentConfig, name: &str, by: u64) {
    config.metrics.counter(name).add(by);
}

/// Wall-clock since `started`, in whole microseconds.
pub(crate) fn micros_since(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Drop every in-memory cached trace and profile (tests use this to
/// force re-capture; the on-disk cache is untouched).
pub fn clear_cache() {
    trace_map().lock().expect("trace cache lock").clear();
    profile_map().lock().expect("profile cache lock").clear();
}

/// Capture the benchmark's event stream by running the conventional
/// binary over every input run with a [`Capture`] sink.
fn capture(bench: &Benchmark, config: &ExperimentConfig) -> Result<Vec<TraceBuf>, ExperimentError> {
    let started = Instant::now();
    let module = bench.compile()?;
    let program = lower(&module)?;
    let exec_cfg = config.exec_config();
    let mut bufs = Vec::new();
    let mut events = 0u64;
    for streams in bench.runs(config.scale, config.seed) {
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        let mut cap = Capture::new();
        run(&program, &exec_cfg, &refs, &mut cap)?;
        let buf = cap.into_buf();
        events += buf.events();
        bufs.push(buf);
    }
    bump(config, "suite.trace.captures", 1);
    bump(config, "suite.trace.events_captured", events);
    bump(config, "suite.trace.capture_us", micros_since(started));
    Ok(bufs)
}

/// The benchmark's per-run trace buffers: in-memory cache first, then
/// the hash-validated on-disk cache (when
/// [`ExperimentConfig::trace_cache_dir`] is set), then a fresh capture
/// pass — which populates both caches for the next caller.
///
/// An unreadable, corrupt, or stale on-disk entry is counted
/// (`disk_invalid`) and silently degrades to re-capture; a failed
/// best-effort save never fails the experiment.
///
/// # Errors
/// Returns [`ExperimentError`] when the capture pipeline
/// (compile/lower/run) fails.
pub fn captured_runs(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<Arc<Vec<TraceBuf>>, ExperimentError> {
    let key = trace_key(bench, config);
    if let Some(hit) = trace_map().lock().expect("trace cache lock").get(&key) {
        bump(config, "suite.trace.memory_hits", 1);
        return Ok(Arc::clone(hit));
    }

    let disk_path = config
        .trace_cache_dir
        .as_ref()
        .map(|d| d.join(key.file_name()));
    if let Some(path) = &disk_path {
        match load_trace(path, &key) {
            Ok(Some(runs)) => {
                bump(config, "suite.trace.disk_hits", 1);
                let runs = Arc::new(runs);
                trace_map()
                    .lock()
                    .expect("trace cache lock")
                    .insert(key, Arc::clone(&runs));
                return Ok(runs);
            }
            Ok(None) => {}
            Err(_) => bump(config, "suite.trace.disk_invalid", 1),
        }
    }

    let runs = Arc::new(capture(bench, config)?);
    if let Some(path) = &disk_path {
        let _ = save_trace(path, &key, &runs);
    }
    trace_map()
        .lock()
        .expect("trace cache lock")
        .insert(key, Arc::clone(&runs));
    Ok(runs)
}

/// Replay every run's buffer into `hooks`, in run order, with no state
/// reset between runs — exactly the event sequence the live
/// interpreter would have delivered. Returns the total event count.
/// Counts nothing: [`SweepBatch`](crate::SweepBatch) credits its
/// replays to the run's registry.
///
/// # Errors
/// Returns [`ExperimentError::Trace`] on a malformed buffer (impossible
/// for buffers produced by [`Capture`]; reachable only through cache
/// corruption that slipped past the checksum).
pub fn replay_runs<H: ExecHooks>(runs: &[TraceBuf], hooks: &mut H) -> Result<u64, ExperimentError> {
    let mut events = 0u64;
    for buf in runs {
        events += replay(buf, hooks).map_err(|e| ExperimentError::Trace(e.to_string()))?;
    }
    Ok(events)
}

/// Credit one replay pass (one work item's decode) of `events` events,
/// begun at `started`, to the run's `suite.trace.*` counters.
pub(crate) fn note_replay(config: &ExperimentConfig, events: u64, started: Instant) {
    bump(config, "suite.trace.replays", 1);
    bump(config, "suite.trace.events_replayed", events);
    bump(config, "suite.trace.replay_us", micros_since(started));
}

/// The benchmark's profile, computed once per [`TraceKey`] and shared —
/// `context_switch_study` and `delay_slot_study` both need it, and
/// under replay neither should pay for it twice. It is derived
/// ([`Profile::from_natural`]) from the trace [`captured_runs`] holds,
/// replayed run by run into a [`PcCounts`] (the trace records calls
/// and returns as well as branches), so it never interprets the
/// benchmark beyond that one capture.
///
/// # Errors
/// Returns [`ExperimentError`] when compiling, capturing, replaying or
/// deriving fails.
pub fn cached_profile(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<Arc<Profile>, ExperimentError> {
    let key = trace_key(bench, config);
    if let Some(hit) = profile_map().lock().expect("profile cache lock").get(&key) {
        bump(config, "suite.trace.profile_hits", 1);
        return Ok(Arc::clone(hit));
    }
    let runs = captured_runs(bench, config)?;
    let module = bench.compile()?;
    let natural = lower(&module)?;
    let mut counts = PcCounts::new(natural.code.len());
    for buf in runs.iter() {
        counts.start_run();
        replay_runs(std::slice::from_ref(buf), &mut counts)?;
    }
    let profile = Arc::new(Profile::from_natural(&module, &natural, &counts)?);
    bump(config, "suite.trace.profile_computes", 1);
    profile_map()
        .lock()
        .expect("profile cache lock")
        .insert(key, Arc::clone(&profile));
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_profile::profile_module_with;
    use branchlab_trace::BranchMix;
    use branchlab_workloads::benchmark;

    #[test]
    fn captured_runs_hit_memory_cache_on_second_call() {
        let config = ExperimentConfig {
            seed: 0xC0FFEE, // private key: avoid cross-test interference
            ..ExperimentConfig::test()
        };
        let bench = benchmark("wc").unwrap();
        let first = captured_runs(bench, &config).unwrap();
        let second = captured_runs(bench, &config).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let count = |name| config.metrics.counter(name).get();
        assert_eq!(count("suite.trace.captures"), 1);
        assert_eq!(count("suite.trace.memory_hits"), 1);
        let events: u64 = first.iter().map(TraceBuf::events).sum();
        assert_eq!(count("suite.trace.events_captured"), events);
    }

    #[test]
    fn cached_profile_computes_once_per_key() {
        let config = ExperimentConfig {
            seed: 0xBEEF02, // private key: avoid cross-test interference
            ..ExperimentConfig::test()
        };
        let bench = benchmark("wc").unwrap();
        let first = cached_profile(bench, &config).unwrap();
        let second = cached_profile(bench, &config).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let count = |name| config.metrics.counter(name).get();
        assert_eq!(count("suite.trace.profile_computes"), 1);
        assert_eq!(count("suite.trace.profile_hits"), 1);
    }

    #[test]
    fn cached_profile_derives_from_the_captured_trace_without_interpreting() {
        // dispatch's handlers sit behind a jump table.
        for name in ["wc", "compress", "dispatch"] {
            let config = ExperimentConfig {
                seed: 0xBEEF03, // private key: avoid cross-test interference
                ..ExperimentConfig::test()
            };
            let bench = benchmark(name).unwrap();
            captured_runs(bench, &config).unwrap();
            let profile = cached_profile(bench, &config).unwrap();
            let count = |name| config.metrics.counter(name).get();
            assert_eq!(count("suite.trace.captures"), 1, "{name}");
            assert_eq!(count("suite.trace.profile_computes"), 1, "{name}");
            let module = bench.compile().unwrap();
            let runs = bench.runs(config.scale, config.seed);
            let direct = profile_module_with(&module, &runs, &config.exec_config()).unwrap();
            assert_eq!(*profile, direct, "{name}");
        }
    }

    #[test]
    fn replayed_mix_matches_capture_event_count() {
        let config = ExperimentConfig {
            seed: 0xBEEF01,
            ..ExperimentConfig::test()
        };
        let bench = benchmark("cmp").unwrap();
        let runs = captured_runs(bench, &config).unwrap();
        let total: u64 = runs.iter().map(TraceBuf::events).sum();
        let mut mix = BranchMix::new();
        let replayed = replay_runs(&runs, &mut mix).unwrap();
        assert_eq!(replayed, total);
        assert!(mix.cond_total() > 0);
    }

    #[test]
    fn trace_key_distinguishes_scale_seed_and_bench() {
        let config = ExperimentConfig::test();
        let wc = trace_key(benchmark("wc").unwrap(), &config);
        let grep = trace_key(benchmark("grep").unwrap(), &config);
        assert_ne!(wc, grep);
        let other_seed = ExperimentConfig {
            seed: 7,
            ..ExperimentConfig::test()
        };
        assert_ne!(wc, trace_key(benchmark("wc").unwrap(), &other_seed));
    }
}
