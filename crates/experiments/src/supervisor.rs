//! branchlab-guard: the supervision layer between `run_suite` and the
//! per-benchmark pipeline.
//!
//! Every benchmark runs once, on its own thread, behind `catch_unwind`
//! and an optional wall-clock watchdog:
//!
//! * a panicking benchmark becomes a [`BenchFailure`] record instead of
//!   tearing down the whole suite;
//! * a benchmark that exceeds the watchdog deadline is abandoned and
//!   recorded as [`ExperimentError::Timeout`] (the stuck thread is
//!   detached — it can burn CPU until the process exits, which is the
//!   price of a deadline `std` threads cannot enforce cooperatively;
//!   its run helpers give their core permits back as they finish);
//! * an error becomes a failure record as it is. There are no retries:
//!   every result is a deterministic function of program, inputs and
//!   configuration, so running a benchmark again repeats its failure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use branchlab_workloads::SUITE;

use crate::budget::CoreBudget;
use crate::harness::{
    run_benchmark_with_budget, BenchResult, ExperimentConfig, ExperimentError, SuiteResult,
};

/// Thread-name prefix marking supervised benchmark threads; the panic
/// hook installed by the supervisor suppresses the default
/// panic-message spew for these threads only (their payloads are
/// captured and reported as failure records instead). Run helpers
/// carry it too, since their panics resume on the benchmark's thread.
pub(crate) const SUPERVISED_THREAD_PREFIX: &str = "bl-sup:";

/// Supervision policy for a suite run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorConfig {
    /// Wall-clock deadline per benchmark; `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

/// One benchmark that failed: an error, a caught panic or an elapsed
/// watchdog deadline.
#[derive(Clone, Debug)]
pub struct BenchFailure {
    /// Benchmark name.
    pub name: String,
    /// The rendered error.
    pub error: String,
    /// Wall clock from the start to the failure.
    pub elapsed: Duration,
}

impl std::fmt::Display for BenchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: FAILED ({:.2}s): {}",
            self.name,
            self.elapsed.as_secs_f64(),
            self.error
        )
    }
}

/// Counters describing what the supervisor did during a run; exported
/// into the telemetry metrics registry and the run manifest by the
/// bench binaries.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Benchmarks that completed.
    pub completed: u64,
    /// Benchmarks that failed.
    pub failed: u64,
    /// Watchdog deadline firings.
    pub watchdog_fired: u64,
    /// Panics caught and converted into errors.
    pub panics_caught: u64,
}

impl SupervisorStats {
    /// Accumulate another stats block.
    pub fn merge(&mut self, other: &SupervisorStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.watchdog_fired += other.watchdog_fired;
        self.panics_caught += other.panics_caught;
    }

    /// The counters as `(name, value)` pairs, for metrics export.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("benches_completed", self.completed),
            ("benches_failed", self.failed),
            ("watchdog_fired", self.watchdog_fired),
            ("panics_caught", self.panics_caught),
        ]
    }
}

/// Install (once per process) a panic hook that suppresses the default
/// stderr report for supervised benchmark threads — their panics are
/// captured and become failure records — while delegating every other
/// thread's panic to the previously installed hook.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(SUPERVISED_THREAD_PREFIX));
            if !supervised {
                previous(info);
            }
        }));
    });
}

/// Render a caught panic payload.
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `work` once under supervision — on a thread of its own, behind
/// panic isolation and the optional watchdog deadline — and report what
/// happened.
///
/// Returns the value on success, a [`BenchFailure`] for an error, a
/// caught panic or an elapsed deadline, and the supervision counters
/// either way.
pub fn supervise<T: Send + 'static>(
    name: &str,
    sup: &SupervisorConfig,
    work: impl FnOnce() -> Result<T, ExperimentError> + Send + 'static,
) -> (Result<T, BenchFailure>, SupervisorStats) {
    install_quiet_panic_hook();
    let mut stats = SupervisorStats::default();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(format!("{SUPERVISED_THREAD_PREFIX}{name}"))
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(work)));
        });
    let vanished = || ExperimentError::Panic("benchmark thread vanished".to_string());
    let outcome = match spawned {
        Err(e) => Err(ExperimentError::Panic(format!("thread spawn failed: {e}"))),
        Ok(_handle) => {
            let received = match sup.watchdog {
                Some(limit) => rx.recv_timeout(limit).map_err(|e| match e {
                    RecvTimeoutError::Timeout => {
                        stats.watchdog_fired += 1;
                        ExperimentError::Timeout { limit }
                    }
                    RecvTimeoutError::Disconnected => vanished(),
                }),
                None => rx.recv().map_err(|_| vanished()),
            };
            match received {
                Err(e) => Err(e),
                Ok(Err(payload)) => {
                    stats.panics_caught += 1;
                    Err(ExperimentError::Panic(panic_payload(payload.as_ref())))
                }
                Ok(Ok(result)) => result,
            }
        }
    };
    match outcome {
        Ok(value) => {
            stats.completed += 1;
            (Ok(value), stats)
        }
        Err(error) => {
            stats.failed += 1;
            let failure = BenchFailure {
                name: name.to_string(),
                error: error.to_string(),
                elapsed: start.elapsed(),
            };
            (Err(failure), stats)
        }
    }
}

/// What a benchmark worker hands back: the supervised outcome and its
/// counters.
type Slot = (Result<BenchResult, BenchFailure>, SupervisorStats);

/// The slot of a benchmark the supervisor itself lost (a panic outside
/// `supervise`, or a worker that died): still a failure record, never
/// a silently dropped benchmark.
fn lost(name: &str, error: String) -> Slot {
    let failure = BenchFailure {
        name: name.to_string(),
        error,
        elapsed: Duration::ZERO,
    };
    let stats = SupervisorStats {
        failed: 1,
        ..SupervisorStats::default()
    };
    (Err(failure), stats)
}

/// Run the full 12-benchmark suite under supervision, degrading
/// gracefully: every benchmark the supervisor cannot complete becomes a
/// [`BenchFailure`] record in the returned [`SuiteResult`] while all
/// other results are kept.
#[must_use]
pub fn run_suite_supervised(config: &ExperimentConfig, sup: &SupervisorConfig) -> SuiteResult {
    // A bounded worker pool: one core budget of `available_parallelism`
    // permits pays for every thread that interprets. Each worker holds
    // a permit while it claims benchmarks through a shared cursor, and
    // gives it back once none are left; a benchmark's evaluation
    // phases spend free permits on helpers for its input runs, so
    // cores that finished their benchmarks help the ones still
    // running. Workers write into a fixed slot per benchmark, so the
    // assembled results are in suite order regardless of completion
    // order (and independent of the worker count).
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let budget = Arc::new(CoreBudget::new(cores));
    let n_workers = cores.min(SUITE.len());
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new(vec![None; SUITE.len()]);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    // There are no more workers than permits.
                    let _permit = budget.try_take();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        let Some(bench) = SUITE.get(i) else {
                            break;
                        };
                        let cfg = config.clone();
                        let budget = Arc::clone(&budget);
                        // `supervise` already isolates benchmark panics;
                        // this outer guard keeps a supervisor-level panic
                        // (a harness bug) from killing the worker and
                        // starving the remaining benchmarks.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            supervise(bench.name, sup, move || {
                                run_benchmark_with_budget(bench, &cfg, &budget)
                            })
                        }));
                        let slot = outcome.unwrap_or_else(|payload| {
                            let payload = panic_payload(payload.as_ref());
                            lost(bench.name, format!("supervisor panicked: {payload}"))
                        });
                        if let Ok(mut slots) = slots.lock() {
                            slots[i] = Some(slot);
                        }
                    }
                })
            })
            .collect();
        // Joined here, so a worker's panic is not re-raised: the
        // benchmark it held is left without a slot instead.
        for worker in workers {
            let _ = worker.join();
        }
    });

    let slots = slots
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut stats = SupervisorStats::default();
    let mut benches = Vec::new();
    let mut failures = Vec::new();
    for (bench, slot) in SUITE.iter().zip(slots) {
        // A worker died before filling the slot (should be unreachable
        // given the guard above).
        let (outcome, s) = slot.unwrap_or_else(|| {
            lost(
                bench.name,
                "supervisor worker lost before completing".to_string(),
            )
        });
        stats.merge(&s);
        match outcome {
            Ok(result) => benches.push(result),
            Err(failure) => failures.push(failure),
        }
    }
    SuiteResult {
        benches,
        failures,
        supervisor: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_interp::ExecError;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A closure that counts its calls into `calls` and then runs `f`.
    fn counted<T>(
        calls: &Arc<AtomicU32>,
        f: impl FnOnce() -> Result<T, ExperimentError> + Send + 'static,
    ) -> impl FnOnce() -> Result<T, ExperimentError> + Send + 'static {
        let calls = Arc::clone(calls);
        move || {
            calls.fetch_add(1, Ordering::SeqCst);
            f()
        }
    }

    #[test]
    fn first_attempt_success_needs_no_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let (out, stats) = supervise(
            "t",
            &SupervisorConfig::default(),
            counted(&calls, || Ok(42u32)),
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn permanent_errors_fail_without_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let (out, stats) = supervise::<u32>(
            "t",
            &SupervisorConfig::default(),
            counted(&calls, || {
                Err(ExperimentError::Exec(ExecError::OutOfFuel {
                    at: branchlab_ir::Addr(0),
                }))
            }),
        );
        let failure = out.unwrap_err();
        assert_eq!(
            failure.error,
            "evaluation run failed: out of fuel at @000000"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((stats.completed, stats.failed), (0, 1));
    }

    #[test]
    fn panics_are_captured_and_counted() {
        let calls = Arc::new(AtomicU32::new(0));
        let (out, stats) = supervise::<u32>(
            "t",
            &SupervisorConfig::default(),
            counted(&calls, || panic!("boom")),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.error, "benchmark panicked: boom");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((stats.panics_caught, stats.failed), (1, 1));
    }

    #[test]
    fn watchdog_abandons_stuck_attempts() {
        let sup = SupervisorConfig {
            watchdog: Some(Duration::from_millis(20)),
        };
        let calls = Arc::new(AtomicU32::new(0));
        let (out, stats) = supervise::<u32>(
            "t",
            &sup,
            counted(&calls, || {
                std::thread::sleep(Duration::from_millis(400));
                Ok(1)
            }),
        );
        let failure = out.unwrap_err();
        assert!(failure.error.contains("watchdog"), "{}", failure.error);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((stats.watchdog_fired, stats.failed), (1, 1));
    }
}
