//! branchlab-guard: the supervision layer between `run_suite` and the
//! per-benchmark pipeline.
//!
//! Every benchmark attempt runs on its own thread behind
//! `catch_unwind`, an optional wall-clock watchdog, and a
//! retry-with-exponential-backoff policy driven by the
//! transient/permanent error taxonomy ([`ExperimentError::class`]):
//!
//! * a panicking benchmark becomes a [`BenchFailure`] record instead of
//!   tearing down the whole suite;
//! * a benchmark that exceeds the watchdog deadline is abandoned and
//!   recorded as [`ExperimentError::Timeout`] (the stuck thread is
//!   detached — it can burn CPU until the process exits, which is the
//!   price of a deadline `std` threads cannot enforce cooperatively;
//!   its run helpers give their core permits back as they finish);
//! * transient errors (injected faults, panics, timeouts) are retried
//!   up to [`SupervisorConfig::max_attempts`] with exponential backoff,
//!   permanent errors (every real interpreter/pipeline error) fail
//!   immediately — retrying a deterministic fault is wasted work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use branchlab_interp::ErrorClass;
use branchlab_workloads::SUITE;

use crate::budget::CoreBudget;
use crate::harness::{
    run_benchmark_with_budget, BenchResult, ExperimentConfig, ExperimentError, SuiteResult,
};

/// Thread-name prefix marking supervised benchmark attempts; the panic
/// hook installed by the supervisor suppresses the default
/// panic-message spew for these threads only (their payloads are
/// captured and reported as failure records instead). Run helpers
/// carry it too, since their panics resume on the attempt's thread.
pub(crate) const SUPERVISED_THREAD_PREFIX: &str = "bl-sup:";

/// Supervision policy for a suite run.
#[derive(Clone, Debug, PartialEq)]
pub struct SupervisorConfig {
    /// Maximum attempts per benchmark (≥ 1); only transient errors are
    /// retried.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base × 2^(n−1)`, capped at
    /// [`SupervisorConfig::backoff_max`].
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
    /// Wall-clock deadline per attempt; `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            watchdog: None,
        }
    }
}

impl SupervisorConfig {
    /// The backoff slept after failed attempt `attempt` (1-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << (attempt - 1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

/// One benchmark the supervisor gave up on.
#[derive(Clone, Debug)]
pub struct BenchFailure {
    /// Benchmark name.
    pub name: String,
    /// Rendered last error.
    pub error: String,
    /// Classification of the last error.
    pub class: ErrorClass,
    /// Attempts consumed (1 for a permanent error, up to
    /// [`SupervisorConfig::max_attempts`] for transient ones).
    pub attempts: u32,
    /// Wall clock from first attempt to giving up.
    pub elapsed: Duration,
}

impl std::fmt::Display for BenchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: FAILED ({}, {} attempt{}, {:.2}s): {}",
            self.name,
            self.class,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
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
    /// Benchmarks that failed after supervision.
    pub failed: u64,
    /// Retry attempts performed (attempts beyond each benchmark's
    /// first).
    pub retries: u64,
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
        self.retries += other.retries;
        self.watchdog_fired += other.watchdog_fired;
        self.panics_caught += other.panics_caught;
    }

    /// The counters as `(name, value)` pairs, for metrics export.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("benches_completed", self.completed),
            ("benches_failed", self.failed),
            ("retries", self.retries),
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

/// The attempt closure [`supervise`] drives: called with the 1-based
/// attempt number, from a freshly spawned thread each attempt.
pub type AttemptFn<T> = Arc<dyn Fn(u32) -> Result<T, ExperimentError> + Send + Sync>;

/// Run `attempt_fn` under full supervision — panic isolation, optional
/// watchdog deadline, transient-error retries with exponential
/// backoff — and report what happened.
///
/// Returns the value and the number of attempts consumed on success, a
/// [`BenchFailure`] once retries are exhausted or a permanent error
/// surfaces, and the supervision counters either way.
pub fn supervise<T: Send + 'static>(
    name: &str,
    sup: &SupervisorConfig,
    attempt_fn: AttemptFn<T>,
) -> (Result<(T, u32), BenchFailure>, SupervisorStats) {
    install_quiet_panic_hook();
    let mut stats = SupervisorStats::default();
    let start = Instant::now();
    let max_attempts = sup.max_attempts.max(1);
    let mut last: Option<ExperimentError> = None;
    let mut attempts_used = 0;

    for attempt in 1..=max_attempts {
        attempts_used = attempt;
        if attempt > 1 {
            stats.retries += 1;
            std::thread::sleep(sup.backoff(attempt - 1));
        }

        let (tx, rx) = mpsc::channel();
        let f = Arc::clone(&attempt_fn);
        let spawned = std::thread::Builder::new()
            .name(format!("{SUPERVISED_THREAD_PREFIX}{name}:a{attempt}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(attempt)));
                let _ = tx.send(result);
            });

        let outcome = match spawned {
            Err(e) => Err(ExperimentError::Panic(format!("thread spawn failed: {e}"))),
            Ok(_handle) => {
                let received = match sup.watchdog {
                    Some(limit) => rx.recv_timeout(limit).map_err(|e| match e {
                        RecvTimeoutError::Timeout => {
                            stats.watchdog_fired += 1;
                            ExperimentError::Timeout { limit }
                        }
                        RecvTimeoutError::Disconnected => {
                            ExperimentError::Panic("benchmark thread vanished".to_string())
                        }
                    }),
                    None => rx.recv().map_err(|_| {
                        ExperimentError::Panic("benchmark thread vanished".to_string())
                    }),
                };
                match received {
                    Err(e) => Err(e),
                    Ok(Err(payload)) => {
                        stats.panics_caught += 1;
                        Err(ExperimentError::Panic(panic_payload(payload.as_ref())))
                    }
                    Ok(Ok(run_result)) => run_result,
                }
            }
        };

        match outcome {
            Ok(value) => {
                stats.completed += 1;
                return (Ok((value, attempt)), stats);
            }
            Err(e) => {
                let transient = e.class().is_transient();
                last = Some(e);
                if !transient {
                    break;
                }
            }
        }
    }

    stats.failed += 1;
    let error = last.expect("at least one attempt ran");
    (
        Err(BenchFailure {
            name: name.to_string(),
            class: error.class(),
            error: error.to_string(),
            attempts: attempts_used,
            elapsed: start.elapsed(),
        }),
        stats,
    )
}

/// What a benchmark worker hands back: the supervised outcome and its
/// counters.
type Slot = (Result<(BenchResult, u32), BenchFailure>, SupervisorStats);

/// The slot of a benchmark the supervisor itself lost (a panic outside
/// `supervise`, or a worker that died): still a failure record, never
/// a silently dropped benchmark.
fn lost(name: &str, error: String) -> Slot {
    let failure = BenchFailure {
        name: name.to_string(),
        error,
        class: ErrorClass::Transient,
        attempts: 0,
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
                            let attempt_fn: AttemptFn<BenchResult> = Arc::new(move |attempt| {
                                run_benchmark_with_budget(bench, &cfg, attempt, &budget)
                            });
                            supervise(bench.name, sup, attempt_fn)
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
            Ok((result, _attempts)) => benches.push(result),
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

    fn fast() -> SupervisorConfig {
        SupervisorConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(4),
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn first_attempt_success_needs_no_retry() {
        let (out, stats) = supervise("t", &fast(), Arc::new(|_| Ok(42u32)));
        let (v, attempts) = out.unwrap();
        assert_eq!((v, attempts), (42, 1));
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let (out, stats) = supervise(
            "t",
            &fast(),
            Arc::new(move |attempt| {
                c.fetch_add(1, Ordering::SeqCst);
                if attempt < 3 {
                    Err(ExperimentError::Exec(ExecError::Injected { site: "x" }))
                } else {
                    Ok(attempt)
                }
            }),
        );
        let (v, attempts) = out.unwrap();
        assert_eq!((v, attempts), (3, 3));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn permanent_errors_fail_without_retry() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        let (out, stats) = supervise::<u32>(
            "t",
            &fast(),
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Err(ExperimentError::Exec(ExecError::OutOfFuel {
                    at: branchlab_ir::Addr(0),
                }))
            }),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.attempts, 1);
        assert_eq!(failure.class, ErrorClass::Permanent);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn retries_exhausted_reports_last_error_and_attempts() {
        let (out, stats) = supervise::<u32>(
            "t",
            &fast(),
            Arc::new(|_| Err(ExperimentError::Exec(ExecError::Injected { site: "s" }))),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.class, ErrorClass::Transient);
        assert!(failure.error.contains("injected fault at s"), "{failure}");
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn panics_are_captured_and_classified_transient() {
        let (out, stats) = supervise::<u32>(
            "t",
            &SupervisorConfig {
                max_attempts: 2,
                ..fast()
            },
            Arc::new(|attempt| panic!("boom {attempt}")),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.class, ErrorClass::Transient);
        assert_eq!(failure.attempts, 2);
        assert!(failure.error.contains("boom 2"), "{}", failure.error);
        assert_eq!(stats.panics_caught, 2);
    }

    #[test]
    fn watchdog_abandons_stuck_attempts() {
        let sup = SupervisorConfig {
            max_attempts: 2,
            watchdog: Some(Duration::from_millis(20)),
            ..fast()
        };
        let (out, stats) = supervise::<u32>(
            "t",
            &sup,
            Arc::new(|_| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(1)
            }),
        );
        let failure = out.unwrap_err();
        assert_eq!(failure.class, ErrorClass::Transient);
        assert!(failure.error.contains("watchdog"), "{}", failure.error);
        assert_eq!(stats.watchdog_fired, 2);
        assert_eq!(failure.attempts, 2);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let sup = SupervisorConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            ..SupervisorConfig::default()
        };
        assert_eq!(sup.backoff(1), Duration::from_millis(100));
        assert_eq!(sup.backoff(2), Duration::from_millis(200));
        assert_eq!(sup.backoff(3), Duration::from_millis(350));
        assert_eq!(sup.backoff(60), Duration::from_millis(350));
    }
}
