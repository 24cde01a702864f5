//! One core budget per suite run, and the run loop that spends it.
//!
//! The paper measures every benchmark over several input runs, each a
//! separate program invocation whose hardware buffers start cold, so
//! runs are independent units whose counts simply add. A
//! [`CoreBudget`] holds one permit per core: the supervisor's benchmark
//! workers each hold one while they claim benchmarks, and a
//! benchmark's evaluation phases hand a free permit to a helper thread
//! that interprets some of its runs. When a worker runs out of
//! benchmarks its permit returns to the budget, and a benchmark still
//! in flight picks it up at once — so the suite's cores stay busy until
//! its last run, and results never depend on which thread interpreted
//! which run.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

use branchlab_telemetry::MetricsRegistry;

use crate::harness::ExperimentError;

/// Runs interpreted by a benchmark's evaluation phases, both layouts,
/// every attempt.
pub const RUNS_INTERPRETED: &str = "suite.runs.interpreted";
/// Of [`RUNS_INTERPRETED`], the runs a helper thread interpreted.
pub const RUNS_HELPED: &str = "suite.runs.helped";

/// A fixed number of permits, one per core the holder may keep busy.
/// A permit comes back when its [`Permit`] drops — on unwinding too —
/// and wakes the run loops' standby helpers waiting for one.
///
/// ```
/// use branchlab_experiments::CoreBudget;
///
/// let budget = CoreBudget::new(1);
/// let permit = budget.try_take().expect("one permit is free");
/// assert!(budget.try_take().is_none());
/// drop(permit);
/// assert_eq!(budget.available(), 1);
/// ```
#[derive(Debug)]
pub struct CoreBudget {
    permits: usize,
    free: Mutex<usize>,
    returned: Condvar,
}

impl CoreBudget {
    /// A budget of `permits` permits. With none, every run loop that
    /// spends it interprets its runs serially on the calling thread.
    #[must_use]
    pub fn new(permits: usize) -> Self {
        CoreBudget {
            permits,
            free: Mutex::new(permits),
            returned: Condvar::new(),
        }
    }

    /// Every update is one step on a plain count, so a count a panicking
    /// holder left behind is still valid.
    fn free(&self) -> MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Permits free right now.
    #[must_use]
    pub fn available(&self) -> usize {
        *self.free()
    }

    /// Take a permit if one is free; never waits for one.
    #[must_use]
    pub fn try_take(&self) -> Option<Permit<'_>> {
        let mut free = self.free();
        *free = free.checked_sub(1)?;
        Some(Permit { budget: self })
    }

    /// Wait until a permit comes back and take it, or return `None` as
    /// soon as `give_up` holds; a waiter that wants to stop is woken by
    /// [`CoreBudget::wake_waiters`].
    fn take_when_free(&self, give_up: impl Fn() -> bool) -> Option<Permit<'_>> {
        let mut free = self.free();
        loop {
            if give_up() {
                return None;
            }
            if let Some(left) = free.checked_sub(1) {
                *free = left;
                return Some(Permit { budget: self });
            }
            free = self
                .returned
                .wait(free)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wake every [`CoreBudget::take_when_free`] waiter to re-check.
    fn wake_waiters(&self) {
        let _free = self.free();
        self.returned.notify_all();
    }
}

/// One taken permit; dropping it returns the permit to its budget.
#[derive(Debug)]
pub struct Permit<'a> {
    budget: &'a CoreBudget,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.budget.free() += 1;
        self.budget.returned.notify_all();
    }
}

/// What one helper interpreted: its hooks, and `(run index, result)`
/// in claim order.
type Claimed<H, T> = (H, Vec<(usize, Result<T, ExperimentError>)>);

/// On drop — when the caller stops claiming, also by unwinding —
/// exhaust the cursor and wake the standby helper, so it stops waiting
/// and the scope can end.
struct CloseClaims<'a> {
    budget: &'a CoreBudget,
    cursor: &'a AtomicUsize,
    runs: usize,
}

impl Drop for CloseClaims<'_> {
    fn drop(&mut self) {
        self.cursor.fetch_max(self.runs, Ordering::Relaxed);
        self.budget.wake_waiters();
    }
}

fn spawn_helper<'scope, R: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    name: &str,
    helper: impl FnOnce() -> R + Send + 'scope,
) -> Option<ScopedJoinHandle<'scope, R>> {
    // A failed spawn drops the closure with any permit it holds; the
    // runs stay on the other claimers.
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn_scoped(scope, helper)
        .ok()
}

/// Interpret every run `order` lists — a permutation of `0..order.len()`
/// — with `run_one`, on the calling thread and on helpers that
/// `budget`'s permits pay for.
///
/// Claimers take runs in `order` from one atomic cursor, each into its
/// own hooks from `new_hooks`. Helpers are scoped threads named
/// `helper_name` that claim runs until the cursor is exhausted: one
/// for each permit the calling thread finds free before one of its
/// claims, and a standby that waits for a permit another thread gives
/// back mid-run (a budget with no permits gets no standby). Every
/// helper's hooks are then merged into the caller's with `merge`, which
/// must be exact for hooks whose runs each started cold, and the
/// results come back in run-index order. After a failure no claimer
/// starts a run with a higher index, and the lowest-index error is
/// returned — the one a serial loop over the runs would return. A
/// helper's panic resumes on the calling thread with its payload.
/// Every claimed run counts into `metrics`' [`RUNS_INTERPRETED`], and a
/// helper's also into [`RUNS_HELPED`].
pub(crate) fn share_runs<H: Send, T: Send>(
    budget: &CoreBudget,
    helper_name: &str,
    metrics: &MetricsRegistry,
    order: &[usize],
    new_hooks: impl Fn() -> H + Sync,
    run_one: impl Fn(usize, &mut H) -> Result<T, ExperimentError> + Sync,
    merge: impl Fn(&mut H, &H),
) -> Result<(H, Vec<T>), ExperimentError> {
    let runs = order.len();
    let interpreted = metrics.counter(RUNS_INTERPRETED);
    let helped = metrics.counter(RUNS_HELPED);
    // Both atomics only hand out indices; results travel through joins.
    let cursor = AtomicUsize::new(0);
    let first_failure = AtomicUsize::new(usize::MAX);
    let claim = |hooks: &mut H, helper: bool| loop {
        let i = *order.get(cursor.fetch_add(1, Ordering::Relaxed))?;
        if i > first_failure.load(Ordering::Relaxed) {
            continue;
        }
        let result = run_one(i, hooks);
        if result.is_err() {
            first_failure.fetch_min(i, Ordering::Relaxed);
        }
        interpreted.inc();
        if helper {
            helped.inc();
        }
        return Some((i, result));
    };
    let help = |_permit: Permit<'_>| -> Claimed<H, T> {
        let mut hooks = new_hooks();
        let mut claimed = Vec::new();
        while let Some(run) = claim(&mut hooks, true) {
            claimed.push(run);
        }
        (hooks, claimed)
    };

    let (hooks, mut claimed) = std::thread::scope(|scope| {
        let (claim, help, cursor) = (&claim, &help, &cursor);
        let mut helpers = Vec::new();
        if budget.permits > 0 && runs > 1 {
            let exhausted = move || cursor.load(Ordering::Relaxed) >= runs;
            helpers.extend(spawn_helper(scope, helper_name, move || {
                budget.take_when_free(exhausted).map(help)
            }));
        }
        let closing = CloseClaims {
            budget,
            cursor,
            runs,
        };
        let mut hooks = new_hooks();
        let mut claimed = Vec::new();
        loop {
            if cursor.load(Ordering::Relaxed) + 1 < runs {
                if let Some(permit) = budget.try_take() {
                    helpers.extend(spawn_helper(scope, helper_name, move || Some(help(permit))));
                }
            }
            match claim(&mut hooks, false) {
                Some(run) => claimed.push(run),
                None => break,
            }
        }
        drop(closing);
        let mut panicked = None;
        for helper in helpers {
            match helper.join() {
                Ok(Some((theirs, runs))) => {
                    merge(&mut hooks, &theirs);
                    claimed.extend(runs);
                }
                Ok(None) => {}
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        (hooks, claimed)
    });

    // Runs after the first failure may be missing, so the walk returns
    // at that failure before it reaches a gap.
    claimed.sort_unstable_by_key(|&(i, _)| i);
    let mut results = Vec::with_capacity(runs);
    for (i, result) in claimed {
        assert_eq!(i, results.len(), "run {i} claimed out of order");
        results.push(result?);
    }
    assert_eq!(results.len(), runs, "every run was interpreted");
    Ok((hooks, results))
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_interp::ExecError;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    const HELPER: &str = "bl-sup:test:run-helper";

    fn on_helper() -> bool {
        std::thread::current().name() == Some(HELPER)
    }

    #[test]
    fn permits_are_taken_without_blocking_and_returned_on_drop() {
        let budget = CoreBudget::new(2);
        let a = budget.try_take();
        let b = budget.try_take();
        assert!(a.is_some() && b.is_some());
        assert!(budget.try_take().is_none());
        drop(a);
        assert_eq!(budget.available(), 1);
        let unwound = std::panic::catch_unwind(|| {
            let _held = budget.try_take();
            panic!("holder unwinds");
        });
        assert!(unwound.is_err());
        drop(b);
        assert_eq!(budget.available(), 2, "unwinding returned the permit");
    }

    #[test]
    fn without_a_spare_permit_every_run_stays_on_the_caller_in_claim_order() {
        let reg = MetricsRegistry::new();
        let caller = std::thread::current().id();
        let (claimed, results) = share_runs(
            &CoreBudget::new(0),
            HELPER,
            &reg,
            &[4, 2, 0, 1, 3],
            Vec::new,
            |i, claimed| {
                assert_eq!(std::thread::current().id(), caller);
                claimed.push(i);
                Ok(i * 10)
            },
            |claimed, theirs| claimed.extend(theirs),
        )
        .unwrap();
        assert_eq!(claimed, vec![4, 2, 0, 1, 3]);
        assert_eq!(results, vec![0, 10, 20, 30, 40], "results in run order");
        assert_eq!(reg.counter(RUNS_INTERPRETED).get(), 5);
        assert_eq!(reg.counter(RUNS_HELPED).get(), 0);
    }

    /// Two runs, a spare permit, and a barrier each claimer waits at
    /// inside its run: the caller cannot claim the second run before
    /// the helper claims it, so one run lands on each thread.
    fn one_run_each<T: Send>(
        budget: &CoreBudget,
        reg: &MetricsRegistry,
        run: impl Fn(usize) -> Result<T, ExperimentError> + Sync,
    ) -> Result<(u64, Vec<T>), ExperimentError> {
        let barrier = Barrier::new(2);
        share_runs(
            budget,
            HELPER,
            reg,
            &[0, 1],
            || 0u64,
            |i, on| {
                barrier.wait();
                *on += 1;
                run(i)
            },
            |on, theirs| *on += theirs,
        )
    }

    #[test]
    fn a_spare_permit_pays_for_a_helper_and_merges_its_hooks() {
        let budget = CoreBudget::new(1);
        let reg = MetricsRegistry::new();
        let (claimers_runs, results) = one_run_each(&budget, &reg, Ok).unwrap();
        assert_eq!(claimers_runs, 2, "the helper's hooks were merged");
        assert_eq!(results, vec![0, 1]);
        assert_eq!(reg.counter(RUNS_INTERPRETED).get(), 2);
        assert_eq!(reg.counter(RUNS_HELPED).get(), 1);
        assert_eq!(budget.available(), 1);
    }

    #[test]
    fn a_permit_given_back_mid_run_recruits_the_standby_at_once() {
        let budget = CoreBudget::new(1);
        let held = Mutex::new(budget.try_take());
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let reg = MetricsRegistry::new();
        // Run 0 gives the permit back and then waits for run 1, which
        // only a helper can claim while run 0 is still running.
        let (_, on_helper_flags) = share_runs(
            &budget,
            HELPER,
            &reg,
            &[0, 1],
            || (),
            |i, ()| {
                if i == 0 {
                    drop(held.lock().unwrap().take());
                    let helped = rx.lock().unwrap().recv_timeout(Duration::from_secs(30));
                    assert!(helped.is_ok(), "no helper took the returned permit");
                } else {
                    tx.send(()).unwrap();
                }
                Ok(on_helper())
            },
            |(), ()| {},
        )
        .unwrap();
        assert_eq!(on_helper_flags, vec![false, true]);
        assert_eq!(reg.counter(RUNS_HELPED).get(), 1);
        assert_eq!(budget.available(), 1);
    }

    #[test]
    fn the_lowest_failing_run_wins_whichever_thread_ran_it() {
        let fuel = |i: usize| ExecError::OutOfFuel {
            at: branchlab_ir::Addr(i as u32),
        };
        // Odd runs fail: run 1 wins, also when run 5 fails first.
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] {
            for budget in [0, 1] {
                let err = share_runs(
                    &CoreBudget::new(budget),
                    HELPER,
                    &MetricsRegistry::new(),
                    &order,
                    || (),
                    |i, ()| {
                        if i % 2 == 1 {
                            Err(ExperimentError::Exec(fuel(i)))
                        } else {
                            Ok(i)
                        }
                    },
                    |(), ()| {},
                )
                .unwrap_err();
                assert!(
                    matches!(err, ExperimentError::Exec(ExecError::OutOfFuel { at }) if at.0 == 1),
                    "order {order:?}, budget {budget}: {err:?}"
                );
            }
        }
        // Both runs fail; the helper may finish first, run 0 still wins.
        let err = one_run_each(&CoreBudget::new(1), &MetricsRegistry::new(), |i| {
            Err::<(), _>(ExperimentError::Exec(fuel(i)))
        })
        .unwrap_err();
        assert!(
            matches!(err, ExperimentError::Exec(ExecError::OutOfFuel { at }) if at.0 == 0),
            "{err:?}"
        );
    }

    #[test]
    fn a_helpers_panic_resumes_on_the_caller_with_its_payload() {
        let budget = Arc::new(CoreBudget::new(1));
        let b = Arc::clone(&budget);
        let (out, stats) =
            crate::supervise::<()>("t", &crate::SupervisorConfig::default(), move || {
                one_run_each(&b, &MetricsRegistry::new(), |_| {
                    assert!(!on_helper(), "helper boom");
                    Ok(())
                })
                .map(|_| ())
            });
        let failure = out.unwrap_err();
        assert_eq!(failure.error, "benchmark panicked: helper boom");
        assert_eq!(stats.panics_caught, 1);
        assert_eq!(budget.available(), 1, "the helper's permit came back");
    }
}
