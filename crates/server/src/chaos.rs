//! Server-side deterministic chaos injection.
//!
//! The experiment harness already proves fault handling offline with
//! [`FaultInjector`]; this module promotes the same seeded-decision
//! scheme into the serving path. Four fault classes, each behind its
//! own `--chaos-*` rate, each exercising a different recovery
//! mechanism:
//!
//! | site            | injected trouble            | what must absorb it            |
//! |-----------------|-----------------------------|--------------------------------|
//! | `worker`        | panic outside the sweep's own `catch_unwind` | pool worker restart (`server.worker.restarts`), slot drop-guard → `500` |
//! | `compute`       | sleep before the sweep      | deadlines / admission          |
//! | `cache_read`    | bit-flip in a cached body   | LRU hash validation → recompute (`server.cache.corrupt`) |
//! | `spill_write`   | snapshot write failure      | best-effort spill, retried next interval (`server.spill.errors`) |
//!
//! Decisions are pure hashes of `(seed, site, sequence number, lane)`
//! via [`FaultInjector::draw`], so a chaos run at a fixed seed injects
//! the same fault pattern every time requests arrive in the same
//! order — which is how `tests/chaos.rs` can assert exact recovery
//! behavior. Responses stay byte-identical to a
//! fault-free run no matter what fires: every class either delays,
//! is detected and recomputed, or costs one request a `500` that a
//! retry serves correctly.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use branchlab_experiments::fault::FIRST_CUSTOM_LANE;
use branchlab_experiments::{FaultConfig, FaultInjector};

/// Chaos rates, one per server fault class (all zero by default).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the decision hash.
    pub seed: u64,
    /// Probability a sweep's worker job panics before the sweep's own
    /// panic isolation can catch it.
    pub worker_panic_rate: f64,
    /// Probability a sweep computation sleeps for
    /// [`ChaosConfig::delay`] first.
    pub slow_compute_rate: f64,
    /// Sleep injected by the slow-compute lane.
    pub delay: Duration,
    /// Probability a cache read observes a corrupted body.
    pub cache_corrupt_rate: f64,
    /// Probability a spill snapshot write fails.
    pub spill_fail_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x000C_4A05,
            worker_panic_rate: 0.0,
            slow_compute_rate: 0.0,
            delay: Duration::from_millis(50),
            cache_corrupt_rate: 0.0,
            spill_fail_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// `true` when any fault class has a nonzero rate.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.worker_panic_rate > 0.0
            || self.slow_compute_rate > 0.0
            || self.cache_corrupt_rate > 0.0
            || self.spill_fail_rate > 0.0
    }
}

/// Custom [`FaultInjector::draw`] lanes, one per server fault class.
mod lane {
    use super::FIRST_CUSTOM_LANE;
    pub const WORKER_PANIC: u64 = FIRST_CUSTOM_LANE;
    pub const SLOW_COMPUTE: u64 = FIRST_CUSTOM_LANE + 1;
    pub const CACHE_CORRUPT: u64 = FIRST_CUSTOM_LANE + 2;
    pub const SPILL_FAIL: u64 = FIRST_CUSTOM_LANE + 3;
}

/// The daemon's chaos engine: per-site sequence counters feeding the
/// deterministic draw, so each fault class sees a stable decision
/// stream independent of how the classes interleave.
pub struct Chaos {
    cfg: ChaosConfig,
    worker_seq: AtomicU32,
    compute_seq: AtomicU32,
    cache_seq: AtomicU32,
    spill_seq: AtomicU32,
}

impl Chaos {
    /// A chaos engine for `cfg` (free no-ops when nothing is enabled).
    #[must_use]
    pub fn new(cfg: ChaosConfig) -> Self {
        Chaos {
            cfg,
            worker_seq: AtomicU32::new(0),
            compute_seq: AtomicU32::new(0),
            cache_seq: AtomicU32::new(0),
            spill_seq: AtomicU32::new(0),
        }
    }

    /// Is any fault class armed?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    fn draw(&self, site: &'static str, seq: &AtomicU32, lane: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let attempt = seq.fetch_add(1, Ordering::SeqCst);
        FaultInjector::new(
            &FaultConfig {
                seed: self.cfg.seed,
                ..FaultConfig::default()
            },
            "server",
            attempt,
        )
        .draw(site, lane, rate)
    }

    /// Should this worker job panic? (Trips *outside* the sweep's own
    /// `catch_unwind`, so the pool's self-healing path is exercised.)
    #[must_use]
    pub fn worker_panic(&self) -> bool {
        self.draw(
            "worker",
            &self.worker_seq,
            lane::WORKER_PANIC,
            self.cfg.worker_panic_rate,
        )
    }

    /// Sleep to inject before this sweep's compute, if the slow lane
    /// fires.
    #[must_use]
    pub fn slow_compute(&self) -> Option<Duration> {
        self.draw(
            "compute",
            &self.compute_seq,
            lane::SLOW_COMPUTE,
            self.cfg.slow_compute_rate,
        )
        .then_some(self.cfg.delay)
    }

    /// Should this cache read observe a corrupted body?
    #[must_use]
    pub fn corrupt_cache_read(&self) -> bool {
        self.draw(
            "cache_read",
            &self.cache_seq,
            lane::CACHE_CORRUPT,
            self.cfg.cache_corrupt_rate,
        )
    }

    /// Should this spill snapshot write fail?
    #[must_use]
    pub fn fail_spill_write(&self) -> bool {
        self.draw(
            "spill_write",
            &self.spill_seq,
            lane::SPILL_FAIL,
            self.cfg.spill_fail_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_chaos_never_fires_and_burns_no_sequence() {
        let chaos = Chaos::new(ChaosConfig::default());
        assert!(!chaos.enabled());
        for _ in 0..50 {
            assert!(!chaos.worker_panic());
            assert!(chaos.slow_compute().is_none());
            assert!(!chaos.corrupt_cache_read());
            assert!(!chaos.fail_spill_write());
        }
        assert_eq!(chaos.worker_seq.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn rate_one_always_fires() {
        let chaos = Chaos::new(ChaosConfig {
            worker_panic_rate: 1.0,
            cache_corrupt_rate: 1.0,
            ..ChaosConfig::default()
        });
        assert!(chaos.enabled());
        for _ in 0..10 {
            assert!(chaos.worker_panic());
            assert!(chaos.corrupt_cache_read());
        }
    }

    #[test]
    fn decision_streams_are_deterministic_per_seed() {
        let stream = |seed| {
            let chaos = Chaos::new(ChaosConfig {
                seed,
                worker_panic_rate: 0.5,
                ..ChaosConfig::default()
            });
            (0..64).map(|_| chaos.worker_panic()).collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        // A 0.5 lane actually mixes both outcomes.
        assert!(stream(1).iter().any(|&b| b) && stream(1).iter().any(|&b| !b));
    }

    #[test]
    fn lanes_are_independent_sequences() {
        let chaos = Chaos::new(ChaosConfig {
            worker_panic_rate: 0.5,
            cache_corrupt_rate: 0.5,
            ..ChaosConfig::default()
        });
        // Interleaving cache draws must not perturb the worker stream.
        let solo = {
            let c = Chaos::new(ChaosConfig {
                worker_panic_rate: 0.5,
                cache_corrupt_rate: 0.5,
                ..ChaosConfig::default()
            });
            (0..32).map(|_| c.worker_panic()).collect::<Vec<_>>()
        };
        let interleaved: Vec<bool> = (0..32)
            .map(|_| {
                let _ = chaos.corrupt_cache_read();
                chaos.worker_panic()
            })
            .collect();
        assert_eq!(solo, interleaved);
    }
}
