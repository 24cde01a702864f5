//! Server-side deterministic chaos injection.
//!
//! Four fault classes, each behind its own `--chaos-*` rate, each
//! exercising a different recovery mechanism:
//!
//! | site            | injected trouble            | what must absorb it            |
//! |-----------------|-----------------------------|--------------------------------|
//! | `worker`        | panic outside the sweep's own `catch_unwind` | pool worker restart (`server.worker.restarts`), slot drop-guard → `500` |
//! | `compute`       | sleep before the sweep      | deadlines / admission          |
//! | `cache_read`    | bit-flip in a cached body   | LRU hash validation → recompute (`server.cache.corrupt`) |
//! | `spill_write`   | snapshot write failure      | best-effort spill, retried next interval (`server.spill.errors`) |
//!
//! Each decision is a pure hash of `(seed, site, sequence number,
//! lane)` seeding one [`Rng`] draw, so a chaos run at a fixed seed
//! injects the same fault pattern every time requests arrive in the
//! same order — which is how `tests/chaos.rs` can assert exact
//! recovery behavior. Responses stay byte-identical to a fault-free
//! run no matter what fires: every class either delays, is detected
//! and recomputed, or costs one request a `500` that a retry serves
//! correctly.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use branchlab_telemetry::Rng;

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

/// Decision lanes, one per server fault class; a lane tag keeps two
/// classes drawing at the same sequence number decorrelated.
mod lane {
    pub const WORKER_PANIC: u64 = 16;
    pub const SLOW_COMPUTE: u64 = 17;
    pub const CACHE_CORRUPT: u64 = 18;
    pub const SPILL_FAIL: u64 = 19;
}

/// 64-bit FNV-1a, the site and scope component of the decision key.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One decision: does draw `seq` of `site`'s lane fire at `rate`, under
/// `seed`? A pure function of its arguments.
fn decide(seed: u64, site: &str, seq: u32, lane: u64, rate: f64) -> bool {
    let key = seed
        .wrapping_add(fnv1a(b"server").rotate_left(7))
        .wrapping_add(fnv1a(site.as_bytes()).rotate_left(29))
        .wrapping_add(u64::from(seq).wrapping_mul(0x9e37_79b9))
        .wrapping_add(lane.wrapping_mul(0x517c_c1b7_2722_0a95));
    Rng::seed_from_u64(key).gen_bool(rate)
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
        decide(
            self.cfg.seed,
            site,
            seq.fetch_add(1, Ordering::SeqCst),
            lane,
            rate,
        )
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

    /// The first 64 decisions of the four lanes (worker, compute,
    /// cache, spill) at rate 0.5, bit `i` set when draw `i` fired.
    fn decision_bits(seed: u64) -> [u64; 4] {
        let chaos = Chaos::new(ChaosConfig {
            seed,
            worker_panic_rate: 0.5,
            slow_compute_rate: 0.5,
            delay: Duration::ZERO,
            cache_corrupt_rate: 0.5,
            spill_fail_rate: 0.5,
        });
        let bits =
            |draw: &dyn Fn() -> bool| (0..64).fold(0u64, |acc, i| acc | u64::from(draw()) << i);
        [
            bits(&|| chaos.worker_panic()),
            bits(&|| chaos.slow_compute().is_some()),
            bits(&|| chaos.corrupt_cache_read()),
            bits(&|| chaos.fail_spill_write()),
        ]
    }

    #[test]
    fn decision_streams_are_pinned() {
        // A chaos run at a fixed seed must inject the same faults in
        // every build: these are the streams the daemon has always drawn.
        assert_eq!(
            decision_bits(42),
            [
                0x0995e268763c4554,
                0x716619c583bf26fc,
                0xaf7bb6ba7c32a376,
                0x3dd5b0e7d4d1b3a2
            ]
        );
        assert_eq!(
            decision_bits(7),
            [
                0x08dd9efb2a15747f,
                0xb0c188beb3854155,
                0x06c26936b3231c42,
                0x73af2c003d8d01c9
            ]
        );
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
