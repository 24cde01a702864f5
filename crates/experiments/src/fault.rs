//! Deterministic fault injection for the experiment harness.
//!
//! A [`FaultInjector`] sits at the phase boundaries of
//! [`run_benchmark`](crate::run_benchmark) and — at configurable,
//! seeded rates — injects three kinds of trouble:
//!
//! * **exec errors** ([`ExecError::Injected`], classified transient, so
//!   the supervisor's retry policy engages),
//! * **delays** (a `thread::sleep`, the way to exercise the watchdog),
//! * **panics** (the way to exercise `catch_unwind` isolation).
//!
//! Decisions are *stateless*: whether site `s` of benchmark `b` faults
//! on attempt `a` is a pure SplitMix64 hash of
//! `(seed, b, s, a, fault-kind)`, so outcomes are independent of thread
//! scheduling, identical across reruns with the same seed, and a
//! retried attempt gets a fresh draw (injected faults really are
//! transient). This mirrors how the probe-experiment harnesses of the
//! BTB reverse-engineering literature make flaky-trial handling
//! testable: the failure pattern is part of the experiment seed.

use std::time::Duration;

use branchlab_interp::ExecError;
use branchlab_telemetry::Rng;

/// Fault-injection configuration, carried by
/// [`ExperimentConfig`](crate::ExperimentConfig).
///
/// All rates are probabilities in `[0, 1]` evaluated independently at
/// every injection site; the default configuration injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the injection hash (independent of the workload seed so
    /// fault patterns can be varied without changing inputs).
    pub seed: u64,
    /// Probability of injecting an [`ExecError::Injected`] at a site.
    pub exec_error_rate: f64,
    /// Probability of panicking at a site.
    pub panic_rate: f64,
    /// Probability of sleeping for [`FaultConfig::delay`] at a site.
    pub delay_rate: f64,
    /// Sleep duration for delay faults.
    pub delay: Duration,
    /// Restrict injection to these benchmarks; empty means all.
    pub benches: Vec<String>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA_17,
            exec_error_rate: 0.0,
            panic_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(50),
            benches: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// `true` when any fault kind has a nonzero rate.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.exec_error_rate > 0.0 || self.panic_rate > 0.0 || self.delay_rate > 0.0
    }

    /// `true` when injection applies to `bench` (the filter list is
    /// empty or names it).
    #[must_use]
    pub fn targets(&self, bench: &str) -> bool {
        self.benches.is_empty() || self.benches.iter().any(|b| b == bench)
    }
}

/// 64-bit FNV-1a, the site/bench-name component of the decision hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The three independent decision lanes at each site. Embedders that
/// bring their own fault classes (see [`FaultInjector::draw`]) must
/// use lane tags ≥ [`FIRST_CUSTOM_LANE`] to stay decorrelated from
/// these.
#[derive(Copy, Clone)]
enum Lane {
    Delay = 1,
    Panic = 2,
    Exec = 3,
}

/// Lowest lane tag available to [`FaultInjector::draw`] callers; tags
/// below this are reserved for the built-in exec/panic/delay lanes.
pub const FIRST_CUSTOM_LANE: u64 = 16;

/// Per-(benchmark, attempt) fault injector. See the module docs for the
/// determinism contract.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    bench_hash: u64,
    attempt: u32,
    armed: bool,
}

impl FaultInjector {
    /// An injector for one attempt of one benchmark. Disarmed (all
    /// [`FaultInjector::trip`] calls are free no-ops) when `cfg` has no
    /// nonzero rate or does not target `bench`.
    #[must_use]
    pub fn new(cfg: &FaultConfig, bench: &str, attempt: u32) -> Self {
        FaultInjector {
            armed: cfg.enabled() && cfg.targets(bench),
            bench_hash: fnv1a(bench.as_bytes()),
            cfg: cfg.clone(),
            attempt,
        }
    }

    /// Whether this injector can fire at all.
    #[must_use]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// One seeded draw on a decision lane.
    fn fires(&self, site: &str, lane: Lane, rate: f64) -> bool {
        self.draw(site, lane as u64, rate)
    }

    /// One deterministic draw on a caller-defined decision lane.
    ///
    /// This is the extension point for embedders with fault classes
    /// outside the exec-error taxonomy (the server's chaos sites:
    /// cache-read corruption, spill-write failure, ...). The decision
    /// is the same pure hash of `(seed, scope, site, attempt, lane)`
    /// the built-in lanes use, but — unlike [`FaultInjector::trip`] —
    /// it is *not* gated on [`FaultInjector::armed`]: the caller owns
    /// its rates, so a zero rate is the only off switch. Use lane tags
    /// ≥ [`FIRST_CUSTOM_LANE`].
    #[must_use]
    pub fn draw(&self, site: &str, lane: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let key = self
            .cfg
            .seed
            .wrapping_add(self.bench_hash.rotate_left(7))
            .wrapping_add(fnv1a(site.as_bytes()).rotate_left(29))
            .wrapping_add(u64::from(self.attempt).wrapping_mul(0x9e37_79b9))
            .wrapping_add(lane.wrapping_mul(0x517c_c1b7_2722_0a95));
        Rng::seed_from_u64(key).gen_bool(rate)
    }

    /// Evaluate the injection site `site`: possibly sleep, possibly
    /// panic, possibly return an [`ExecError::Injected`].
    ///
    /// # Errors
    /// Returns [`ExecError::Injected`] when the exec-error lane fires.
    ///
    /// # Panics
    /// Panics (deliberately) when the panic lane fires — the supervisor
    /// converts the payload into a benchmark failure record.
    pub fn trip(&self, site: &'static str) -> Result<(), ExecError> {
        if !self.armed {
            return Ok(());
        }
        if self.fires(site, Lane::Delay, self.cfg.delay_rate) {
            std::thread::sleep(self.cfg.delay);
        }
        if self.fires(site, Lane::Panic, self.cfg.panic_rate) {
            panic!(
                "fault injection: panic at {site} (attempt {})",
                self.attempt
            );
        }
        if self.fires(site, Lane::Exec, self.cfg.exec_error_rate) {
            return Err(ExecError::Injected { site });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_exec(benches: Vec<String>) -> FaultConfig {
        FaultConfig {
            exec_error_rate: 1.0,
            benches,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn disabled_config_never_fires() {
        let inj = FaultInjector::new(&FaultConfig::default(), "wc", 1);
        assert!(!inj.armed());
        for _ in 0..100 {
            assert!(inj.trip("compile").is_ok());
        }
    }

    #[test]
    fn rate_one_always_fires_with_site_identity() {
        let inj = FaultInjector::new(&full_exec(vec![]), "wc", 1);
        assert_eq!(
            inj.trip("compile"),
            Err(ExecError::Injected { site: "compile" })
        );
        assert_eq!(
            inj.trip("natural_eval"),
            Err(ExecError::Injected {
                site: "natural_eval"
            })
        );
    }

    #[test]
    fn bench_filter_restricts_targets() {
        let cfg = full_exec(vec!["wc".into()]);
        assert!(FaultInjector::new(&cfg, "wc", 1).trip("compile").is_err());
        assert!(FaultInjector::new(&cfg, "grep", 1).trip("compile").is_ok());
        assert!(!FaultInjector::new(&cfg, "grep", 1).armed());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let mk = |seed, bench: &str, attempt| {
            let cfg = FaultConfig {
                exec_error_rate: 0.5,
                seed,
                ..FaultConfig::default()
            };
            let inj = FaultInjector::new(&cfg, bench, attempt);
            ["compile", "profile", "natural_eval", "fs_eval"].map(|s| inj.trip(s).is_err())
        };
        // Same key → same pattern.
        assert_eq!(mk(1, "wc", 1), mk(1, "wc", 1));
        // Different seeds/benches/attempts decorrelate. At rate 0.5 over
        // 4 sites each pair collides with probability 1/16; the triple
        // assertion failing by chance would mean three simultaneous
        // collisions under fixed seeds (it either always passes or the
        // constants must change).
        let base = mk(1, "wc", 1);
        assert!(
            base != mk(2, "wc", 1) || base != mk(3, "wc", 1) || base != mk(4, "wc", 1),
            "seed does not influence decisions"
        );
        assert!(
            mk(1, "grep", 1) != base || mk(1, "cmp", 1) != base || mk(1, "tee", 1) != base,
            "bench does not influence decisions"
        );
        assert!(
            mk(1, "wc", 2) != base || mk(1, "wc", 3) != base || mk(1, "wc", 4) != base,
            "attempt does not influence decisions"
        );
    }

    #[test]
    fn custom_lanes_draw_without_arming_and_decorrelate() {
        // A config with every built-in rate at zero never arms...
        let cfg = FaultConfig {
            seed: 11,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(&cfg, "server", 1);
        assert!(!inj.armed());
        // ...but custom lanes still draw: rate 1 fires, rate 0 never.
        assert!(inj.draw("cache_read", FIRST_CUSTOM_LANE, 1.0));
        assert!(!inj.draw("cache_read", FIRST_CUSTOM_LANE, 0.0));
        // Draws are deterministic and lane/site-sensitive.
        let pattern = |site: &str, lane: u64| {
            (1..64)
                .map(|a| FaultInjector::new(&cfg, "server", a).draw(site, lane, 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(pattern("spill", 17), pattern("spill", 17));
        assert_ne!(pattern("spill", 17), pattern("spill", 18));
        assert_ne!(pattern("spill", 17), pattern("cache_read", 17));
    }

    #[test]
    fn delay_lane_sleeps() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            delay: Duration::from_millis(30),
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(&cfg, "wc", 1);
        let t0 = std::time::Instant::now();
        inj.trip("compile").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "fault injection: panic at compile")]
    fn panic_lane_panics() {
        let cfg = FaultConfig {
            panic_rate: 1.0,
            ..FaultConfig::default()
        };
        let _ = FaultInjector::new(&cfg, "wc", 1).trip("compile");
    }
}
