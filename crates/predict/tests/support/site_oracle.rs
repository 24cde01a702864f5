//! The per-site oracle for the dense passes: the real, unmodified
//! `Sbtb` and `Cbtb` engines, scored as `Evaluator` scores them, with
//! each site's `SiteCounters` tallied from the event and the engine's
//! prediction. Shared by `natural_prop.rs` and (through `#[path]`)
//! `crates/experiments/tests/natural_fidelity.rs`.
//!
//! Per event it counts hits and misses from `pred.hit`, taken and
//! not-taken, mispredicts from `!pred.is_correct`, and aliases: hits on
//! a taken branch whose predicted target is not the branch's. Evictions
//! come from a fully-associative LRU shadow of the buffer's residents,
//! following the engine's fill rule; the shadow's hit bit must equal
//! the engine's on every event, so it cannot drift from the engine.

// Each including test uses only part of the oracle.
#![allow(dead_code)]

use std::collections::HashMap;

use branchlab_predict::{
    BranchPredictor, Cbtb, CbtbConfig, PredStats, Sbtb, SbtbConfig, TargetInfo,
};
use branchlab_telemetry::{SiteCounters, SiteProbe};
use branchlab_trace::{BranchEvent, ExecHooks};

/// Which branches a buffer holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Residency {
    /// The SBTB (§2.2): a taken miss fills, and a hit that falls
    /// through is deleted.
    TakenOnly,
    /// The CBTB: every miss fills.
    Every,
}

/// A fully-associative BTB engine with per-site counters.
pub struct SiteOracle<P> {
    /// The engine under test.
    engine: P,
    /// Its scoring, as `Evaluator` would accumulate it.
    pub stats: PredStats,
    /// Per-site tallies, one entry per executed site.
    pub sites: HashMap<u32, SiteCounters>,
    /// SBTB entries deleted by a hit that fell through.
    pub deletions: u64,
    residency: Residency,
    entries: usize,
    /// The resident pcs, least recently used first.
    shadow: Vec<u32>,
}

impl SiteOracle<Sbtb> {
    /// An SBTB of the given fully-associative geometry.
    pub fn sbtb(config: SbtbConfig) -> Self {
        assert_eq!(
            config.ways, config.entries,
            "the shadow is fully associative"
        );
        Self::new(Sbtb::new(config), Residency::TakenOnly, config.entries)
    }
}

impl SiteOracle<Cbtb> {
    /// A CBTB of the given fully-associative geometry.
    pub fn cbtb(config: CbtbConfig) -> Self {
        assert_eq!(
            config.ways, config.entries,
            "the shadow is fully associative"
        );
        Self::new(Cbtb::new(config), Residency::Every, config.entries)
    }
}

impl<P: BranchPredictor> SiteOracle<P> {
    fn new(engine: P, residency: Residency, entries: usize) -> Self {
        SiteOracle {
            engine,
            stats: PredStats::default(),
            sites: HashMap::new(),
            deletions: 0,
            residency,
            entries,
            shadow: Vec::new(),
        }
    }

    /// Empty the buffer, as between program runs.
    pub fn flush(&mut self) {
        self.engine.flush();
        self.shadow.clear();
    }

    /// The per-site tallies as a `SiteProbe`.
    pub fn probe(&self) -> SiteProbe {
        self.sites.iter().map(|(&pc, &c)| (pc, c)).collect()
    }
}

impl<P: BranchPredictor> ExecHooks for SiteOracle<P> {
    fn branch(&mut self, ev: &BranchEvent) {
        let pred = self.engine.predict(ev);
        self.stats.tally(ev, &pred);
        self.engine.update(ev, &pred);

        let pc = ev.pc.0;
        let hit = pred.hit.expect("a BTB reports every lookup");
        let site = self.sites.entry(pc).or_default();
        site.hits += u64::from(hit);
        site.misses += u64::from(!hit);
        site.taken += u64::from(ev.taken);
        site.not_taken += u64::from(!ev.taken);
        site.mispredicts += u64::from(!pred.is_correct(ev));
        site.aliases += u64::from(hit && ev.taken && pred.target != TargetInfo::Addr(ev.target));

        let resident = self.shadow.iter().position(|&r| r == pc);
        assert_eq!(
            resident.is_some(),
            hit,
            "pc {pc}: the residency shadow disagrees with the engine"
        );
        let keep = ev.taken || self.residency == Residency::Every;
        match resident {
            Some(i) => {
                self.shadow.remove(i);
                if keep {
                    self.shadow.push(pc);
                } else {
                    self.deletions += 1;
                }
            }
            None if keep => {
                if self.shadow.len() == self.entries {
                    let victim = self.shadow.remove(0);
                    self.sites.entry(victim).or_default().evicts += 1;
                }
                self.shadow.push(pc);
            }
            None => {}
        }
    }
}
