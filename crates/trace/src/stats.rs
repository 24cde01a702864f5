//! Statistics collectors over branch-event streams — the sources of the
//! paper's Table 1 (*Control* column) and Table 2.

use std::collections::HashMap;

use branchlab_ir::BranchId;

use crate::event::{BranchEvent, BranchKind, ExecHooks};

/// Table 2 source: the taken/not-taken mix of conditional branches and
/// the known/unknown-target mix of unconditional branches.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchMix {
    /// Taken conditional branches.
    pub cond_taken: u64,
    /// Not-taken conditional branches.
    pub cond_not_taken: u64,
    /// Unconditional branches with known target.
    pub uncond_known: u64,
    /// Unconditional branches with unknown (run-time) target.
    pub uncond_unknown: u64,
}

impl BranchMix {
    /// Create an empty mix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total conditional branches observed.
    #[must_use]
    pub fn cond_total(&self) -> u64 {
        self.cond_taken + self.cond_not_taken
    }

    /// Total unconditional branches observed.
    #[must_use]
    pub fn uncond_total(&self) -> u64 {
        self.uncond_known + self.uncond_unknown
    }

    /// Fraction of conditional branches that were taken (Table 2
    /// *Taken*), or 0 when none were observed.
    #[must_use]
    pub fn taken_fraction(&self) -> f64 {
        ratio(self.cond_taken, self.cond_total())
    }

    /// Fraction of unconditional branches with known targets (Table 2
    /// *Known*), or 0 when none were observed.
    #[must_use]
    pub fn known_fraction(&self) -> f64 {
        ratio(self.uncond_known, self.uncond_total())
    }

    /// Merge another mix into this one (multi-run accumulation).
    pub fn merge(&mut self, other: &BranchMix) {
        self.cond_taken += other.cond_taken;
        self.cond_not_taken += other.cond_not_taken;
        self.uncond_known += other.uncond_known;
        self.uncond_unknown += other.uncond_unknown;
    }
}

impl ExecHooks for BranchMix {
    fn branch(&mut self, ev: &BranchEvent) {
        match ev.kind {
            BranchKind::Cond => {
                if ev.taken {
                    self.cond_taken += 1;
                } else {
                    self.cond_not_taken += 1;
                }
            }
            BranchKind::UncondDirect => self.uncond_known += 1,
            BranchKind::UncondIndirect => self.uncond_unknown += 1,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-branch-site execution counts, keyed by the layout-stable
/// [`BranchId`]. This is the raw material of profile-guided prediction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    counts: HashMap<BranchId, SiteCounts>,
}

/// Taken/total counts for one static branch site.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times the branch executed.
    pub total: u64,
}

impl SiteCounts {
    /// Empirical probability of being taken.
    #[must_use]
    pub fn taken_prob(&self) -> f64 {
        ratio(self.taken, self.total)
    }

    /// Executions matching the majority direction — the best any static
    /// (per-site, single-bit) predictor can do on this site.
    #[must_use]
    pub fn majority(&self) -> u64 {
        self.taken.max(self.total - self.taken)
    }
}

impl SiteStats {
    /// Create an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts for one site, if it ever executed.
    #[must_use]
    pub fn get(&self, site: BranchId) -> Option<SiteCounts> {
        self.counts.get(&site).copied()
    }

    /// Number of distinct sites observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no sites were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate over `(site, counts)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, SiteCounts)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Add `counts` to one site's tally — for sinks that count per
    /// address and fold into sites once. A zero `total` adds nothing:
    /// only executed sites appear in the table.
    pub fn add(&mut self, site: BranchId, counts: SiteCounts) {
        if counts.total == 0 {
            return;
        }
        let e = self.counts.entry(site).or_default();
        e.taken += counts.taken;
        e.total += counts.total;
    }

    /// Merge another table into this one (multi-run accumulation).
    pub fn merge(&mut self, other: &SiteStats) {
        for (site, c) in other.iter() {
            self.add(site, c);
        }
    }
}

impl ExecHooks for SiteStats {
    fn branch(&mut self, ev: &BranchEvent) {
        let e = self.counts.entry(ev.branch).or_default();
        e.total += 1;
        e.taken += u64::from(ev.taken);
    }
}

/// Bounded in-memory recording of branch events, for tests and debugging.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    events: Vec<BranchEvent>,
    capacity: usize,
    /// Events dropped after the recorder filled up.
    pub dropped: u64,
}

impl TraceRecorder {
    /// Record up to `capacity` events; later events are counted in
    /// [`TraceRecorder::dropped`] but not stored.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[BranchEvent] {
        &self.events
    }
}

impl ExecHooks for TraceRecorder {
    fn branch(&mut self, ev: &BranchEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*ev);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_ir::{Addr, BlockId, FuncId};

    fn ev(kind: BranchKind, taken: bool, block: u32) -> BranchEvent {
        BranchEvent {
            pc: Addr(block),
            kind,
            taken,
            target: Addr(100),
            fallthrough: Addr(block + 1),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(block),
            },
            likely: false,
            cond: if kind == BranchKind::Cond {
                Some(branchlab_ir::Cond::Eq)
            } else {
                None
            },
        }
    }

    #[test]
    fn branch_mix_classifies_events() {
        let mut mix = BranchMix::new();
        mix.branch(&ev(BranchKind::Cond, true, 0));
        mix.branch(&ev(BranchKind::Cond, false, 0));
        mix.branch(&ev(BranchKind::Cond, false, 0));
        mix.branch(&ev(BranchKind::UncondDirect, true, 1));
        mix.branch(&ev(BranchKind::UncondIndirect, true, 2));
        assert_eq!(mix.cond_total(), 3);
        assert!((mix.taken_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(mix.uncond_total(), 2);
        assert!((mix.known_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn branch_mix_empty_fractions_are_zero() {
        let mix = BranchMix::new();
        assert_eq!(mix.taken_fraction(), 0.0);
        assert_eq!(mix.known_fraction(), 0.0);
    }

    #[test]
    fn branch_mix_merge_adds() {
        let mut a = BranchMix {
            cond_taken: 1,
            cond_not_taken: 2,
            uncond_known: 3,
            uncond_unknown: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.cond_taken, 2);
        assert_eq!(a.uncond_unknown, 8);
    }

    #[test]
    fn site_stats_tracks_per_site() {
        let mut s = SiteStats::new();
        for taken in [true, true, false] {
            s.branch(&ev(BranchKind::Cond, taken, 5));
        }
        s.branch(&ev(BranchKind::Cond, true, 9));
        let c5 = s
            .get(BranchId {
                func: FuncId(0),
                block: BlockId(5),
            })
            .unwrap();
        assert_eq!(c5, SiteCounts { taken: 2, total: 3 });
        assert_eq!(c5.majority(), 2);
        assert!((c5.taken_prob() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn site_stats_merge() {
        let mut a = SiteStats::new();
        let mut b = SiteStats::new();
        a.branch(&ev(BranchKind::Cond, true, 1));
        b.branch(&ev(BranchKind::Cond, false, 1));
        b.branch(&ev(BranchKind::Cond, false, 2));
        a.merge(&b);
        assert_eq!(
            a.get(BranchId {
                func: FuncId(0),
                block: BlockId(1)
            })
            .unwrap(),
            SiteCounts { taken: 1, total: 2 }
        );
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn site_stats_add_accumulates_and_skips_unexecuted_sites() {
        let site = |block| BranchId {
            func: FuncId(0),
            block: BlockId(block),
        };
        let mut s = SiteStats::new();
        s.add(site(1), SiteCounts { taken: 2, total: 3 });
        s.add(site(1), SiteCounts { taken: 1, total: 1 });
        s.add(site(2), SiteCounts::default());
        assert_eq!(s.get(site(1)), Some(SiteCounts { taken: 3, total: 4 }));
        assert_eq!(s.get(site(2)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn majority_counts_dominant_direction() {
        let c = SiteCounts {
            taken: 1,
            total: 10,
        };
        assert_eq!(c.majority(), 9);
    }

    #[test]
    fn recorder_caps_and_counts_drops() {
        let mut r = TraceRecorder::with_capacity(2);
        for i in 0..5 {
            r.branch(&ev(BranchKind::Cond, true, i));
        }
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.dropped, 3);
    }
}
