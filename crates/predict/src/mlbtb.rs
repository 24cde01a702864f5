//! Multi-level Branch Target Buffer hierarchy, and the one BTB engine
//! behind the paper's CBTB.
//!
//! The paper's SBTB/CBTB assume a single 256-entry fully-associative
//! buffer, which server-scale instruction footprints overflow. Real
//! designs answered with a *hierarchy*: a small, fast first level backed
//! by one or more larger, slower levels (cf. Gupta & Panda's Micro BTB),
//! with entries promoted toward L1 on reuse and demoted on eviction.
//!
//! [`MlBtb`] is a parametric N-level buffer: per level
//! [`MlBtbLevel::entries`] / [`MlBtbLevel::ways`] (true-LRU within each
//! set) and a [`MlBtbLevel::latency`] lookup penalty, plus a hierarchy
//! [`FillPolicy`] choosing where new entries land and how hits climb.
//! Direction prediction is the CBTB's n-bit saturating counter. With
//! one level it *is* the paper's CBTB: [`Cbtb`](crate::Cbtb) is an
//! alias of `MlBtb`, built from a [`CbtbConfig`], and a fresh
//! single-level buffer packs into the sweep lanes.
//!
//! The hierarchy keeps each branch resident in at most one level: hits
//! move entries up (promotion), evictions cascade down (demotion), and
//! only last-level victims leave the buffer.

use branchlab_ir::Addr;
use branchlab_trace::BranchEvent;

use crate::assoc::AssocBuffer;
use crate::cbtb::CbtbConfig;
use crate::config::{assert_valid, validate_geometry, ConfigError};
use crate::lanes::{saturating_step, LaneSpec};
use crate::predictor::{BranchPredictor, Prediction, TargetInfo};

/// Geometry and lookup cost of one BTB level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MlBtbLevel {
    /// Total entries at this level.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
    /// Extra fetch cycles charged when a prediction is served from this
    /// level (0 for a single-cycle L1). Accumulated in
    /// [`MlBtbStats::latency_cycles`]; a full miss charges the sum of
    /// all level latencies (the lookup walked the whole hierarchy).
    pub latency: u32,
}

/// Where new entries are filled and how hits are promoted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FillPolicy {
    /// Inclusive-L1: new entries fill L1, and a hit at any lower level
    /// promotes the entry straight back to L1. Victims demote one level
    /// down. Fast to re-warm, but streaming branch populations churn L1.
    L1,
    /// Staged climb: new entries fill the *last* level and each hit
    /// promotes one level up, so a branch must prove reuse before it
    /// reaches L1 (hysteresis against single-use pollution).
    Staged,
}

/// Full multi-level BTB configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MlBtbConfig {
    /// Levels ordered L1 → last; at least one.
    pub levels: Vec<MlBtbLevel>,
    /// Fill + promotion policy.
    pub policy: FillPolicy,
    /// Direction counter width in bits (the CBTB's 2 by default).
    pub counter_bits: u8,
    /// Predict-taken threshold `T`.
    pub threshold: u8,
    /// Predict taken only when `C > T` (the paper's literal text) instead
    /// of `C ≥ T` (the reading consistent with Smith's scheme).
    pub strict_greater: bool,
}

impl MlBtbConfig {
    /// The paper's single-level geometry: the
    /// [`CbtbConfig::paper`](crate::CbtbConfig::paper) buffer.
    #[must_use]
    pub fn paper() -> Self {
        CbtbConfig::paper().into()
    }

    /// A server-scale two-level hierarchy: a 64-entry 4-way L1 in front
    /// of a 2048-entry 8-way L2 with a 2-cycle lookup penalty.
    #[must_use]
    pub fn server() -> Self {
        MlBtbConfig {
            levels: vec![
                MlBtbLevel {
                    entries: 64,
                    ways: 4,
                    latency: 0,
                },
                MlBtbLevel {
                    entries: 2048,
                    ways: 8,
                    latency: 2,
                },
            ],
            policy: FillPolicy::L1,
            counter_bits: 2,
            threshold: 2,
            strict_greater: false,
        }
    }

    pub(crate) fn counter_max(&self) -> u8 {
        ((1u16 << self.counter_bits) - 1) as u8
    }

    /// Whether a resident entry with `counter` predicts taken, under
    /// the configured threshold reading.
    #[inline]
    pub(crate) fn predicts_taken(&self, counter: u8) -> bool {
        if self.strict_greater {
            counter > self.threshold
        } else {
            counter >= self.threshold
        }
    }

    /// The counter a missing branch is filled with: `T` on a taken
    /// fill, `T − 1` on a not-taken one.
    #[inline]
    pub(crate) fn fill_counter(&self, taken: bool) -> u8 {
        if taken {
            self.threshold
        } else {
            self.threshold - 1
        }
    }

    /// Check the configuration: at least one level, each level's
    /// geometry (`ways` in 1..=`entries`, a power-of-two set count),
    /// counters of 1..=7 bits and a threshold in 1..=counter max. The
    /// levels of a hierarchy are named `l1_`, `l2_`, …; a single level
    /// (the CBTB) is not.
    ///
    /// # Errors
    /// The [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.levels.is_empty() {
            return Err(ConfigError::NoLevels);
        }
        let named = self.levels.len() > 1;
        for (i, lvl) in self.levels.iter().enumerate() {
            validate_geometry(named.then_some(i), lvl.entries, lvl.ways)?;
        }
        if !(1..=7).contains(&self.counter_bits) {
            return Err(ConfigError::CounterBits);
        }
        if self.threshold == 0 || self.threshold > self.counter_max() {
            return Err(ConfigError::Threshold);
        }
        Ok(())
    }
}

/// One buffer, the paper's CBTB: a single level with no lookup penalty.
impl From<CbtbConfig> for MlBtbConfig {
    fn from(c: CbtbConfig) -> Self {
        MlBtbConfig {
            levels: vec![MlBtbLevel {
                entries: c.entries,
                ways: c.ways,
                latency: 0,
            }],
            policy: FillPolicy::L1,
            counter_bits: c.counter_bits,
            threshold: c.threshold,
            strict_greater: c.strict_greater,
        }
    }
}

/// Per-level hit/miss/fill/evict accounting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Lookups served by this level.
    pub hits: u64,
    /// Lookups that searched this level and missed.
    pub misses: u64,
    /// Entries placed into this level (new, promoted, or demoted).
    pub fills: u64,
    /// Entries displaced out of this level by a fill.
    pub evicts: u64,
}

/// Whole-hierarchy statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MlBtbStats {
    /// One entry per configured level, L1 first.
    pub levels: Vec<LevelStats>,
    /// Entries moved up a level on a hit.
    pub promotions: u64,
    /// Displaced entries moved down a level instead of leaving.
    pub demotions: u64,
    /// Entries evicted out of the last level (left the hierarchy).
    pub dropped: u64,
    /// Accumulated lookup-latency penalty cycles (per-level `latency`
    /// of the serving level; full misses pay the sum of all levels).
    pub latency_cycles: u64,
}

/// One resident branch: its direction counter and last taken target.
#[derive(Copy, Clone, Debug)]
pub(crate) struct BtbEntry {
    pub(crate) counter: u8,
    pub(crate) target: Addr,
}

/// The multi-level BTB; with one level, the paper's CBTB.
///
/// It reports each step's outcome only through its [`Prediction`] and
/// its [`MlBtbStats`]; per-site tallies are the scorer's job. A fresh
/// single-level buffer describes itself as a [`LaneSpec::Cbtb`] lane,
/// so the sweep planner can pack it; deeper hierarchies have no lane
/// form and stay on the scalar path.
///
/// ```
/// use branchlab_predict::{Evaluator, MlBtb};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut eval = Evaluator::new(MlBtb::server());
/// branchlab_interp::run(&program, &Default::default(), &[], &mut eval)?;
/// assert!(eval.stats.accuracy() > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MlBtb {
    /// The first level, searched on every lookup (held inline: it is
    /// the whole buffer of the CBTB).
    l1: AssocBuffer<BtbEntry>,
    /// The levels below L1, in order.
    lower: Vec<AssocBuffer<BtbEntry>>,
    config: MlBtbConfig,
    /// Hits below L1, fills, evicts and promotions; the rest is derived
    /// in [`MlBtb::stats`].
    stats: MlBtbStats,
    /// Lookups made; L1's hits are the ones no other outcome explains.
    lookups: u64,
    /// Lookups no level served.
    full_misses: u64,
    /// What the last `predict` found, so `update` need not search
    /// again: its pc and the L1 way it hit, or `None` when no level
    /// holds it. A promoted entry has moved, and `update` searches.
    last_hit: Option<(u32, Option<u32>)>,
}

impl MlBtb {
    /// Build a BTB: a hierarchy from an [`MlBtbConfig`], or the paper's
    /// single-level CBTB from a [`CbtbConfig`].
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] text if
    /// [`MlBtbConfig::validate`] refuses the configuration.
    #[must_use]
    pub fn new(config: impl Into<MlBtbConfig>) -> Self {
        let config = config.into();
        assert_valid(config.validate());
        let mut levels = config
            .levels
            .iter()
            .map(|l| AssocBuffer::new(l.entries / l.ways, l.ways));
        MlBtb {
            l1: levels.next().expect("at least one level"),
            lower: levels.collect(),
            stats: MlBtbStats {
                levels: vec![LevelStats::default(); config.levels.len()],
                ..MlBtbStats::default()
            },
            lookups: 0,
            full_misses: 0,
            config,
            last_hit: None,
        }
    }

    /// The paper's 256-entry fully-associative 2-bit CBTB with T = 2.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(MlBtbConfig::paper())
    }

    /// The server-scale two-level hierarchy of [`MlBtbConfig::server`].
    #[must_use]
    pub fn server() -> Self {
        Self::new(MlBtbConfig::server())
    }

    /// The configuration this buffer was built with.
    #[must_use]
    pub fn config(&self) -> &MlBtbConfig {
        &self.config
    }

    /// Hierarchy statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> MlBtbStats {
        let mut stats = self.stats.clone();
        let lower_hits: u64 = stats.levels[1..].iter().map(|l| l.hits).sum();
        stats.levels[0].hits = self.lookups - self.full_misses - lower_hits;
        // A lookup searches every level above the one that serves it,
        // and a full miss searches (and pays the latency of) them all.
        let mut passed = self.full_misses;
        for (level, cfg) in stats.levels.iter_mut().zip(&self.config.levels).rev() {
            level.misses = passed;
            passed += level.hits;
            stats.latency_cycles += (level.hits + self.full_misses) * u64::from(cfg.latency);
        }
        // Every victim demotes one level down, except the last level's,
        // which leaves the hierarchy.
        let (last, upper) = stats.levels.split_last().expect("at least one level");
        stats.demotions = upper.iter().map(|l| l.evicts).sum();
        stats.dropped = last.evicts;
        stats
    }

    /// Total resident entries across all levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels().map(AssocBuffer::len).sum()
    }

    /// Whether every level is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels().all(AssocBuffer::is_empty)
    }

    /// Every level's buffer, L1 first.
    fn levels(&self) -> impl Iterator<Item = &AssocBuffer<BtbEntry>> {
        std::iter::once(&self.l1).chain(&self.lower)
    }

    fn level_mut(&mut self, level: usize) -> &mut AssocBuffer<BtbEntry> {
        match level {
            0 => &mut self.l1,
            _ => &mut self.lower[level - 1],
        }
    }

    /// `predict` for a branch L1 does not hold, in a hierarchy: a hit in
    /// a lower level, which promotes the entry, or a full miss. Kept out
    /// of line, so the L1 paths stay small.
    #[inline(never)]
    fn predict_below_l1(&mut self, pc: u32) -> Prediction {
        let found = self
            .lower
            .iter_mut()
            .enumerate()
            .find_map(|(i, level)| level.remove(pc).map(|e| (i + 1, e)));
        let Some((level, entry)) = found else {
            return self.full_miss(pc);
        };
        self.stats.levels[level].hits += 1;
        // Promote: straight to L1 (inclusive-L1) or one level up (staged
        // climb); victims cascade down.
        let dest = match self.config.policy {
            FillPolicy::L1 => 0,
            FillPolicy::Staged => level - 1,
        };
        self.stats.promotions += 1;
        self.place(dest, pc, entry);
        self.last_hit = None;
        self.hit_prediction(entry)
    }

    /// No level holds `pc`: predict not taken, and let `update` fill.
    #[inline]
    fn full_miss(&mut self, pc: u32) -> Prediction {
        self.full_misses += 1;
        self.last_hit = Some((pc, None));
        Prediction {
            taken: false,
            target: TargetInfo::None,
            hit: Some(false),
        }
    }

    #[inline]
    fn hit_prediction(&self, entry: BtbEntry) -> Prediction {
        Prediction {
            taken: self.config.predicts_taken(entry.counter),
            target: TargetInfo::Addr(entry.target),
            hit: Some(true),
        }
    }

    /// Search every level for `pc`, refreshing its LRU position.
    #[cold]
    fn lookup_any(&mut self, pc: u32) -> Option<&mut BtbEntry> {
        std::iter::once(&mut self.l1)
            .chain(&mut self.lower)
            .find_map(|l| l.lookup(pc))
    }

    /// Place `entry` into `level`, demoting displaced victims one level
    /// down; the last level's victim leaves the hierarchy.
    fn place(&mut self, mut level: usize, mut key: u32, mut entry: BtbEntry) {
        loop {
            self.stats.levels[level].fills += 1;
            let Some((victim_key, victim)) = self.level_mut(level).insert(key, entry) else {
                return;
            };
            self.stats.levels[level].evicts += 1;
            if level == self.lower.len() {
                return;
            }
            level += 1;
            key = victim_key;
            entry = victim;
        }
    }
}

impl BranchPredictor for MlBtb {
    fn name(&self) -> &'static str {
        if self.lower.is_empty() {
            "CBTB"
        } else {
            "MLBTB"
        }
    }

    #[inline]
    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        let pc = ev.pc.0;
        self.lookups += 1;
        let Some((way, e)) = self.l1.lookup_pos(pc) else {
            return if self.lower.is_empty() {
                self.full_miss(pc)
            } else {
                self.predict_below_l1(pc)
            };
        };
        let entry = *e;
        self.last_hit = Some((pc, Some(way)));
        self.hit_prediction(entry)
    }

    #[inline]
    fn update(&mut self, ev: &BranchEvent, _: &Prediction) {
        let pc = ev.pc.0;
        let max = self.config.counter_max();
        let resident = match self.last_hit.take() {
            // predict already found this L1 entry, or found the branch
            // absent; revisit it directly, or fill it.
            Some((hit, way)) if hit == pc => way.and_then(|way| self.l1.touch(pc, way)),
            _ => self.lookup_any(pc),
        };
        if let Some(entry) = resident {
            entry.counter = saturating_step(entry.counter, max, ev.taken);
            if ev.taken {
                entry.target = ev.target;
            }
        } else {
            let fill = match self.config.policy {
                FillPolicy::L1 => 0,
                FillPolicy::Staged => self.lower.len(),
            };
            let entry = BtbEntry {
                counter: self.config.fill_counter(ev.taken),
                target: ev.target,
            };
            self.place(fill, pc, entry);
        }
    }

    fn flush(&mut self) {
        self.l1.flush();
        for level in &mut self.lower {
            level.flush();
        }
        self.last_hit = None;
    }

    fn lane_spec(&self) -> Option<LaneSpec> {
        // A non-empty buffer has diverged from the fresh configuration
        // the spec describes, and a hierarchy has no lane form.
        let [level] = self.config.levels[..] else {
            return None;
        };
        self.is_empty().then_some(LaneSpec::Cbtb(CbtbConfig {
            entries: level.entries,
            ways: level.ways,
            counter_bits: self.config.counter_bits,
            threshold: self.config.threshold,
            strict_greater: self.config.strict_greater,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{cond, cond_to};
    use crate::predictor::Evaluator;
    use branchlab_trace::ExecHooks;

    fn tiny(policy: FillPolicy) -> MlBtbConfig {
        MlBtbConfig {
            levels: vec![
                MlBtbLevel {
                    entries: 1,
                    ways: 1,
                    latency: 0,
                },
                MlBtbLevel {
                    entries: 2,
                    ways: 2,
                    latency: 3,
                },
            ],
            policy,
            counter_bits: 2,
            threshold: 2,
            strict_greater: false,
        }
    }

    /// A CBTB written from §2.2 alone, as the oracle for single-level
    /// `MlBtb`: each set is a `Vec` in LRU order (front = least
    /// recent), the counter rule is spelled out, and every step
    /// searches from scratch.
    struct ReferenceCbtb {
        sets: Vec<Vec<(u32, u8, Addr)>>,
        ways: usize,
        bits: u8,
        threshold: u8,
        strict: bool,
    }

    impl ReferenceCbtb {
        fn new(c: CbtbConfig) -> Self {
            ReferenceCbtb {
                sets: vec![Vec::new(); c.entries / c.ways],
                ways: c.ways,
                bits: c.counter_bits,
                threshold: c.threshold,
                strict: c.strict_greater,
            }
        }

        fn set(&mut self, pc: u32) -> &mut Vec<(u32, u8, Addr)> {
            let n = self.sets.len();
            &mut self.sets[pc as usize % n]
        }
    }

    impl BranchPredictor for ReferenceCbtb {
        fn name(&self) -> &'static str {
            "reference CBTB"
        }

        fn predict(&mut self, ev: &BranchEvent) -> Prediction {
            let (threshold, strict) = (self.threshold, self.strict);
            let set = self.set(ev.pc.0);
            let Some(i) = set.iter().position(|e| e.0 == ev.pc.0) else {
                return Prediction {
                    taken: false,
                    target: TargetInfo::None,
                    hit: Some(false),
                };
            };
            // A hit becomes the most recently used entry of its set.
            let entry = set.remove(i);
            set.push(entry);
            let (_, counter, target) = entry;
            let taken = if strict {
                counter > threshold
            } else {
                counter >= threshold
            };
            Prediction {
                taken,
                target: TargetInfo::Addr(target),
                hit: Some(true),
            }
        }

        fn update(&mut self, ev: &BranchEvent, _: &Prediction) {
            let max = (1u8 << self.bits) - 1;
            let (threshold, ways) = (self.threshold, self.ways);
            let set = self.set(ev.pc.0);
            match set.iter_mut().find(|e| e.0 == ev.pc.0) {
                Some(entry) => {
                    entry.1 = if ev.taken {
                        (entry.1 + 1).min(max)
                    } else {
                        entry.1.saturating_sub(1)
                    };
                    if ev.taken {
                        entry.2 = ev.target;
                    }
                }
                None => {
                    if set.len() == ways {
                        set.remove(0);
                    }
                    let counter = if ev.taken { threshold } else { threshold - 1 };
                    set.push((ev.pc.0, counter, ev.target));
                }
            }
        }
    }

    /// Score single-level `MlBtb` and the reference model at `config`
    /// over a seeded stream of `len` events on `pcs` distinct sites.
    fn score_against_reference(config: CbtbConfig, pcs: u32, len: usize) {
        let mut ml = Evaluator::new(MlBtb::new(config));
        let mut reference = Evaluator::new(ReferenceCbtb::new(config));
        let mut x = 0x9E37_79B9_u64 ^ config.entries as u64;
        for _ in 0..len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 10 + (x >> 33) as u32 % pcs;
            // A per-pc bias, so counters both saturate and oscillate; a
            // third of the sites are indirect, with a target that changes.
            let taken = (x >> 20) % 8 < u64::from(pc % 8);
            let target = if pc.is_multiple_of(3) {
                pc + 100 + (x >> 40) as u32 % 3
            } else {
                pc + 100
            };
            let ev = cond_to(pc, taken, target);
            ml.branch(&ev);
            reference.branch(&ev);
        }
        assert_eq!(ml.stats, reference.stats, "{config:?}");
        assert!(ml.stats.btb_misses > 0 && ml.stats.correct > 0);
    }

    #[test]
    fn single_level_matches_a_reference_cbtb_model() {
        // Fully associative, set-associative and direct-mapped; every
        // pc population overflows its buffer.
        for (entries, ways, pcs) in [(256, 256, 400), (64, 4, 160), (64, 1, 96)] {
            for counter_bits in 1..=4u8 {
                for threshold in 1..1u8 << counter_bits {
                    for strict_greater in [false, true] {
                        let config = CbtbConfig {
                            entries,
                            ways,
                            counter_bits,
                            threshold,
                            strict_greater,
                        };
                        score_against_reference(config, pcs, 1500);
                    }
                }
            }
        }
    }

    #[test]
    fn l2_hit_promotes_to_l1_and_demotes_the_victim() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        e.branch(&cond_to(10, true, 50)); // miss → fill L1
        e.branch(&cond_to(20, true, 60)); // miss → fill L1, 10 demoted to L2
        assert_eq!(e.predictor.stats().demotions, 1);
        e.branch(&cond_to(10, true, 50)); // L2 hit → promote 10, demote 20
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].hits, 1);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.demotions, 2);
        assert_eq!(s.dropped, 0);
        // 10 now fronts L1 again.
        e.branch(&cond_to(10, true, 50));
        assert_eq!(e.predictor.stats().levels[0].hits, 1);
    }

    #[test]
    fn staged_policy_fills_the_last_level_first() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::Staged)));
        e.branch(&cond_to(10, true, 50)); // miss → fill L2
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].fills, 1);
        assert_eq!(s.levels[0].fills, 0);
        e.branch(&cond_to(10, true, 50)); // L2 hit → climb to L1
        let s = e.predictor.stats().clone();
        assert_eq!(s.levels[1].hits, 1);
        assert_eq!(s.promotions, 1);
        e.branch(&cond_to(10, true, 50)); // now an L1 hit
        assert_eq!(e.predictor.stats().levels[0].hits, 1);
    }

    #[test]
    fn hierarchy_retains_what_a_bare_l1_would_drop() {
        // 8 round-robin branches through a 4-entry L1: alone it thrashes
        // (zero hits); backed by a 16-entry L2 every revisit hits.
        let l1 = MlBtbLevel {
            entries: 4,
            ways: 4,
            latency: 0,
        };
        let l2 = MlBtbLevel {
            entries: 16,
            ways: 16,
            latency: 2,
        };
        let mk = |levels: Vec<MlBtbLevel>| {
            Evaluator::new(MlBtb::new(MlBtbConfig {
                levels,
                policy: FillPolicy::L1,
                counter_bits: 2,
                threshold: 2,
                strict_greater: false,
            }))
        };
        let mut bare = mk(vec![l1]);
        let mut ml = mk(vec![l1, l2]);
        for round in 0..6 {
            for pc in 0..8u32 {
                let ev = cond_to(100 + pc * 10, true, 500 + pc);
                bare.branch(&ev);
                ml.branch(&ev);
                let _ = round;
            }
        }
        assert_eq!(bare.stats.btb_lookups, ml.stats.btb_lookups);
        assert!(
            ml.stats.btb_misses < bare.stats.btb_misses,
            "hierarchy {} vs bare {}",
            ml.stats.btb_misses,
            bare.stats.btb_misses
        );
        assert_eq!(bare.stats.btb_misses, 48); // every lookup thrashes
        assert_eq!(ml.stats.btb_misses, 8); // compulsory only
    }

    #[test]
    fn latency_charges_serving_level_and_full_walk_on_miss() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        e.branch(&cond_to(10, true, 50)); // full miss: 0 + 3
        assert_eq!(e.predictor.stats().latency_cycles, 3);
        e.branch(&cond_to(10, true, 50)); // L1 hit: +0
        assert_eq!(e.predictor.stats().latency_cycles, 3);
        e.branch(&cond_to(20, true, 60)); // full miss: +3 (10 → L2)
        e.branch(&cond_to(10, true, 50)); // L2 hit: +3
        assert_eq!(e.predictor.stats().latency_cycles, 9);
    }

    #[test]
    fn the_dropped_entry_is_the_least_recent_branch() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        // Capacity is 1 + 2 = 3; the fourth distinct branch drops one.
        for pc in [10, 20, 30, 40] {
            e.branch(&cond_to(pc, true, pc + 5));
        }
        assert_eq!(e.predictor.stats().dropped, 1);
        // The very first branch was the LRU chain's tail: the other
        // three still hit (each promotion demotes without a drop), and
        // it misses.
        for pc in [20, 30, 40] {
            let misses = e.stats.btb_misses;
            e.branch(&cond_to(pc, true, pc + 5));
            assert_eq!(e.stats.btb_misses, misses, "pc {pc} is resident");
        }
        assert_eq!(e.predictor.stats().dropped, 1);
        let misses = e.stats.btb_misses;
        e.branch(&cond_to(10, true, 15));
        assert_eq!(e.stats.btb_misses, misses + 1, "pc 10 was dropped");
    }

    #[test]
    fn counters_keep_direction_through_one_anomaly() {
        let mut e = Evaluator::new(MlBtb::server());
        for taken in [true, true, true, false, true] {
            e.branch(&cond_to(10, taken, 50));
        }
        // miss-wrong, correct, correct, wrong, correct (counter held).
        assert_eq!(e.stats.correct, 3);
    }

    #[test]
    fn not_taken_branches_are_resident() {
        let mut e = Evaluator::new(MlBtb::server());
        e.branch(&cond(10, false));
        e.branch(&cond(10, false));
        assert_eq!(e.stats.btb_misses, 1);
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn flush_empties_every_level() {
        let mut e = Evaluator::new(MlBtb::new(tiny(FillPolicy::L1)));
        for pc in [10, 20, 30] {
            e.branch(&cond_to(pc, true, pc + 5));
        }
        assert_eq!(e.predictor.len(), 3);
        e.predictor.flush();
        assert!(e.predictor.is_empty());
    }

    #[test]
    fn lane_spec_is_unpackable() {
        // A fresh single-level buffer is the CBTB lane; the planner must
        // fall back to the scalar path for hierarchies.
        assert_eq!(
            MlBtb::paper().lane_spec(),
            Some(LaneSpec::Cbtb(CbtbConfig::paper()))
        );
        assert!(MlBtb::server().lane_spec().is_none());
    }

    #[test]
    fn config_errors_name_the_level_of_a_hierarchy() {
        let mut config = MlBtbConfig::server();
        config.levels[1].ways = 0;
        assert_eq!(config.validate(), Err(ConfigError::Ways { level: Some(1) }));
        assert_eq!(
            config.validate().unwrap_err().to_string(),
            "`l2_ways` must be in 1..=entries"
        );
        // A single level is the CBTB, whose fields carry no level.
        let cbtb = MlBtbConfig::from(CbtbConfig {
            entries: 24,
            ways: 2,
            ..CbtbConfig::paper()
        });
        assert_eq!(
            cbtb.validate().unwrap_err().to_string(),
            "`entries` / `ways` must give a set count that is a power of two"
        );
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_level_list_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            levels: vec![],
            ..MlBtbConfig::server()
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            levels: vec![MlBtbLevel {
                entries: 24,
                ways: 2,
                latency: 0,
            }],
            ..MlBtbConfig::server()
        });
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_above_counter_max_rejected() {
        let _ = MlBtb::new(MlBtbConfig {
            counter_bits: 2,
            threshold: 4,
            ..MlBtbConfig::server()
        });
    }
}
