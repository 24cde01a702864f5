//! Bit-parallel struct-of-arrays sweep lanes: score up to
//! [`MAX_LANES`] related predictor configurations per branch event in
//! packed `u64` lanes.
//!
//! The sweep dimension is embarrassingly data-parallel *per event*: a
//! counter sweep over N thresholds walks the same residency state N
//! times and differs only in a few bits of per-entry counter state.
//! The engines here exploit that with the bit-parallel-DFA trick —
//! one `u64` word holds one *bit plane* of 32 configurations'
//! counters (bit `j` of plane `b` is bit `b` of lane `j`'s counter),
//! and saturating increment/decrement/threshold-compare become a
//! handful of shifts, masks, and carry ripples shared by every lane:
//!
//! * [`CbtbLanes`] — CBTB configurations sharing one buffer geometry
//!   `(entries, ways)`. Residency, LRU order, and remembered targets
//!   are provably independent of the counters (every branch is
//!   inserted on miss and touched on hit, regardless of what any
//!   counter predicts), so one [`AssocBuffer`] lookup per event
//!   serves all lanes; only the n-bit saturating counters are
//!   per-lane, stored as bit planes inside the shared entry.
//! * [`GshareLanes`] / [`LocalLanes`] — two-level configurations
//!   sharing the idealized target map and the history state (both
//!   evolve from branch *outcomes* only, identically for every
//!   geometry); each lane keeps its own compact pattern table.
//!
//! Per-lane hit/miss tallies accumulate into SoA [`PredStats`]:
//! lane-uniform counts (events, BTB lookups/misses) live in shared
//! scalars, and the per-lane correctness masks drip into bit-sliced
//! vertical counters that flush to per-lane totals every few thousand
//! events. [`LaneFamily::finish`] hands back one `PredStats` per lane,
//! bit-identical to scoring each configuration through its own
//! [`Evaluator`](crate::Evaluator) (enforced by the seeded randomized
//! equivalence tests below and the suite-wide fidelity tests in
//! `branchlab-experiments`).

use std::collections::HashMap;

use branchlab_ir::Addr;
use branchlab_trace::{BranchEvent, BranchKind};

use crate::assoc::{AssocBuffer, BuildKeyHasher};
use crate::cbtb::CbtbConfig;
use crate::config::assert_valid;
use crate::mlbtb::MlBtbConfig;
use crate::predictor::PredStats;
use crate::twolevel::validate_two_level;

/// Maximum configurations per lane family — one bit per lane in the
/// `u64` masks, capped at 32 so per-entry plane state stays compact.
pub const MAX_LANES: usize = 32;

/// Counter bit planes carried per CBTB lane entry. Configurations with
/// wider counters fall back to the scalar path.
const MAX_COUNTER_PLANES: usize = 4;

/// Branchless saturating counter step: increment toward `max` on a
/// taken outcome, decrement toward 0 otherwise, without branching on
/// the outcome. Shared by the scalar predictors
/// ([`Cbtb`](crate::Cbtb), the two-level pattern tables) and the
/// per-lane pattern tables here, so both paths saturate identically
/// by construction.
#[inline]
pub(crate) fn saturating_step(counter: u8, max: u8, taken: bool) -> u8 {
    let up = u8::from(taken) & u8::from(counter < max);
    let down = u8::from(!taken) & u8::from(counter > 0);
    counter + up - down
}

/// A predictor configuration's lane description, returned by
/// [`BranchPredictor::lane_spec`](crate::BranchPredictor::lane_spec)
/// when the predictor's current state is exactly the
/// freshly-constructed state the description implies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaneSpec {
    /// A counter-based BTB (see [`CbtbConfig`]).
    Cbtb(CbtbConfig),
    /// A gshare two-level predictor.
    Gshare {
        /// Pattern-table size in bits.
        table_bits: u32,
        /// Global-history bits folded into the index.
        history_bits: u32,
    },
    /// A local-history two-level predictor.
    Local {
        /// Pattern-table size in bits.
        table_bits: u32,
        /// Per-branch history bits folded into the index.
        history_bits: u32,
    },
}

/// The compatibility key lane planning groups by: sweep points with
/// equal keys can share one [`LaneFamily`] pass.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LaneFamilyKey {
    /// CBTB lanes must share the buffer geometry (same residency and
    /// LRU evolution); counters and thresholds are free per lane.
    Cbtb {
        /// Total buffer entries.
        entries: usize,
        /// Ways per set.
        ways: usize,
    },
    /// All gshare lanes share the target map and the global history
    /// register; table geometry is free per lane.
    Gshare,
    /// All local-history lanes share the target map and the per-branch
    /// history map; table geometry is free per lane.
    Local,
}

impl LaneSpec {
    /// The family this spec can join, or `None` when it must stay on
    /// the scalar path (e.g. CBTB counters wider than the packed
    /// planes).
    #[must_use]
    pub fn family_key(&self) -> Option<LaneFamilyKey> {
        match *self {
            LaneSpec::Cbtb(c) if usize::from(c.counter_bits) <= MAX_COUNTER_PLANES => {
                Some(LaneFamilyKey::Cbtb {
                    entries: c.entries,
                    ways: c.ways,
                })
            }
            LaneSpec::Cbtb(_) => None,
            LaneSpec::Gshare { .. } => Some(LaneFamilyKey::Gshare),
            LaneSpec::Local { .. } => Some(LaneFamilyKey::Local),
        }
    }
}

/// Bit-sliced vertical counter: each `add` accumulates a 0/1-per-lane
/// mask, carried across `VC_BITS` planes. Draining every
/// `VC_CAPACITY` adds keeps the planes from overflowing.
const VC_BITS: usize = 16;
const VC_CAPACITY: u32 = (1 << VC_BITS) - 1;

#[derive(Clone, Debug)]
struct VerticalCounter {
    planes: [u64; VC_BITS],
    adds: u32,
}

impl VerticalCounter {
    fn new() -> Self {
        VerticalCounter {
            planes: [0; VC_BITS],
            adds: 0,
        }
    }

    /// Ripple-carry `mask` (one bit per lane) into the planes.
    #[inline]
    fn add(&mut self, mut mask: u64) {
        self.adds += 1;
        for p in &mut self.planes {
            let carry = *p & mask;
            *p ^= mask;
            mask = carry;
            if mask == 0 {
                break;
            }
        }
    }

    /// Flush each lane's accumulated count into `out` and reset.
    fn drain(&mut self, lanes: usize, out: &mut [u64]) {
        for (j, slot) in out.iter_mut().enumerate().take(lanes) {
            let mut v = 0u64;
            for (b, p) in self.planes.iter().enumerate() {
                v |= ((p >> j) & 1) << b;
            }
            *slot += v;
        }
        self.planes = [0; VC_BITS];
        self.adds = 0;
    }
}

/// `c ≥ K` per lane over bit-plane counters, by bit-sliced borrow
/// propagation of `c − K`: a lane's final borrow is set exactly when
/// its counter is below its effective threshold.
#[inline]
fn decide_mask(
    planes: &[u64; MAX_COUNTER_PLANES],
    k_planes: &[u64; MAX_COUNTER_PLANES + 1],
    used: usize,
    lane_mask: u64,
) -> u64 {
    let mut borrow = 0u64;
    for b in 0..used {
        let a = planes[b];
        let k = k_planes[b];
        borrow = (!a & k) | (!(a ^ k) & borrow);
    }
    // A threshold bit above every counter plane (K = 2^bits, i.e. a
    // strict compare against a saturated counter) can never be met.
    borrow |= k_planes[used];
    lane_mask & !borrow
}

/// Saturating `+1` on every lane of `planes` except those already at
/// their width's all-ones value. Lanes may have different widths: a
/// non-saturated lane has a zero bit inside its width, so the carry
/// ripple always dies before escaping into the next lane's planes.
#[inline]
fn inc_planes(
    planes: &mut [u64; MAX_COUNTER_PLANES],
    width_masks: &[u64; MAX_COUNTER_PLANES + 1],
    used: usize,
    lane_mask: u64,
) {
    let mut acc = lane_mask;
    let mut saturated = 0u64;
    for b in 0..used {
        acc &= planes[b];
        saturated |= acc & width_masks[b + 1];
    }
    let mut carry = lane_mask & !saturated;
    for p in planes.iter_mut().take(used) {
        if carry == 0 {
            break;
        }
        let t = *p & carry;
        *p ^= carry;
        carry = t;
    }
}

/// Saturating `−1` on every lane except those already at zero
/// (borrow ripple; the mirror of [`inc_planes`]).
#[inline]
fn dec_planes(
    planes: &mut [u64; MAX_COUNTER_PLANES],
    width_masks: &[u64; MAX_COUNTER_PLANES + 1],
    used: usize,
    lane_mask: u64,
) {
    let mut any = 0u64;
    let mut zero = 0u64;
    for b in 0..used {
        any |= planes[b];
        zero |= !any & width_masks[b + 1];
    }
    let mut borrow = lane_mask & !zero;
    for p in planes.iter_mut().take(used) {
        if borrow == 0 {
            break;
        }
        let t = !*p & borrow;
        *p ^= borrow;
        borrow = t;
    }
}

/// One shared buffer entry: the remembered target (identical across
/// lanes — it tracks the last taken outcome, not any counter) plus
/// the packed per-lane counter bit planes.
#[derive(Clone, Debug)]
struct LaneEntry {
    target: Addr,
    planes: [u64; MAX_COUNTER_PLANES],
}

/// Bit-parallel scoring for up to [`MAX_LANES`] CBTB configurations
/// sharing one `(entries, ways)` geometry.
#[derive(Clone, Debug)]
pub struct CbtbLanes {
    buf: AssocBuffer<LaneEntry>,
    lanes: usize,
    lane_mask: u64,
    planes_used: usize,
    /// `width_masks[w]`: lanes whose counters are exactly `w` bits.
    width_masks: [u64; MAX_COUNTER_PLANES + 1],
    /// Bit planes of each lane's effective threshold `K = T + strict`
    /// (predict taken ⇔ counter ≥ K; `C > T` is `C ≥ T + 1`).
    k_planes: [u64; MAX_COUNTER_PLANES + 1],
    init_taken: [u64; MAX_COUNTER_PLANES],
    init_not_taken: [u64; MAX_COUNTER_PLANES],
    events: u64,
    cond_events: u64,
    lookups: u64,
    misses: u64,
    /// Correct-prediction increments that are lane-uniform (the miss
    /// path: every lane predicts not-taken on a buffer miss).
    shared_correct: u64,
    shared_cond_correct: u64,
    vc_correct: VerticalCounter,
    vc_cond_correct: VerticalCounter,
    correct: Vec<u64>,
    cond_correct: Vec<u64>,
}

impl CbtbLanes {
    /// Pack `configs` into one lane family.
    ///
    /// # Panics
    /// Panics if `configs` is empty or longer than [`MAX_LANES`], if
    /// geometries differ, with the [`ConfigError`](crate::ConfigError)
    /// text on any configuration that does not validate, or on counters
    /// wider than the packed planes.
    #[must_use]
    pub fn new(configs: &[CbtbConfig]) -> Self {
        assert!(
            !configs.is_empty() && configs.len() <= MAX_LANES,
            "lane family must hold 1..={MAX_LANES} configs"
        );
        let geom = (configs[0].entries, configs[0].ways);
        let mut width_masks = [0u64; MAX_COUNTER_PLANES + 1];
        let mut k_planes = [0u64; MAX_COUNTER_PLANES + 1];
        let mut init_taken = [0u64; MAX_COUNTER_PLANES];
        let mut init_not_taken = [0u64; MAX_COUNTER_PLANES];
        let mut planes_used = 0usize;
        for (j, c) in configs.iter().enumerate() {
            assert_eq!((c.entries, c.ways), geom, "lanes must share geometry");
            assert_valid(MlBtbConfig::from(*c).validate());
            let bits = usize::from(c.counter_bits);
            assert!(
                bits <= MAX_COUNTER_PLANES,
                "lane counter bits must be in 1..={MAX_COUNTER_PLANES}"
            );
            planes_used = planes_used.max(bits);
            let bit = 1u64 << j;
            width_masks[bits] |= bit;
            let k = u16::from(c.threshold) + u16::from(c.strict_greater);
            for (b, plane) in k_planes.iter_mut().enumerate() {
                *plane |= u64::from((k >> b) & 1) * bit;
            }
            for (b, plane) in init_taken.iter_mut().enumerate() {
                *plane |= u64::from((c.threshold >> b) & 1) * bit;
            }
            for (b, plane) in init_not_taken.iter_mut().enumerate() {
                *plane |= u64::from(((c.threshold - 1) >> b) & 1) * bit;
            }
        }
        let lanes = configs.len();
        CbtbLanes {
            buf: AssocBuffer::new(geom.0 / geom.1, geom.1),
            lanes,
            lane_mask: lane_mask(lanes),
            planes_used,
            width_masks,
            k_planes,
            init_taken,
            init_not_taken,
            events: 0,
            cond_events: 0,
            lookups: 0,
            misses: 0,
            shared_correct: 0,
            shared_cond_correct: 0,
            vc_correct: VerticalCounter::new(),
            vc_cond_correct: VerticalCounter::new(),
            correct: vec![0; lanes],
            cond_correct: vec![0; lanes],
        }
    }

    #[inline]
    fn tally(&mut self, correct_mask: u64, cond: bool) {
        self.vc_correct.add(correct_mask);
        if self.vc_correct.adds == VC_CAPACITY {
            self.vc_correct.drain(self.lanes, &mut self.correct);
        }
        if cond {
            self.vc_cond_correct.add(correct_mask);
            if self.vc_cond_correct.adds == VC_CAPACITY {
                self.vc_cond_correct
                    .drain(self.lanes, &mut self.cond_correct);
            }
        }
    }

    /// Score one event for every lane: the exact predict → tally →
    /// update sequence of the scalar [`Evaluator`](crate::Evaluator),
    /// with one buffer search amortized over all lanes.
    #[inline]
    fn step(&mut self, ev: &BranchEvent) {
        self.events += 1;
        let cond = ev.kind == BranchKind::Cond;
        self.cond_events += u64::from(cond);
        self.lookups += 1;
        let lane_mask = self.lane_mask;
        let used = self.planes_used;
        let k_planes = self.k_planes;
        let width_masks = self.width_masks;
        let hit = match self.buf.lookup_pos(ev.pc.0) {
            Some((_, entry)) => {
                let decide = decide_mask(&entry.planes, &k_planes, used, lane_mask);
                let correct_mask = if ev.taken {
                    if entry.target == ev.target {
                        decide
                    } else {
                        0
                    }
                } else {
                    lane_mask & !decide
                };
                if ev.taken {
                    inc_planes(&mut entry.planes, &width_masks, used, lane_mask);
                    entry.target = ev.target;
                } else {
                    dec_planes(&mut entry.planes, &width_masks, used, lane_mask);
                }
                Some(correct_mask)
            }
            None => None,
        };
        match hit {
            Some(correct_mask) => self.tally(correct_mask, cond),
            None => {
                self.misses += 1;
                let c = u64::from(!ev.taken);
                self.shared_correct += c;
                self.shared_cond_correct += c & u64::from(cond);
                let planes = if ev.taken {
                    self.init_taken
                } else {
                    self.init_not_taken
                };
                self.buf.insert(
                    ev.pc.0,
                    LaneEntry {
                        target: ev.target,
                        planes,
                    },
                );
            }
        }
    }

    fn finish(mut self) -> Vec<PredStats> {
        self.vc_correct.drain(self.lanes, &mut self.correct);
        self.vc_cond_correct
            .drain(self.lanes, &mut self.cond_correct);
        (0..self.lanes)
            .map(|j| PredStats {
                events: self.events,
                correct: self.shared_correct + self.correct[j],
                cond_events: self.cond_events,
                cond_correct: self.shared_cond_correct + self.cond_correct[j],
                btb_lookups: self.lookups,
                btb_misses: self.misses,
            })
            .collect()
    }
}

fn lane_mask(lanes: usize) -> u64 {
    if lanes == 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// One lane's pattern table for the two-level families.
#[derive(Clone, Debug)]
struct PatternLane {
    counters: Vec<u8>,
    index_mask: u32,
    history_mask: u32,
    history_bits: u32,
    cond_correct: u64,
}

fn pattern_lane(table_bits: u32, history_bits: u32) -> PatternLane {
    assert_valid(validate_two_level(table_bits, history_bits));
    PatternLane {
        counters: vec![1; 1 << table_bits], // weakly not-taken
        index_mask: (1u32 << table_bits) - 1,
        history_mask: ((1u64 << history_bits) - 1) as u32,
        history_bits,
        cond_correct: 0,
    }
}

/// Shared per-event scoring for the two-level families, once the
/// caller has computed each lane's table index. Returns nothing; the
/// lane's `cond_correct` and counters are updated in place.
#[inline]
fn score_pattern_lane(lane: &mut PatternLane, idx: u32, scored: Option<(u64, u64)>, taken: bool) {
    let slot = &mut lane.counters[(idx & lane.index_mask) as usize];
    if let Some((taken_correct, not_taken_correct)) = scored {
        let dir = *slot >= 2;
        lane.cond_correct += if dir {
            taken_correct
        } else {
            not_taken_correct
        };
    }
    *slot = saturating_step(*slot, 3, taken);
}

/// SoA scoring for up to [`MAX_LANES`] gshare geometries sharing the
/// target map and the global history register (both evolve from
/// branch outcomes only, so they are lane-uniform by construction).
#[derive(Clone, Debug)]
pub struct GshareLanes {
    lanes: Vec<PatternLane>,
    targets: HashMap<u32, Addr, BuildKeyHasher>,
    history: u32,
    events: u64,
    cond_events: u64,
    shared_correct: u64,
    shared_cond_correct: u64,
}

impl GshareLanes {
    /// Pack `(table_bits, history_bits)` geometries into one family.
    ///
    /// # Panics
    /// Panics if `geometries` is empty or longer than [`MAX_LANES`],
    /// or on any geometry [`crate::Gshare::new`] would reject.
    #[must_use]
    pub fn new(geometries: &[(u32, u32)]) -> Self {
        assert!(
            !geometries.is_empty() && geometries.len() <= MAX_LANES,
            "lane family must hold 1..={MAX_LANES} configs"
        );
        GshareLanes {
            lanes: geometries
                .iter()
                .map(|&(t, h)| pattern_lane(t, h))
                .collect(),
            targets: HashMap::default(),
            history: 0,
            events: 0,
            cond_events: 0,
            shared_correct: 0,
            shared_cond_correct: 0,
        }
    }

    #[inline]
    fn step(&mut self, ev: &BranchEvent) {
        self.events += 1;
        let target = self.targets.get(&ev.pc.0).copied();
        if ev.kind == BranchKind::Cond {
            self.cond_events += 1;
            let scored = match target {
                // No remembered target: every lane degrades its taken
                // prediction to not-taken, lane-uniformly.
                None => {
                    let c = u64::from(!ev.taken);
                    self.shared_correct += c;
                    self.shared_cond_correct += c;
                    None
                }
                Some(t) => Some((u64::from(ev.taken && t == ev.target), u64::from(!ev.taken))),
            };
            for lane in &mut self.lanes {
                let idx = ev.pc.0 ^ (self.history & lane.history_mask);
                score_pattern_lane(lane, idx, scored, ev.taken);
            }
            self.history = (self.history << 1) | u32::from(ev.taken);
        } else {
            self.shared_correct += match target {
                Some(t) => u64::from(ev.taken && t == ev.target),
                None => u64::from(!ev.taken),
            };
        }
        if ev.taken {
            self.targets.insert(ev.pc.0, ev.target);
        }
    }

    fn finish(self) -> Vec<PredStats> {
        two_level_stats(
            &self.lanes,
            self.events,
            self.cond_events,
            self.shared_correct,
            self.shared_cond_correct,
        )
    }
}

/// SoA scoring for up to [`MAX_LANES`] local-history geometries
/// sharing the target map and the per-branch history map.
#[derive(Clone, Debug)]
pub struct LocalLanes {
    lanes: Vec<PatternLane>,
    targets: HashMap<u32, Addr, BuildKeyHasher>,
    /// Raw (unmasked) per-branch outcome history — identical for
    /// every lane; each lane masks its own window at indexing time.
    histories: HashMap<u32, u32, BuildKeyHasher>,
    events: u64,
    cond_events: u64,
    shared_correct: u64,
    shared_cond_correct: u64,
}

impl LocalLanes {
    /// Pack `(table_bits, history_bits)` geometries into one family.
    ///
    /// # Panics
    /// Panics if `geometries` is empty or longer than [`MAX_LANES`],
    /// or on any geometry [`crate::LocalHistory::new`] would reject.
    #[must_use]
    pub fn new(geometries: &[(u32, u32)]) -> Self {
        assert!(
            !geometries.is_empty() && geometries.len() <= MAX_LANES,
            "lane family must hold 1..={MAX_LANES} configs"
        );
        LocalLanes {
            lanes: geometries
                .iter()
                .map(|&(t, h)| pattern_lane(t, h))
                .collect(),
            targets: HashMap::default(),
            histories: HashMap::default(),
            events: 0,
            cond_events: 0,
            shared_correct: 0,
            shared_cond_correct: 0,
        }
    }

    #[inline]
    fn step(&mut self, ev: &BranchEvent) {
        self.events += 1;
        let target = self.targets.get(&ev.pc.0).copied();
        if ev.kind == BranchKind::Cond {
            self.cond_events += 1;
            let scored = match target {
                None => {
                    let c = u64::from(!ev.taken);
                    self.shared_correct += c;
                    self.shared_cond_correct += c;
                    None
                }
                Some(t) => Some((u64::from(ev.taken && t == ev.target), u64::from(!ev.taken))),
            };
            let h = self.histories.get(&ev.pc.0).copied().unwrap_or(0);
            for lane in &mut self.lanes {
                let idx = (ev.pc.0 << lane.history_bits) ^ (h & lane.history_mask);
                score_pattern_lane(lane, idx, scored, ev.taken);
            }
            let slot = self.histories.entry(ev.pc.0).or_insert(0);
            *slot = (*slot << 1) | u32::from(ev.taken);
        } else {
            self.shared_correct += match target {
                Some(t) => u64::from(ev.taken && t == ev.target),
                None => u64::from(!ev.taken),
            };
        }
        if ev.taken {
            self.targets.insert(ev.pc.0, ev.target);
        }
    }

    fn finish(self) -> Vec<PredStats> {
        two_level_stats(
            &self.lanes,
            self.events,
            self.cond_events,
            self.shared_correct,
            self.shared_cond_correct,
        )
    }
}

fn two_level_stats(
    lanes: &[PatternLane],
    events: u64,
    cond_events: u64,
    shared_correct: u64,
    shared_cond_correct: u64,
) -> Vec<PredStats> {
    lanes
        .iter()
        .map(|l| PredStats {
            events,
            correct: shared_correct + l.cond_correct,
            cond_events,
            cond_correct: shared_cond_correct + l.cond_correct,
            btb_lookups: 0,
            btb_misses: 0,
        })
        .collect()
}

/// One packed family of compatible sweep lanes, ready to consume a
/// branch-event stream block-wise (the lane-path counterpart of a
/// chunk of scalar [`Evaluator`](crate::Evaluator)s).
#[derive(Clone, Debug)]
pub enum LaneFamily {
    /// CBTB configurations sharing one buffer geometry (boxed: the
    /// packed buffer planes dwarf the other variants).
    Cbtb(Box<CbtbLanes>),
    /// Gshare geometries sharing history + targets.
    Gshare(GshareLanes),
    /// Local-history geometries sharing histories + targets.
    Local(LocalLanes),
}

impl LaneFamily {
    /// Build the family for `specs`, which must all share one
    /// [`LaneFamilyKey`].
    ///
    /// # Panics
    /// Panics if `specs` is empty, longer than [`MAX_LANES`], mixes
    /// family keys, or contains a spec with no key.
    #[must_use]
    pub fn new(specs: &[LaneSpec]) -> Self {
        let key = specs
            .first()
            .and_then(LaneSpec::family_key)
            .expect("lane family needs at least one packable spec");
        assert!(
            specs.iter().all(|s| s.family_key() == Some(key)),
            "lane family mixes incompatible specs"
        );
        match key {
            LaneFamilyKey::Cbtb { .. } => {
                let configs: Vec<CbtbConfig> = specs
                    .iter()
                    .map(|s| match s {
                        LaneSpec::Cbtb(c) => *c,
                        _ => unreachable!("key matched Cbtb"),
                    })
                    .collect();
                LaneFamily::Cbtb(Box::new(CbtbLanes::new(&configs)))
            }
            LaneFamilyKey::Gshare => LaneFamily::Gshare(GshareLanes::new(&two_level_geoms(specs))),
            LaneFamilyKey::Local => LaneFamily::Local(LocalLanes::new(&two_level_geoms(specs))),
        }
    }

    /// Number of packed lanes (sweep points) in this family.
    #[must_use]
    pub fn lanes(&self) -> usize {
        match self {
            LaneFamily::Cbtb(f) => f.lanes,
            LaneFamily::Gshare(f) => f.lanes.len(),
            LaneFamily::Local(f) => f.lanes.len(),
        }
    }

    /// Branch events scored so far (every lane sees every event).
    #[must_use]
    pub fn events_scored(&self) -> u64 {
        match self {
            LaneFamily::Cbtb(f) => f.events,
            LaneFamily::Gshare(f) => f.events,
            LaneFamily::Local(f) => f.events,
        }
    }

    /// Score a block of events into every lane, in stream order.
    pub fn eval_block(&mut self, events: &[BranchEvent]) {
        match self {
            LaneFamily::Cbtb(f) => {
                for ev in events {
                    f.step(ev);
                }
            }
            LaneFamily::Gshare(f) => {
                for ev in events {
                    f.step(ev);
                }
            }
            LaneFamily::Local(f) => {
                for ev in events {
                    f.step(ev);
                }
            }
        }
    }

    /// Extract one [`PredStats`] per lane, in spec order —
    /// bit-identical to having scored each configuration through its
    /// own scalar evaluator.
    #[must_use]
    pub fn finish(self) -> Vec<PredStats> {
        match self {
            LaneFamily::Cbtb(f) => f.finish(),
            LaneFamily::Gshare(f) => f.finish(),
            LaneFamily::Local(f) => f.finish(),
        }
    }
}

fn two_level_geoms(specs: &[LaneSpec]) -> Vec<(u32, u32)> {
    specs
        .iter()
        .map(|s| match *s {
            LaneSpec::Gshare {
                table_bits,
                history_bits,
            }
            | LaneSpec::Local {
                table_bits,
                history_bits,
            } => (table_bits, history_bits),
            LaneSpec::Cbtb(_) => unreachable!("key matched a two-level family"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{cond_to, indirect, jmp};
    use crate::predictor::BranchPredictor;
    use crate::{Cbtb, Gshare, LocalHistory};
    use branchlab_telemetry::Rng;

    #[test]
    fn saturating_step_matches_branchy_reference() {
        for max in [1u8, 3, 7, 15] {
            for counter in 0..=max {
                for taken in [false, true] {
                    let reference = if taken {
                        (counter + 1).min(max)
                    } else {
                        counter.saturating_sub(1)
                    };
                    assert_eq!(
                        saturating_step(counter, max, taken),
                        reference,
                        "counter={counter} max={max} taken={taken}"
                    );
                }
            }
        }
    }

    #[test]
    fn family_keys_gate_compatibility() {
        let paper = LaneSpec::Cbtb(CbtbConfig::paper());
        let other_geom = LaneSpec::Cbtb(CbtbConfig {
            entries: 64,
            ways: 4,
            ..CbtbConfig::paper()
        });
        assert_ne!(paper.family_key(), other_geom.family_key());
        let wide = LaneSpec::Cbtb(CbtbConfig {
            counter_bits: 5,
            threshold: 16,
            ..CbtbConfig::paper()
        });
        assert_eq!(wide.family_key(), None, "wide counters stay scalar");
        assert_eq!(
            LaneSpec::Gshare {
                table_bits: 12,
                history_bits: 8
            }
            .family_key(),
            Some(LaneFamilyKey::Gshare)
        );
        assert_ne!(
            LaneSpec::Gshare {
                table_bits: 12,
                history_bits: 8
            }
            .family_key(),
            LaneSpec::Local {
                table_bits: 12,
                history_bits: 8
            }
            .family_key()
        );
    }

    /// Every (counter_bits, threshold) point at one geometry — the
    /// shape of the paper's counter ablation, 26 lanes.
    fn counter_sweep(entries: usize, ways: usize, strict: bool) -> Vec<CbtbConfig> {
        let mut v = Vec::new();
        for bits in 1..=4u8 {
            let max = ((1u16 << bits) - 1) as u8;
            for threshold in 1..=max {
                v.push(CbtbConfig {
                    entries,
                    ways,
                    counter_bits: bits,
                    threshold,
                    strict_greater: strict,
                });
            }
        }
        v
    }

    /// A seeded event stream with aliasing-heavy PCs (small pools that
    /// collide in sets), mixed branch kinds, and shifting targets.
    fn random_events(seed: u64, n: usize, pc_pool: &[u32]) -> Vec<BranchEvent> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut pick = |m: u64| -> u64 { rng.next_u64() % m };
        (0..n)
            .map(|_| {
                let pc = pc_pool[pick(pc_pool.len() as u64) as usize];
                let target = 1000 + (pick(3) as u32) * 64;
                match pick(10) {
                    0 => jmp(pc, target),
                    1 => indirect(pc, target),
                    _ => cond_to(pc, pick(100) < 60, target),
                }
            })
            .collect()
    }

    fn scalar_stats(
        mut preds: Vec<Box<dyn BranchPredictor>>,
        events: &[BranchEvent],
    ) -> Vec<PredStats> {
        preds
            .iter_mut()
            .map(|p| {
                let mut stats = PredStats::default();
                p.eval_block(events, &mut stats);
                stats
            })
            .collect()
    }

    #[test]
    fn cbtb_lanes_match_scalar_on_random_streams() {
        // Fully-associative paper geometry; 26 mixed-width lanes.
        let configs = counter_sweep(256, 256, false);
        let pool: Vec<u32> = (0..60).map(|i| i * 7 + 3).collect();
        for seed in [1, 2, 1989] {
            let events = random_events(seed, 6000, &pool);
            let scalar = scalar_stats(
                configs
                    .iter()
                    .map(|c| Box::new(Cbtb::new(*c)) as Box<dyn BranchPredictor>)
                    .collect(),
                &events,
            );
            let mut family = CbtbLanes::new(&configs);
            for ev in &events {
                family.step(ev);
            }
            assert_eq!(family.finish(), scalar, "seed={seed}");
        }
    }

    #[test]
    fn cbtb_lanes_match_scalar_under_set_aliasing_and_eviction() {
        // 16 sets × 4 ways with a PC pool far larger than the buffer:
        // constant conflict misses, evictions, and re-fills.
        let mut configs = counter_sweep(64, 4, false);
        configs.extend(counter_sweep(64, 4, true).into_iter().take(6));
        let pool: Vec<u32> = (0..300).map(|i| i * 16 + 1).collect(); // heavy set aliasing
        let events = random_events(7, 8000, &pool);
        let scalar = scalar_stats(
            configs
                .iter()
                .map(|c| Box::new(Cbtb::new(*c)) as Box<dyn BranchPredictor>)
                .collect(),
            &events,
        );
        let mut family = CbtbLanes::new(&configs);
        for ev in &events {
            family.step(ev);
        }
        assert_eq!(family.finish(), scalar);
    }

    #[test]
    fn strict_lane_at_counter_max_never_predicts_taken() {
        // strict_greater with T = counter max means C > T is
        // unsatisfiable — the threshold bit lands above the counter
        // planes and must force a permanent not-taken decision.
        let configs = [
            CbtbConfig {
                counter_bits: 2,
                threshold: 3,
                strict_greater: true,
                ..CbtbConfig::paper()
            },
            CbtbConfig::paper(),
        ];
        let events: Vec<BranchEvent> = (0..50).map(|_| cond_to(8, true, 100)).collect();
        let scalar = scalar_stats(
            configs
                .iter()
                .map(|c| Box::new(Cbtb::new(*c)) as Box<dyn BranchPredictor>)
                .collect(),
            &events,
        );
        let mut family = CbtbLanes::new(&configs);
        for ev in &events {
            family.step(ev);
        }
        let lanes = family.finish();
        assert_eq!(lanes, scalar);
        // The strict lane mispredicts every hit; the paper lane
        // settles into correct taken predictions.
        assert!(lanes[0].correct < lanes[1].correct);
    }

    #[test]
    fn duplicate_lanes_agree_exactly() {
        let configs = [CbtbConfig::paper(), CbtbConfig::paper()];
        let events = random_events(11, 3000, &[1, 2, 3, 4, 5]);
        let mut family = CbtbLanes::new(&configs);
        for ev in &events {
            family.step(ev);
        }
        let stats = family.finish();
        assert_eq!(stats[0], stats[1]);
    }

    #[test]
    fn gshare_lanes_match_scalar_on_random_streams() {
        let geoms = [(12u32, 8u32), (12, 4), (10, 6), (8, 0), (14, 10)];
        let pool: Vec<u32> = (0..40).map(|i| i * 3 + 1).collect();
        for seed in [3, 1989] {
            let events = random_events(seed, 6000, &pool);
            let scalar = scalar_stats(
                geoms
                    .iter()
                    .map(|&(t, h)| Box::new(Gshare::new(t, h)) as Box<dyn BranchPredictor>)
                    .collect(),
                &events,
            );
            let mut family = GshareLanes::new(&geoms);
            for ev in &events {
                family.step(ev);
            }
            assert_eq!(family.finish(), scalar, "seed={seed}");
        }
    }

    #[test]
    fn local_lanes_match_scalar_on_random_streams() {
        let geoms = [(12u32, 6u32), (12, 2), (14, 8), (10, 0)];
        let pool: Vec<u32> = (0..40).map(|i| i * 5 + 2).collect();
        for seed in [5, 1989] {
            let events = random_events(seed, 6000, &pool);
            let scalar = scalar_stats(
                geoms
                    .iter()
                    .map(|&(t, h)| Box::new(LocalHistory::new(t, h)) as Box<dyn BranchPredictor>)
                    .collect(),
                &events,
            );
            let mut family = LocalLanes::new(&geoms);
            for ev in &events {
                family.step(ev);
            }
            assert_eq!(family.finish(), scalar, "seed={seed}");
        }
    }

    #[test]
    fn lane_family_builds_from_specs_and_scores_blocks() {
        let specs: Vec<LaneSpec> = counter_sweep(256, 256, false)
            .into_iter()
            .map(LaneSpec::Cbtb)
            .collect();
        let mut family = LaneFamily::new(&specs);
        assert_eq!(family.lanes(), specs.len());
        let events = random_events(13, 2000, &[10, 20, 30]);
        family.eval_block(&events[..1000]);
        family.eval_block(&events[1000..]);
        assert_eq!(family.events_scored(), 2000);
        let stats = family.finish();
        assert_eq!(stats.len(), specs.len());
        assert!(stats.iter().all(|s| s.events == 2000));
    }

    #[test]
    fn vertical_counter_drains_at_capacity_without_loss() {
        // Cross the VC_CAPACITY flush boundary: a long single-branch
        // stream keeps every hit on the vertical-counter path.
        let configs = [CbtbConfig::paper()];
        let n = VC_CAPACITY as usize + 500;
        let events: Vec<BranchEvent> = (0..n).map(|i| cond_to(4, i % 3 != 0, 100)).collect();
        let scalar = scalar_stats(vec![Box::new(Cbtb::paper())], &events);
        let mut family = CbtbLanes::new(&configs);
        for ev in &events {
            family.step(ev);
        }
        assert_eq!(family.finish(), scalar);
    }

    #[test]
    #[should_panic(expected = "share geometry")]
    fn mixed_geometry_family_rejected() {
        let _ = CbtbLanes::new(&[
            CbtbConfig::paper(),
            CbtbConfig {
                entries: 64,
                ways: 64,
                ..CbtbConfig::paper()
            },
        ]);
    }
}
