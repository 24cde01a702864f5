//! The experiment's per-binary scoring passes over dense per-pc tables.
//!
//! The suite's programs execute at most a few hundred branch sites, so
//! every per-site quantity the paper's tables need fits in an array
//! indexed by instruction address:
//!
//! * [`SiteOutcomes`] counts each pc's `[not taken, taken]` outcomes
//!   in a [`PcCounts`]. The static schemes predict from the instruction
//!   alone, so their [`PredStats`] — always-taken, always-not-taken,
//!   BTFN and the Forward Semantic's likely bit — and the Table 2
//!   [`BranchMix`] are derived from those counts once, at the end. The
//!   same table also counts calls, returns and jump-table targets,
//!   which is all the Forward Semantic profile needs.
//! * [`NaturalPass`] adds the paper's fully-associative SBTB and CBTB
//!   as true-LRU tables indexed by pc, stepped together in one fused
//!   per-event body, with per-pc tallies that are the suite's one
//!   source of per-site telemetry ([`SiteProbe`]).
//!
//! [`Sbtb`](crate::Sbtb) and [`Cbtb`](crate::Cbtb) stay the general
//! engines (any geometry, any event source). Driven under a test-only
//! per-site oracle (`tests/support/site_oracle.rs`), they are what
//! these passes must match exactly (`tests/natural_prop.rs`). The
//! CBTB's counter rule is [`MlBtbConfig`]'s, shared with the engine.

use branchlab_ir::{Addr, FuncId, Inst};
use branchlab_telemetry::{SiteCounters, SiteProbe};
use branchlab_trace::{BranchEvent, BranchKind, BranchMix, ExecHooks, PcCounts};

use crate::cbtb::CbtbConfig;
use crate::config::assert_valid;
use crate::lanes::saturating_step;
use crate::mlbtb::{BtbEntry, MlBtbConfig};
use crate::predictor::PredStats;
use crate::sbtb::SbtbConfig;

/// What the static schemes know about one instruction address.
#[derive(Copy, Clone, Debug, Default)]
struct Site {
    /// The branch class, or `None` for a non-branch instruction.
    kind: Option<BranchKind>,
    /// The encoded target precedes the branch (BTFN's back-edge test).
    backward: bool,
    /// The Forward Semantic likely bit encoded in the instruction.
    likely: bool,
}

impl Site {
    fn of(pc: usize, inst: &Inst) -> Site {
        let backward = |target: Addr| (target.0 as usize) < pc;
        match *inst {
            Inst::Br { target, likely, .. } => Site {
                kind: Some(BranchKind::Cond),
                backward: backward(target),
                likely,
            },
            Inst::Jmp { target, .. } => Site {
                kind: Some(BranchKind::UncondDirect),
                backward: backward(target),
                likely: false,
            },
            Inst::JmpTable { .. } => Site {
                kind: Some(BranchKind::UncondIndirect),
                ..Site::default()
            },
            _ => Site::default(),
        }
    }
}

/// Which outcomes a fixed direction guess gets right, as
/// `[not taken, taken]`.
fn guess(taken: bool) -> [bool; 2] {
    [!taken, taken]
}

/// Per-pc `[not taken, taken]` outcome counts over one binary, and the
/// static schemes scored from them. The counts are a [`PcCounts`], so a
/// sink that also sees calls and returns (as a run of the interpreter
/// delivers them) holds everything `branchlab-profile` derives a
/// profile from.
///
/// ```
/// use branchlab_predict::SiteOutcomes;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut outcomes = SiteOutcomes::new(&program.code);
/// branchlab_interp::run(&program, &Default::default(), &[], &mut outcomes)?;
/// assert_eq!(outcomes.mix().cond_total(), outcomes.always_taken().cond_events);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SiteOutcomes {
    sites: Vec<Site>,
    counts: PcCounts,
}

impl SiteOutcomes {
    /// Empty counts for the binary whose instruction stream is `code`.
    #[must_use]
    pub fn new(code: &[Inst]) -> Self {
        SiteOutcomes {
            sites: code
                .iter()
                .enumerate()
                .map(|(pc, i)| Site::of(pc, i))
                .collect(),
            counts: PcCounts::new(code.len()),
        }
    }

    /// The underlying per-pc counts.
    #[must_use]
    pub fn counts(&self) -> &PcCounts {
        &self.counts
    }

    /// Add `other`'s counts to these ([`PcCounts::merge`]): outcomes
    /// counted over some runs here and the rest in `other` score
    /// exactly as one count over every run.
    ///
    /// # Panics
    /// Panics if the two count different binaries.
    pub fn merge(&mut self, other: &SiteOutcomes) {
        self.counts.merge(&other.counts);
    }

    /// Every branch site, executed or not: `(pc, kind, [not taken, taken])`.
    fn branch_sites(&self) -> impl Iterator<Item = (usize, BranchKind, [u64; 2])> + '_ {
        self.sites
            .iter()
            .zip(self.counts.counts())
            .enumerate()
            .filter_map(|(pc, (site, &counts))| site.kind.map(|kind| (pc, kind, counts)))
    }

    /// The Table 2 mix.
    #[must_use]
    pub fn mix(&self) -> BranchMix {
        let mut mix = BranchMix::new();
        for (_, kind, [not_taken, taken]) in self.branch_sites() {
            match kind {
                BranchKind::Cond => {
                    mix.cond_taken += taken;
                    mix.cond_not_taken += not_taken;
                }
                BranchKind::UncondDirect => mix.uncond_known += not_taken + taken,
                BranchKind::UncondIndirect => mix.uncond_unknown += not_taken + taken,
            }
        }
        mix
    }

    /// Score a static scheme given, per site, which outcomes it
    /// predicts correctly (`[not taken, taken]`).
    fn score(&self, right: impl Fn(BranchKind, &Site) -> [bool; 2]) -> PredStats {
        let mut stats = PredStats::default();
        for (pc, kind, counts) in self.branch_sites() {
            let right = right(kind, &self.sites[pc]);
            let correct = u64::from(right[0]) * counts[0] + u64::from(right[1]) * counts[1];
            let events = counts[0] + counts[1];
            stats.events += events;
            stats.correct += correct;
            if kind == BranchKind::Cond {
                stats.cond_events += events;
                stats.cond_correct += correct;
            }
        }
        stats
    }

    /// [`AlwaysTaken`](crate::AlwaysTaken)'s scoring: direction only,
    /// so every taken outcome is right.
    #[must_use]
    pub fn always_taken(&self) -> PredStats {
        self.score(|_, _| guess(true))
    }

    /// [`AlwaysNotTaken`](crate::AlwaysNotTaken)'s scoring.
    #[must_use]
    pub fn always_not_taken(&self) -> PredStats {
        self.score(|_, _| guess(false))
    }

    /// [`BackwardTakenForwardNot`](crate::BackwardTakenForwardNot)'s
    /// scoring. A taken-predicted indirect jump supplies only the
    /// encoded target, which is never right, and a not-taken guess is
    /// wrong for a jump that always goes — so indirect sites score
    /// nothing whatever their run-time targets.
    #[must_use]
    pub fn btfn(&self) -> PredStats {
        self.score(|kind, site| match kind {
            BranchKind::UncondIndirect => [false; 2],
            BranchKind::Cond | BranchKind::UncondDirect => guess(site.backward),
        })
    }

    /// [`LikelyBit`](crate::LikelyBit)'s scoring: conditional branches
    /// follow their encoded likely bit, direct jumps are always right
    /// and indirect ones never.
    #[must_use]
    pub fn likely_bit(&self) -> PredStats {
        self.score(|kind, site| match kind {
            BranchKind::Cond => guess(site.likely),
            BranchKind::UncondDirect => guess(true),
            BranchKind::UncondIndirect => [false; 2],
        })
    }
}

impl ExecHooks for SiteOutcomes {
    #[inline]
    fn branch(&mut self, ev: &BranchEvent) {
        debug_assert!(
            self.sites[ev.pc.0 as usize].kind.is_some(),
            "pc {} is not a branch",
            ev.pc.0
        );
        self.counts.branch(ev);
    }

    fn call(&mut self, from: Addr, callee: FuncId) {
        self.counts.call(from, callee);
    }

    fn ret(&mut self, from: Addr, to: Addr) {
        self.counts.ret(from, to);
    }
}

/// `way_of` entry for a pc that is not resident.
const NO_WAY: u32 = u32::MAX;

/// A fully-associative true-LRU buffer keyed by pc: `way_of[pc]` finds
/// a resident entry with one load, and the per-way key, value and
/// stamp arrays hold the residents in no particular order. The victim
/// of a full buffer is the minimum stamp — the entry
/// [`AssocBuffer::insert`](crate::AssocBuffer::insert) would evict.
#[derive(Clone, Debug)]
struct PcLru<V> {
    way_of: Vec<u32>,
    keys: Vec<u32>,
    values: Vec<V>,
    stamps: Vec<u64>,
    entries: usize,
}

impl<V: Copy> PcLru<V> {
    fn new(pcs: usize, entries: usize) -> Self {
        assert!(entries > 0, "a buffer needs at least one entry");
        let ways = entries.min(pcs);
        PcLru {
            way_of: vec![NO_WAY; pcs],
            keys: Vec::with_capacity(ways),
            values: Vec::with_capacity(ways),
            stamps: Vec::with_capacity(ways),
            entries,
        }
    }

    #[inline]
    fn way(&self, pc: usize) -> Option<usize> {
        let way = self.way_of[pc];
        (way != NO_WAY).then_some(way as usize)
    }

    /// Fill the absent `pc`, evicting the LRU entry of a full buffer.
    /// Returns the evicted pc, if any.
    fn insert(&mut self, pc: u32, value: V, stamp: u64) -> Option<u32> {
        if self.keys.len() < self.entries {
            self.way_of[pc as usize] = self.keys.len() as u32;
            self.keys.push(pc);
            self.values.push(value);
            self.stamps.push(stamp);
            return None;
        }
        let (victim, _) = self
            .stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("a full buffer is nonempty");
        let old = std::mem::replace(&mut self.keys[victim], pc);
        self.way_of[old as usize] = NO_WAY;
        self.way_of[pc as usize] = victim as u32;
        self.values[victim] = value;
        self.stamps[victim] = stamp;
        Some(old)
    }

    /// Delete the entry at `way` (swap-remove: the last way moves in).
    fn remove(&mut self, way: usize) {
        self.way_of[self.keys[way] as usize] = NO_WAY;
        self.keys.swap_remove(way);
        self.values.swap_remove(way);
        self.stamps.swap_remove(way);
        if let Some(&moved) = self.keys.get(way) {
            self.way_of[moved as usize] = way as u32;
        }
    }

    fn flush(&mut self) {
        for &pc in &self.keys {
            self.way_of[pc as usize] = NO_WAY;
        }
        self.keys.clear();
        self.values.clear();
        self.stamps.clear();
    }
}

/// One buffer's per-pc tallies. Misses and mispredicts are derived
/// from the site's executions.
#[derive(Copy, Clone, Debug, Default)]
struct BtbTally {
    hits: u64,
    correct: u64,
    /// Taken resolutions whose buffered target was stale.
    aliases: u64,
    /// Times this site was another fill's LRU victim.
    evicts: u64,
}

/// One pass over the conventional binary scoring everything the
/// paper's natural layout is measured by: the [`SiteOutcomes`] static
/// schemes plus a fully-associative SBTB and CBTB.
///
/// Per event the two buffers step in one fused body: a pc-indexed
/// lookup, the scoring, and the update (LRU refresh, SBTB delete-on-
/// fall-through, CBTB counter step, fills with LRU eviction) with no
/// second search. The result equals [`Evaluator`](crate::Evaluator)
/// over [`Sbtb`](crate::Sbtb) and [`Cbtb`](crate::Cbtb) with the same
/// configurations, fed the same events and flushed at the same points,
/// in every statistic; and each site counter equals what the tests'
/// per-site oracle tallies from those engines' predictions.
///
/// ```
/// use branchlab_predict::{CbtbConfig, NaturalPass, SbtbConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut pass = NaturalPass::new(&program.code, SbtbConfig::paper(), CbtbConfig::paper());
/// branchlab_interp::run(&program, &Default::default(), &[], &mut pass)?;
/// assert!(pass.sbtb_stats().accuracy() > 0.9);
/// assert_eq!(pass.cbtb_stats().btb_misses, pass.cbtb_sites().sites().len() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct NaturalPass {
    outcomes: SiteOutcomes,
    sbtb: PcLru<Addr>,
    cbtb: PcLru<BtbEntry>,
    sbtb_tally: Vec<BtbTally>,
    cbtb_tally: Vec<BtbTally>,
    cbtb_config: MlBtbConfig,
    /// Advances once per event; an entry's stamp is the tick of the
    /// last event at its pc, so stamps order residents by recency.
    tick: u64,
}

impl NaturalPass {
    /// A pass over the binary whose instruction stream is `code`.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`](crate::ConfigError) text if
    /// either configuration does not validate, and unless both buffers
    /// are fully associative (`ways == entries`).
    #[must_use]
    pub fn new(code: &[Inst], sbtb: SbtbConfig, cbtb: CbtbConfig) -> Self {
        let cbtb_config = MlBtbConfig::from(cbtb);
        assert_valid(sbtb.validate());
        assert_valid(cbtb_config.validate());
        assert_eq!(sbtb.ways, sbtb.entries, "SBTB must be fully associative");
        assert_eq!(cbtb.ways, cbtb.entries, "CBTB must be fully associative");
        let pcs = code.len();
        NaturalPass {
            outcomes: SiteOutcomes::new(code),
            sbtb: PcLru::new(pcs, sbtb.entries),
            cbtb: PcLru::new(pcs, cbtb.entries),
            sbtb_tally: vec![BtbTally::default(); pcs],
            cbtb_tally: vec![BtbTally::default(); pcs],
            cbtb_config,
            tick: 0,
        }
    }

    /// Empty both buffers — each input run is a separate program
    /// invocation, so hardware state starts cold. Counts persist.
    pub fn flush(&mut self) {
        self.sbtb.flush();
        self.cbtb.flush();
    }

    /// Begin one program invocation: the buffers start cold
    /// ([`NaturalPass::flush`]) and the counts note the run.
    pub fn start_run(&mut self) {
        self.flush();
        self.outcomes.counts.start_run();
    }

    /// Add `other`'s outcome counts and per-pc buffer tallies to this
    /// pass's. When every run of both passes began with
    /// [`NaturalPass::start_run`], each run scored from cold buffers
    /// independently of every other, so the merged pass scores exactly
    /// as one pass over all their runs would, in any run order. Merge
    /// between runs: the buffers keep this pass's contents, and the
    /// next `start_run` empties them.
    ///
    /// # Panics
    /// Panics if the passes cover different binaries or geometries.
    pub fn merge(&mut self, other: &NaturalPass) {
        assert_eq!(
            self.sbtb.entries, other.sbtb.entries,
            "SBTB geometries differ"
        );
        assert_eq!(
            self.cbtb_config, other.cbtb_config,
            "CBTB configurations differ"
        );
        self.outcomes.merge(&other.outcomes);
        for (mine, theirs) in [
            (&mut self.sbtb_tally, &other.sbtb_tally),
            (&mut self.cbtb_tally, &other.cbtb_tally),
        ] {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.hits += t.hits;
                m.correct += t.correct;
                m.aliases += t.aliases;
                m.evicts += t.evicts;
            }
        }
    }

    /// Score one resolved branch at `pc` in both buffers (the caller
    /// counts its outcome).
    #[inline]
    fn step(&mut self, pc: u32, taken: bool, target: Addr) {
        let p = pc as usize;
        self.tick += 1;
        let tick = self.tick;

        // SBTB: a hit predicts taken to the buffered target, a miss
        // predicts not taken; only taken branches are filled, and a hit
        // that falls through is deleted (§2.2).
        match self.sbtb.way(p) {
            Some(way) => {
                let tally = &mut self.sbtb_tally[p];
                tally.hits += 1;
                if taken {
                    let fresh = self.sbtb.values[way] == target;
                    tally.correct += u64::from(fresh);
                    tally.aliases += u64::from(!fresh);
                    self.sbtb.values[way] = target;
                    self.sbtb.stamps[way] = tick;
                } else {
                    self.sbtb.remove(way);
                }
            }
            None => {
                self.sbtb_tally[p].correct += u64::from(!taken);
                if taken {
                    if let Some(victim) = self.sbtb.insert(pc, target, tick) {
                        self.sbtb_tally[victim as usize].evicts += 1;
                    }
                }
            }
        }

        // CBTB: every branch is filled; a hit predicts by its counter.
        match self.cbtb.way(p) {
            Some(way) => {
                let tally = &mut self.cbtb_tally[p];
                let entry = &mut self.cbtb.values[way];
                let fresh = entry.target == target;
                let right = if self.cbtb_config.predicts_taken(entry.counter) {
                    taken && fresh
                } else {
                    !taken
                };
                tally.hits += 1;
                tally.correct += u64::from(right);
                tally.aliases += u64::from(taken && !fresh);
                entry.counter =
                    saturating_step(entry.counter, self.cbtb_config.counter_max(), taken);
                if taken {
                    entry.target = target;
                }
                self.cbtb.stamps[way] = tick;
            }
            None => {
                self.cbtb_tally[p].correct += u64::from(!taken);
                let entry = BtbEntry {
                    counter: self.cbtb_config.fill_counter(taken),
                    target,
                };
                if let Some(victim) = self.cbtb.insert(pc, entry, tick) {
                    self.cbtb_tally[victim as usize].evicts += 1;
                }
            }
        }
    }

    /// The per-pc outcome counts (the static schemes they score, and the
    /// counts a profile is derived from).
    #[must_use]
    pub fn outcomes(&self) -> &SiteOutcomes {
        &self.outcomes
    }

    /// The SBTB's scoring (Table 3 ρ, A).
    #[must_use]
    pub fn sbtb_stats(&self) -> PredStats {
        self.btb_stats(&self.sbtb_tally)
    }

    /// The CBTB's scoring (Table 3 ρ, A).
    #[must_use]
    pub fn cbtb_stats(&self) -> PredStats {
        self.btb_stats(&self.cbtb_tally)
    }

    /// The SBTB's per-site telemetry: one entry per executed site.
    #[must_use]
    pub fn sbtb_sites(&self) -> SiteProbe {
        self.site_probe(&self.sbtb_tally)
    }

    /// The CBTB's per-site telemetry: one entry per executed site.
    #[must_use]
    pub fn cbtb_sites(&self) -> SiteProbe {
        self.site_probe(&self.cbtb_tally)
    }

    fn btb_stats(&self, tally: &[BtbTally]) -> PredStats {
        let mut stats = PredStats::default();
        for (pc, kind, [not_taken, taken]) in self.outcomes.branch_sites() {
            let events = not_taken + taken;
            let t = &tally[pc];
            stats.events += events;
            stats.correct += t.correct;
            if kind == BranchKind::Cond {
                stats.cond_events += events;
                stats.cond_correct += t.correct;
            }
            stats.btb_lookups += events;
            stats.btb_misses += events - t.hits;
        }
        stats
    }

    fn site_probe(&self, tally: &[BtbTally]) -> SiteProbe {
        self.outcomes
            .branch_sites()
            .filter_map(|(pc, _, [not_taken, taken])| {
                let executions = not_taken + taken;
                if executions == 0 {
                    return None;
                }
                let t = &tally[pc];
                let counters = SiteCounters {
                    hits: t.hits,
                    misses: executions - t.hits,
                    evicts: t.evicts,
                    aliases: t.aliases,
                    taken,
                    not_taken,
                    mispredicts: executions - t.correct,
                };
                Some((pc as u32, counters))
            })
            .collect()
    }
}

impl ExecHooks for NaturalPass {
    #[inline]
    fn branch(&mut self, ev: &BranchEvent) {
        self.outcomes.branch(ev);
        self.step(ev.pc.0, ev.taken, ev.target);
    }

    fn call(&mut self, from: Addr, callee: FuncId) {
        self.outcomes.call(from, callee);
    }

    fn ret(&mut self, from: Addr, to: Addr) {
        self.outcomes.ret(from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{cond_to, indirect, jmp};
    use branchlab_ir::{Cond, Operand};

    fn br(target: u32, likely: bool) -> Inst {
        Inst::Br {
            cond: Cond::Eq,
            a: Operand::Imm(0),
            b: Operand::Imm(0),
            target: Addr(target),
            slots: 0,
            likely,
        }
    }

    /// pc 0: nop, 1: backward likely branch, 2: forward branch,
    /// 3: backward jump, 4: indirect jump.
    fn code() -> Vec<Inst> {
        vec![
            Inst::Nop,
            br(0, true),
            br(9, false),
            Inst::Jmp {
                target: Addr(1),
                slots: 0,
            },
            Inst::JmpTable {
                sel: Operand::Imm(0),
                table: 0,
            },
        ]
    }

    fn events() -> Vec<BranchEvent> {
        vec![
            cond_to(1, true, 0),
            cond_to(1, true, 0),
            cond_to(1, false, 0),
            cond_to(2, false, 9),
            cond_to(2, true, 9),
            jmp(3, 1),
            indirect(4, 0),
            indirect(4, 9),
        ]
    }

    #[test]
    fn static_schemes_follow_the_instruction() {
        let mut o = SiteOutcomes::new(&code());
        for ev in events() {
            o.branch(&ev);
        }
        let mix = o.mix();
        assert_eq!((mix.cond_taken, mix.cond_not_taken), (3, 2));
        assert_eq!((mix.uncond_known, mix.uncond_unknown), (1, 2));
        // Always-taken: every taken outcome, indirect included.
        assert_eq!((o.always_taken().correct, o.always_taken().events), (6, 8));
        assert_eq!(o.always_not_taken().correct, 2);
        // BTFN: pc 1 taken ×2, pc 2 not-taken ×1, the backward jump.
        assert_eq!(o.btfn().correct, 4);
        assert_eq!(o.btfn().cond_correct, 3);
        // Likely bit: pc 1 likely (2), pc 2 unlikely (1), the jump (1).
        assert_eq!(o.likely_bit().correct, 4);
        assert_eq!(o.likely_bit().btb_lookups, 0);
    }

    #[test]
    fn full_buffer_evicts_the_least_recent_pc() {
        let tiny = SbtbConfig {
            entries: 2,
            ways: 2,
        };
        let mut pass = NaturalPass::new(&code(), tiny, CbtbConfig::paper());
        pass.branch(&cond_to(1, true, 0));
        pass.branch(&cond_to(2, true, 9));
        pass.branch(&cond_to(1, true, 0)); // pc 2 is now the LRU entry
        pass.branch(&jmp(3, 1)); // evicts pc 2
        assert_eq!(pass.sbtb.way(2), None);
        assert!(pass.sbtb.way(1).is_some() && pass.sbtb.way(3).is_some());
        assert_eq!(pass.sbtb_sites().sites()[&2].evicts, 1);
        pass.flush();
        assert!(pass.sbtb.keys.is_empty() && pass.sbtb.way(1).is_none());
    }

    #[test]
    #[should_panic(expected = "fully associative")]
    fn set_associative_geometry_is_rejected() {
        let _ = NaturalPass::new(
            &code(),
            SbtbConfig {
                entries: 256,
                ways: 4,
            },
            CbtbConfig::paper(),
        );
    }
}
