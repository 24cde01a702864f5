//! The Simple Branch Target Buffer (SBTB) of the paper's §2.2.
//!
//! A cache of *taken* branches, tagged by branch address. A hit predicts
//! taken with the stored target (the hardware also stores the first `k`
//! target instructions; that latency effect is the cost model's job).
//! A miss predicts not-taken. An entry whose branch executes not-taken
//! is deleted.

use branchlab_ir::Addr;
use branchlab_trace::BranchEvent;

use crate::assoc::AssocBuffer;
use crate::config::{assert_valid, validate_geometry, ConfigError};
use crate::predictor::{BranchPredictor, Prediction, TargetInfo};

/// SBTB geometry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SbtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
}

impl SbtbConfig {
    /// The paper's configuration: 256 entries, fully associative, LRU.
    #[must_use]
    pub fn paper() -> Self {
        SbtbConfig {
            entries: 256,
            ways: 256,
        }
    }

    /// Check the geometry: `ways` in 1..=`entries`, splitting `entries`
    /// into a power-of-two number of sets.
    ///
    /// # Errors
    /// The [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_geometry(None, self.entries, self.ways)
    }
}

impl Default for SbtbConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The Simple Branch Target Buffer. It reports each step's outcome
/// only through its [`Prediction`]; per-site tallies are the scorer's
/// job ([`NaturalPass`](crate::NaturalPass) keeps them per pc).
///
/// Construct with the paper's geometry (or any [`SbtbConfig`]) and score
/// it over a live run via [`Evaluator`](crate::Evaluator):
///
/// ```
/// use branchlab_predict::{Evaluator, Sbtb, SbtbConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
///
/// let mut eval = Evaluator::new(Sbtb::new(SbtbConfig {
///     entries: 64,
///     ways: 64,
/// }));
/// branchlab_interp::run(&program, &Default::default(), &[], &mut eval)?;
///
/// // A repetitive loop is an easy target for a buffer of taken
/// // branches: direction plus stored target are almost always right.
/// assert!(eval.stats.accuracy() > 0.9);
/// assert!(eval.stats.btb_lookups > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Sbtb {
    buf: AssocBuffer<Addr>,
    /// `(pc, way)` of the entry the last `predict` hit, so `update` can
    /// revisit it without a second buffer search.
    last_hit: Option<(u32, u32)>,
}

impl Sbtb {
    /// Build an SBTB with the given geometry.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] text if
    /// [`SbtbConfig::validate`] refuses `config`.
    #[must_use]
    pub fn new(config: SbtbConfig) -> Self {
        assert_valid(config.validate());
        Sbtb {
            buf: AssocBuffer::new(config.entries / config.ways, config.ways),
            last_hit: None,
        }
    }

    /// The paper's 256-entry fully-associative SBTB.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(SbtbConfig::paper())
    }

    /// Resident entries (for tests and occupancy studies).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Default for Sbtb {
    fn default() -> Self {
        Self::paper()
    }
}

impl BranchPredictor for Sbtb {
    fn name(&self) -> &'static str {
        "SBTB"
    }

    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        let hit = self.buf.lookup_pos(ev.pc.0).map(|(way, t)| (way, *t));
        self.last_hit = hit.map(|(way, _)| (ev.pc.0, way));
        match hit.map(|(_, t)| t) {
            Some(target) => Prediction {
                taken: true,
                target: TargetInfo::Addr(target),
                hit: Some(true),
            },
            None => Prediction {
                taken: false,
                target: TargetInfo::None,
                hit: Some(false),
            },
        }
    }

    fn update(&mut self, ev: &BranchEvent, pred: &Prediction) {
        let cached_way = match self.last_hit.take() {
            Some((pc, way)) if pc == ev.pc.0 => Some(way),
            _ => None,
        };
        if ev.taken {
            // Remember (or refresh) the taken branch and its target; a
            // predict-time hit already knows the way, skipping the search.
            if let Some(way) = cached_way {
                if let Some(target) = self.buf.touch(ev.pc.0, way) {
                    *target = ev.target;
                    return;
                }
            }
            self.buf.insert(ev.pc.0, ev.target);
        } else if pred.hit == Some(true) {
            // Predicted taken but fell through: delete the entry (§2.2).
            if cached_way.is_none_or(|way| self.buf.remove_at(ev.pc.0, way).is_none()) {
                self.buf.remove(ev.pc.0);
            }
        }
    }

    fn flush(&mut self) {
        self.buf.flush();
        self.last_hit = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{branch_code, cond, cond_to, indirect, jmp};
    use crate::predictor::Evaluator;
    use crate::{CbtbConfig, NaturalPass};
    use branchlab_trace::ExecHooks;

    fn drive(sbtb: Sbtb, events: &[BranchEvent]) -> Evaluator<Sbtb> {
        let mut e = Evaluator::new(sbtb);
        for ev in events {
            e.branch(ev);
        }
        e
    }

    #[test]
    fn miss_predicts_not_taken() {
        let e = drive(Sbtb::paper(), &[cond(10, false)]);
        assert_eq!(e.stats.correct, 1);
        assert_eq!(e.stats.btb_misses, 1);
    }

    #[test]
    fn only_taken_branches_enter_the_buffer() {
        let mut s = Sbtb::paper();
        let mut e = Evaluator::new(s);
        e.branch(&cond(10, false));
        assert_eq!(e.predictor.len(), 0);
        e.branch(&cond(10, true));
        assert_eq!(e.predictor.len(), 1);
        s = e.predictor;
        assert!(s.buf.peek(10).is_some());
    }

    #[test]
    fn hit_predicts_taken_with_stored_target() {
        // taken once (miss, inserted), then taken again (hit, correct).
        let e = drive(
            Sbtb::paper(),
            &[cond_to(10, true, 50), cond_to(10, true, 50)],
        );
        assert_eq!(e.stats.events, 2);
        assert_eq!(e.stats.correct, 1); // first was a mispredicted miss
        assert_eq!(e.stats.btb_misses, 1);
        assert_eq!(e.stats.btb_lookups, 2);
    }

    #[test]
    fn mispredicted_taken_deletes_entry() {
        let mut e = Evaluator::new(Sbtb::paper());
        e.branch(&cond(10, true)); // inserted
        e.branch(&cond(10, false)); // hit, predicted taken, wrong → deleted
        assert_eq!(e.predictor.len(), 0);
        // Next not-taken is a miss and correctly predicted.
        e.branch(&cond(10, false));
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn loop_branch_accuracy_converges() {
        // 100 iterations of a taken loop branch: first is wrong, rest hit.
        let events: Vec<_> = (0..100).map(|_| cond_to(10, true, 5)).collect();
        let e = drive(Sbtb::paper(), &events);
        assert_eq!(e.stats.correct, 99);
    }

    #[test]
    fn indirect_jump_correct_only_when_target_repeats() {
        let e = drive(
            Sbtb::paper(),
            &[indirect(10, 100), indirect(10, 100), indirect(10, 200)],
        );
        // miss(wrong), hit target 100 (right), hit stale 100 vs actual 200 (wrong)
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn unconditional_direct_jump_settles_after_first_miss() {
        let e = drive(Sbtb::paper(), &[jmp(10, 7), jmp(10, 7), jmp(10, 7)]);
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn capacity_pressure_evicts_lru_and_costs_accuracy() {
        // 4-entry SBTB, 8 distinct always-taken branches, round-robin:
        // every access misses once warm capacity is exceeded.
        let mut e = Evaluator::new(Sbtb::new(SbtbConfig {
            entries: 4,
            ways: 4,
        }));
        for round in 0..4 {
            for pc in 0..8u32 {
                e.branch(&cond_to(pc * 16, true, 500));
            }
            let _ = round;
        }
        // Working set (8) exceeds capacity (4) with LRU + round-robin →
        // every single access misses.
        assert_eq!(e.stats.btb_misses, 32);
        assert_eq!(e.stats.correct, 0);
    }

    #[test]
    fn site_probe_counts_hits_misses_and_evictions() {
        // Per-site tallies are the natural pass's; at both geometries it
        // scores the events as the engine does.
        let events = [
            cond_to(10, true, 50), // miss, insert
            cond_to(10, true, 50), // hit, correct
            cond_to(10, true, 99), // hit, stale target → alias
            cond_to(26, true, 7),  // miss, insert (evicts site 10 from 1 entry)
        ];
        for entries in [1, 256] {
            let config = SbtbConfig {
                entries,
                ways: entries,
            };
            let cbtb = CbtbConfig {
                entries,
                ways: entries,
                ..CbtbConfig::paper()
            };
            let mut pass = NaturalPass::new(&branch_code(&[10, 26]), config, cbtb);
            let mut e = Evaluator::new(Sbtb::new(config));
            for ev in &events {
                pass.branch(ev);
                e.branch(ev);
            }
            assert_eq!(pass.sbtb_stats(), e.stats, "{entries} entries");
            let probe = pass.sbtb_sites();
            let site10 = probe.sites()[&10];
            assert_eq!(site10.hits, 2);
            assert_eq!(site10.misses, 1);
            assert_eq!(
                site10.evicts,
                u64::from(entries == 1),
                "site 10 is the 1-entry buffer's eviction victim"
            );
            assert_eq!(site10.aliases, 1);
            assert_eq!(site10.taken, 3);
            assert_eq!(site10.mispredicts, 2); // first miss + stale target
            assert_eq!(probe.sites()[&26].misses, 1);
        }
    }

    #[test]
    fn flush_empties_buffer() {
        let mut s = Sbtb::paper();
        let p = s.predict(&cond(10, true));
        s.update(&cond(10, true), &p);
        assert_eq!(s.len(), 1);
        s.flush();
        assert!(s.is_empty());
    }
}
