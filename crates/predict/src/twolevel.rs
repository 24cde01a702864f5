//! Two-level adaptive predictors — the *future work* the paper called
//! for ("new solutions to the branch problem that match or exceed the
//! performance of traditional approaches must be developed", §1) and
//! that Yeh & Patt published two years later. Included so the ablation
//! benches can quantify how much headroom the 1989 schemes left on the
//! table.
//!
//! Both predictors keep the BTB's target-remembering role (a full
//! target map — an idealization, since headroom is the question) and
//! replace the per-entry 2-bit counter with pattern-history indexing:
//!
//! * [`Gshare`]: a global branch-history register XOR-folded with the
//!   PC indexes one shared table of 2-bit counters.
//! * [`LocalHistory`]: each branch's own recent outcomes index the
//!   counter table (Yeh–Patt PAg-style, with hashed per-branch history).

use std::collections::HashMap;

use branchlab_ir::Addr;
use branchlab_trace::{BranchEvent, BranchKind};

use crate::assoc::BuildKeyHasher;
use crate::config::{assert_valid, ConfigError};
use crate::lanes::{saturating_step, LaneSpec};
use crate::predictor::{BranchPredictor, Prediction, TargetInfo};

/// Check a two-level predictor's geometry, shared by [`Gshare`],
/// [`LocalHistory`] and their lane families: a pattern table of
/// 2^`table_bits` counters with `table_bits` in 1..=24, indexed by at
/// most `table_bits` bits of history.
///
/// # Errors
/// The [`ConfigError`] naming the offending field.
pub fn validate_two_level(table_bits: u32, history_bits: u32) -> Result<(), ConfigError> {
    if !(1..=24).contains(&table_bits) {
        Err(ConfigError::TableBits)
    } else if history_bits > table_bits {
        Err(ConfigError::HistoryBits)
    } else {
        Ok(())
    }
}

/// Shared 2-bit-counter pattern table.
#[derive(Clone, Debug)]
struct PatternTable {
    counters: Vec<u8>,
    mask: u32,
}

impl PatternTable {
    /// The table of a predictor with this geometry.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] text if [`validate_two_level`]
    /// refuses the geometry.
    fn new(table_bits: u32, history_bits: u32) -> Self {
        assert_valid(validate_two_level(table_bits, history_bits));
        PatternTable {
            counters: vec![1; 1 << table_bits], // weakly not-taken
            mask: (1u32 << table_bits) - 1,
        }
    }

    fn predict(&self, index: u32) -> bool {
        self.counters[(index & self.mask) as usize] >= 2
    }

    fn update(&mut self, index: u32, taken: bool) {
        let c = &mut self.counters[(index & self.mask) as usize];
        *c = saturating_step(*c, 3, taken);
    }
}

/// Remembered branch targets (idealized, unbounded — isolates the
/// *direction* prediction improvement).
#[derive(Clone, Debug, Default)]
struct TargetMap {
    targets: HashMap<u32, Addr, BuildKeyHasher>,
}

impl TargetMap {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.targets.get(&pc.0).copied()
    }

    fn update(&mut self, ev: &BranchEvent) {
        if ev.taken {
            self.targets.insert(ev.pc.0, ev.target);
        }
    }
}

/// GShare: global history XOR PC indexes a shared 2-bit counter table.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: PatternTable,
    targets: TargetMap,
    history: u32,
    history_bits: u32,
    /// Whether any update has landed since construction/flush — an
    /// untouched predictor is exactly its [`LaneSpec`] and may be
    /// packed into a lane family.
    dirty: bool,
}

impl Gshare {
    /// A gshare predictor with 2^`table_bits` counters and
    /// `history_bits` of global history.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] text if [`validate_two_level`]
    /// refuses the geometry.
    #[must_use]
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        Gshare {
            table: PatternTable::new(table_bits, history_bits),
            targets: TargetMap::default(),
            history: 0,
            history_bits,
            dirty: false,
        }
    }

    fn index(&self, pc: Addr) -> u32 {
        pc.0 ^ (self.history & ((1u32 << self.history_bits) - 1))
    }
}

impl Default for Gshare {
    /// 12-bit table, 8 bits of history.
    fn default() -> Self {
        Self::new(12, 8)
    }
}

impl BranchPredictor for Gshare {
    fn name(&self) -> &'static str {
        "gshare"
    }

    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        match ev.kind {
            BranchKind::Cond => {
                if self.table.predict(self.index(ev.pc)) {
                    match self.targets.predict(ev.pc) {
                        Some(t) => Prediction {
                            taken: true,
                            target: TargetInfo::Addr(t),
                            hit: None,
                        },
                        None => Prediction::not_taken(),
                    }
                } else {
                    Prediction::not_taken()
                }
            }
            _ => match self.targets.predict(ev.pc) {
                Some(t) => Prediction {
                    taken: true,
                    target: TargetInfo::Addr(t),
                    hit: None,
                },
                None => Prediction::not_taken(),
            },
        }
    }

    fn update(&mut self, ev: &BranchEvent, _pred: &Prediction) {
        self.dirty = true;
        self.targets.update(ev);
        if ev.kind == BranchKind::Cond {
            self.table.update(self.index(ev.pc), ev.taken);
            self.history = (self.history << 1) | u32::from(ev.taken);
        }
    }

    fn flush(&mut self) {
        self.table = PatternTable::new((self.table.mask + 1).trailing_zeros(), self.history_bits);
        self.targets = TargetMap::default();
        self.history = 0;
        self.dirty = false;
    }

    fn lane_spec(&self) -> Option<LaneSpec> {
        (!self.dirty).then(|| LaneSpec::Gshare {
            table_bits: (self.table.mask + 1).trailing_zeros(),
            history_bits: self.history_bits,
        })
    }
}

/// Per-branch local-history predictor (PAg-style): each branch's own
/// outcome history, concatenated with low PC bits, indexes the shared
/// counter table.
#[derive(Clone, Debug)]
pub struct LocalHistory {
    table: PatternTable,
    targets: TargetMap,
    histories: HashMap<u32, u32, BuildKeyHasher>,
    history_bits: u32,
    /// See [`Gshare`]: tracks divergence from the fresh [`LaneSpec`].
    dirty: bool,
}

impl LocalHistory {
    /// A local-history predictor with 2^`table_bits` counters and
    /// `history_bits` of per-branch history.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] text if [`validate_two_level`]
    /// refuses the geometry.
    #[must_use]
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        LocalHistory {
            table: PatternTable::new(table_bits, history_bits),
            targets: TargetMap::default(),
            histories: HashMap::default(),
            history_bits,
            dirty: false,
        }
    }

    fn index(&self, pc: Addr) -> u32 {
        let h = self.histories.get(&pc.0).copied().unwrap_or(0);
        (pc.0 << self.history_bits) ^ (h & ((1u32 << self.history_bits) - 1))
    }
}

impl Default for LocalHistory {
    /// 12-bit table, 6 bits of local history.
    fn default() -> Self {
        Self::new(12, 6)
    }
}

impl BranchPredictor for LocalHistory {
    fn name(&self) -> &'static str {
        "local-2level"
    }

    fn predict(&mut self, ev: &BranchEvent) -> Prediction {
        match ev.kind {
            BranchKind::Cond => {
                if self.table.predict(self.index(ev.pc)) {
                    match self.targets.predict(ev.pc) {
                        Some(t) => Prediction {
                            taken: true,
                            target: TargetInfo::Addr(t),
                            hit: None,
                        },
                        None => Prediction::not_taken(),
                    }
                } else {
                    Prediction::not_taken()
                }
            }
            _ => match self.targets.predict(ev.pc) {
                Some(t) => Prediction {
                    taken: true,
                    target: TargetInfo::Addr(t),
                    hit: None,
                },
                None => Prediction::not_taken(),
            },
        }
    }

    fn update(&mut self, ev: &BranchEvent, _pred: &Prediction) {
        self.dirty = true;
        self.targets.update(ev);
        if ev.kind == BranchKind::Cond {
            let idx = self.index(ev.pc);
            self.table.update(idx, ev.taken);
            let h = self.histories.entry(ev.pc.0).or_insert(0);
            *h = (*h << 1) | u32::from(ev.taken);
        }
    }

    fn flush(&mut self) {
        self.table = PatternTable::new((self.table.mask + 1).trailing_zeros(), self.history_bits);
        self.targets = TargetMap::default();
        self.histories.clear();
        self.dirty = false;
    }

    fn lane_spec(&self) -> Option<LaneSpec> {
        (!self.dirty).then(|| LaneSpec::Local {
            table_bits: (self.table.mask + 1).trailing_zeros(),
            history_bits: self.history_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::cond;
    use crate::predictor::Evaluator;
    use crate::Cbtb;
    use branchlab_trace::ExecHooks;

    fn drive<P: BranchPredictor>(p: P, outcomes: &[bool]) -> Evaluator<P> {
        let mut e = Evaluator::new(p);
        for &t in outcomes {
            e.branch(&cond(16, t));
        }
        e
    }

    #[test]
    fn gshare_learns_alternation_that_defeats_counters() {
        // T,N,T,N… is pathological for a 2-bit counter but trivially
        // captured by 2+ bits of history.
        let outcomes: Vec<bool> = (0..400).map(|i| i % 2 == 0).collect();
        let gshare = drive(Gshare::default(), &outcomes);
        let cbtb = drive(Cbtb::paper(), &outcomes);
        assert!(
            gshare.stats.accuracy() > 0.9,
            "gshare on alternation: {}",
            gshare.stats.accuracy()
        );
        assert!(gshare.stats.accuracy() > cbtb.stats.accuracy() + 0.2);
    }

    #[test]
    fn local_history_learns_short_periodic_patterns() {
        // Period-3 pattern T,T,N…
        let outcomes: Vec<bool> = (0..600).map(|i| i % 3 != 2).collect();
        let local = drive(LocalHistory::default(), &outcomes);
        assert!(
            local.stats.accuracy() > 0.9,
            "local history on period-3: {}",
            local.stats.accuracy()
        );
    }

    #[test]
    fn biased_periodic_branches_become_deterministic() {
        // Period-8 pattern: every 8-bit history window is unique, so a
        // predictor with ≥8 bits of history learns it completely.
        let outcomes: Vec<bool> = (0..800).map(|i| i % 8 != 0).collect();
        let g = drive(Gshare::new(12, 8), &outcomes);
        assert!(g.stats.accuracy() > 0.9, "gshare {}", g.stats.accuracy());
        let l = drive(LocalHistory::new(14, 8), &outcomes);
        assert!(l.stats.accuracy() > 0.9, "local {}", l.stats.accuracy());
    }

    #[test]
    fn flush_resets_learning() {
        let outcomes: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let mut e = drive(Gshare::default(), &outcomes);
        let trained = e.stats.accuracy();
        e.predictor.flush();
        let mut fresh = Evaluator::new(e.predictor.clone());
        for &t in &outcomes[..20] {
            fresh.branch(&cond(16, t));
        }
        // Right after a flush the short-window accuracy is lower than
        // the trained asymptote.
        assert!(fresh.stats.accuracy() <= trained + 0.1);
    }

    #[test]
    fn real_program_accuracy_at_least_matches_cbtb() {
        let module = branchlab_minic::compile(
            r"
            int main() {
                int i; int s = 0;
                for (i = 0; i < 3000; i++) {
                    if (i % 2 == 0) { s += 1; }
                    if (i % 7 < 3) { s += 2; }
                }
                return s;
            }",
        )
        .unwrap();
        let program = branchlab_ir::lower(&module).unwrap();
        let mut g = Evaluator::new(Gshare::default());
        let mut c = Evaluator::new(Cbtb::paper());
        branchlab_interp::run(&program, &Default::default(), &[], &mut (&mut g, &mut c)).unwrap();
        assert!(
            g.stats.accuracy() >= c.stats.accuracy() - 0.01,
            "gshare {} vs cbtb {}",
            g.stats.accuracy(),
            c.stats.accuracy()
        );
    }
}
