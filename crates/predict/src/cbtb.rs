//! The Counter-based Branch Target Buffer (CBTB) of the paper's §2.2,
//! using J. E. Smith's saturating up/down counter per entry.
//!
//! All branches (taken or not) are eligible for residence. A new entry's
//! n-bit counter is initialized to the threshold `T` on a taken fill and
//! `T − 1` on a not-taken fill; it then saturates at `0` and `2ⁿ − 1`.
//! A resident branch is predicted taken when its counter reaches the
//! threshold.
//!
//! The paper's text says "predicted taken when C > T", which with the
//! stated T = 2 would make a just-inserted taken branch predict
//! *not-taken* — contradicting both the cited Smith scheme and the
//! initialization rule. [`CbtbConfig::paper()`] therefore reads it as
//! `C ≥ T`, the Smith-style rule; [`CbtbConfig::strict_greater`]
//! selects the literal `C > T`. The experiment harness runs the
//! literal reading for the suite's Table 3 (its `cbtb_strict` knob,
//! on by default; see DESIGN.md for the evidence).
//!
//! There is one engine for it: [`Cbtb`] is the single-level [`MlBtb`],
//! and a [`CbtbConfig`] converts into a one-level
//! [`MlBtbConfig`](crate::MlBtbConfig), which carries the counter rule.

use crate::mlbtb::MlBtb;

/// CBTB geometry and counter parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CbtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (ways per set); `entries` for fully associative.
    pub ways: usize,
    /// Counter width in bits (the paper uses 2).
    pub counter_bits: u8,
    /// Prediction threshold `T` (the paper uses 2).
    pub threshold: u8,
    /// Predict taken only when `C > T` (the paper's literal text) instead
    /// of `C ≥ T` (the reading consistent with Smith's scheme).
    pub strict_greater: bool,
}

impl CbtbConfig {
    /// The paper's configuration: 256 entries, fully associative, 2-bit
    /// counters, T = 2.
    #[must_use]
    pub fn paper() -> Self {
        CbtbConfig {
            entries: 256,
            ways: 256,
            counter_bits: 2,
            threshold: 2,
            strict_greater: false,
        }
    }
}

impl Default for CbtbConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The Counter-based Branch Target Buffer: a single-level [`MlBtb`],
/// built from a [`CbtbConfig`]. Like every engine it reports each
/// step's outcome only through its [`Prediction`](crate::Prediction);
/// [`NaturalPass`](crate::NaturalPass) keeps the per-site tallies.
///
/// Construct with the paper's parameters and score it over a live run
/// via [`Evaluator`](crate::Evaluator):
///
/// ```
/// use branchlab_predict::{Cbtb, Evaluator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
///
/// let mut eval = Evaluator::new(Cbtb::paper());
/// branchlab_interp::run(&program, &Default::default(), &[], &mut eval)?;
///
/// // The 2-bit counters hold the loop branch at "taken" through its
/// // single not-taken exit, so accuracy stays high.
/// assert!(eval.stats.accuracy() > 0.9);
/// # Ok(())
/// # }
/// ```
pub type Cbtb = MlBtb;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::{branch_code, cond, cond_to};
    use crate::predictor::Evaluator;
    use crate::{NaturalPass, SbtbConfig};
    use branchlab_trace::ExecHooks;

    fn drive(c: Cbtb, outcomes: &[bool]) -> Evaluator<Cbtb> {
        let mut e = Evaluator::new(c);
        for &taken in outcomes {
            e.branch(&cond_to(10, taken, 50));
        }
        e
    }

    #[test]
    fn all_branches_enter_the_buffer() {
        let mut e = Evaluator::new(Cbtb::paper());
        e.branch(&cond(10, false)); // not-taken still inserted
        assert_eq!(e.predictor.len(), 1);
    }

    #[test]
    fn fresh_taken_entry_predicts_taken() {
        // taken (miss→insert at T), then taken again → predicted taken.
        let e = drive(Cbtb::paper(), &[true, true]);
        assert_eq!(e.stats.correct, 1);
    }

    #[test]
    fn fresh_not_taken_entry_predicts_not_taken() {
        let e = drive(Cbtb::paper(), &[false, false]);
        // First is a correct not-taken miss, second a correct hit.
        assert_eq!(e.stats.correct, 2);
        assert_eq!(e.stats.btb_misses, 1);
    }

    #[test]
    fn counter_saturates_and_tolerates_one_anomaly() {
        // Long taken run saturates at 3; one not-taken dip (to 2) must
        // not flip the prediction (the 2-bit counter's hysteresis).
        let mut outcomes = vec![true; 10];
        outcomes.push(false);
        outcomes.push(true); // still predicted taken → correct
        let e = drive(Cbtb::paper(), &outcomes);
        // Events: 1 miss-wrong + 9 correct taken + 1 wrong not-taken + 1 correct.
        assert_eq!(e.stats.events, 12);
        assert_eq!(e.stats.correct, 10);
    }

    #[test]
    fn two_anomalies_flip_the_prediction() {
        // saturate taken, then two not-taken (3→2→1), next prediction is
        // not-taken.
        let mut e = drive(Cbtb::paper(), &[true, true, true, true, false, false]);
        e.branch(&cond_to(10, false, 50));
        // That last event should be predicted not-taken → correct.
        assert_eq!(e.stats.correct, 3 + 1);
    }

    #[test]
    fn alternating_pattern_defeats_counters() {
        // T,N,T,N… the counter oscillates around the threshold.
        let outcomes: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let e = drive(Cbtb::paper(), &outcomes);
        assert!(
            e.stats.accuracy() < 0.6,
            "alternation should be hard: {}",
            e.stats.accuracy()
        );
    }

    #[test]
    fn strict_greater_reading_hurts_fresh_entries() {
        let cfg = CbtbConfig {
            strict_greater: true,
            ..CbtbConfig::paper()
        };
        let strict = drive(Cbtb::new(cfg), &[true, true, true]);
        let lenient = drive(Cbtb::paper(), &[true, true, true]);
        assert!(strict.stats.correct < lenient.stats.correct);
    }

    #[test]
    fn stale_target_counts_as_misprediction() {
        let mut e = Evaluator::new(Cbtb::paper());
        e.branch(&cond_to(10, true, 100));
        e.branch(&cond_to(10, true, 100)); // correct
        e.branch(&cond_to(10, true, 999)); // predicted taken but old target
        assert_eq!(e.stats.correct, 1);
        // Target refreshed after the update.
        e.branch(&cond_to(10, true, 999));
        assert_eq!(e.stats.correct, 2);
    }

    #[test]
    fn miss_ratio_much_lower_than_sbtb_on_mixed_branches() {
        // A branch that is never taken stays resident in the CBTB
        // (misses once) but would never enter an SBTB (misses always).
        let e = drive(Cbtb::paper(), &[false; 50]);
        assert_eq!(e.stats.btb_misses, 1);
        assert!((e.stats.miss_ratio() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn counter_bits_sweep_is_constructible() {
        for bits in 1..=4u8 {
            let cfg = CbtbConfig {
                counter_bits: bits,
                threshold: 1 << (bits - 1),
                ..CbtbConfig::paper()
            };
            let _ = Cbtb::new(cfg);
        }
    }

    #[test]
    fn site_probe_sees_residence_and_mispredicts() {
        // Per-site tallies are the natural pass's; at both geometries it
        // scores the events as the engine does.
        let events = [
            cond_to(10, true, 50),  // miss (wrong), insert at T
            cond_to(10, true, 50),  // hit, correct
            cond_to(10, false, 50), // hit, predicted taken → wrong
            cond_to(10, true, 99),  // hit, stale target → alias, wrong
            cond_to(26, false, 7),  // miss (right), insert (evicts site 10 from 1 entry)
        ];
        for entries in [1, 256] {
            let config = CbtbConfig {
                entries,
                ways: entries,
                ..CbtbConfig::paper()
            };
            let sbtb = SbtbConfig {
                entries,
                ways: entries,
            };
            let mut pass = NaturalPass::new(&branch_code(&[10, 26]), sbtb, config);
            let mut e = Evaluator::new(Cbtb::new(config));
            for ev in &events {
                pass.branch(ev);
                e.branch(ev);
            }
            assert_eq!(pass.cbtb_stats(), e.stats, "{entries} entries");
            let probe = pass.cbtb_sites();
            let c = probe.sites()[&10];
            assert_eq!((c.hits, c.misses), (3, 1));
            assert_eq!((c.taken, c.not_taken), (3, 1));
            assert_eq!(c.mispredicts, 3);
            assert_eq!(c.aliases, 1);
            assert_eq!(
                c.evicts,
                u64::from(entries == 1),
                "site 10 is the 1-entry buffer's eviction victim"
            );
            let c = probe.sites()[&26];
            assert_eq!((c.misses, c.not_taken, c.mispredicts), (1, 1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_above_counter_max_rejected() {
        let _ = Cbtb::new(CbtbConfig {
            counter_bits: 2,
            threshold: 4,
            ..CbtbConfig::paper()
        });
    }
}
