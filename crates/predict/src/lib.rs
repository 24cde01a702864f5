//! # branchlab-predict
//!
//! Branch prediction schemes for the `branchlab` reproduction of
//! Hwu/Conte/Chang, *ISCA 1989*:
//!
//! * [`Sbtb`] — the Simple Branch Target Buffer (taken branches only,
//!   delete-on-mispredict), 256-entry fully-associative LRU by default.
//! * [`MlBtb`] — a parametric multi-level BTB hierarchy (set-associative
//!   levels with true-LRU sets, fill/promotion policies, per-level
//!   lookup-latency penalties) for server-scale instruction footprints
//!   beyond the paper's single 256-entry buffer.
//! * [`Cbtb`] — the Counter-based BTB with n-bit saturating counters
//!   (2-bit, threshold 2 by default): the single-level [`MlBtb`].
//! * [`ForwardSemantic`] — the software scheme's prediction side:
//!   profile-derived likely bits with encoded targets.
//! * [`AlwaysTaken`], [`AlwaysNotTaken`], [`BackwardTakenForwardNot`] —
//!   static baselines from the paper's related work.
//! * [`Evaluator`] — scores any [`BranchPredictor`] over a branch-event
//!   stream, producing the accuracy `A` and miss ratio `ρ` of Table 3.
//! * [`NaturalPass`] and [`SiteOutcomes`] — the experiment's per-binary
//!   passes: per-pc outcome counts from which the static schemes and
//!   the Table 2 mix are derived, plus the paper's fully-associative
//!   SBTB and CBTB as pc-indexed LRU tables, equal in every statistic
//!   and site counter to the [`Sbtb`]/[`Cbtb`] engines.
//! * [`LaneFamily`] — bit-parallel SoA scoring of up to 32 compatible
//!   sweep configurations per event in packed `u64` lanes, bit-identical
//!   to per-configuration [`Evaluator`] runs.
//! * [`ContextSwitched`] — periodic-flush wrapper for the context-switch
//!   sensitivity study the paper discusses qualitatively.
//!
//! ```
//! use branchlab_predict::{Evaluator, Sbtb};
//! use branchlab_trace::ExecHooks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = branchlab_minic::compile(
//!     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
//! )?;
//! let program = branchlab_ir::lower(&module)?;
//! let mut eval = Evaluator::new(Sbtb::paper());
//! branchlab_interp::run(&program, &Default::default(), &[], &mut eval)?;
//! assert!(eval.stats.accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod assoc;
mod cbtb;
mod config;
mod lanes;
mod mlbtb;
mod natural;
mod predictor;
mod ras;
mod sbtb;
mod statics;
mod twolevel;

pub use assoc::AssocBuffer;
pub use cbtb::{Cbtb, CbtbConfig};
pub use config::ConfigError;
pub use lanes::{
    CbtbLanes, GshareLanes, LaneFamily, LaneFamilyKey, LaneSpec, LocalLanes, MAX_LANES,
};
pub use mlbtb::{FillPolicy, LevelStats, MlBtb, MlBtbConfig, MlBtbLevel, MlBtbStats};
pub use natural::{NaturalPass, SiteOutcomes};
pub use predictor::{
    BranchPredictor, ContextSwitched, Evaluator, PredStats, Prediction, TargetInfo,
};
pub use ras::ReturnAddressStack;
pub use sbtb::{Sbtb, SbtbConfig};
pub use statics::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, ForwardSemantic, LikelyBit, OpcodeBias,
    OpcodeCounts,
};
pub use twolevel::{validate_two_level, Gshare, LocalHistory};
