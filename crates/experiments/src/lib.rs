//! # branchlab-experiments
//!
//! The experiment harness that regenerates every table and figure of
//! Hwu, Conte & Chang (ISCA 1989):
//!
//! * [`run_suite`] / [`run_benchmark`]: compile → profile → Forward
//!   Semantic transform → evaluate SBTB/CBTB/FS (plus static baselines)
//!   over the 12-benchmark suite, verifying that the transformed binary
//!   is observationally equivalent to the conventional one.
//! * [`tables`] — Tables 1–5.
//! * [`figures`] — Figures 3–4 (cost-vs-pipelining curves + ASCII plots).
//! * [`ablation`] — geometry/counter/context-switch/static-baseline
//!   sweeps that extend the paper's discussion quantitatively.
//! * [`trace_replay`] — the trace-driven engine behind the sweeps:
//!   each benchmark's dynamic event stream is captured once (cached in
//!   memory and optionally on disk) and replayed into every predictor
//!   configuration at memory speed, bit-identical to live
//!   interpretation.
//! * [`supervisor`] — *branchlab-guard*: each benchmark runs once,
//!   behind panic isolation and an optional watchdog, and a failure
//!   degrades to a per-bench record instead of aborting the suite.
//!
//! There are no retries. Every result is a deterministic function of
//! (program, inputs, configuration), so every error — an interpreter
//! error such as `OutOfFuel`, a compile/lower/profile error, an FS
//! equivalence violation — repeats on a second run; a panic or an
//! elapsed watchdog deadline is a defect to report, not noise to
//! retry away.
//!
//! The `branchlab-bench` crate exposes one binary per table/figure; see
//! EXPERIMENTS.md for paper-vs-measured values.

#![warn(missing_docs)]

pub mod ablation;
pub mod batch;
mod budget;
pub mod figures;
mod harness;
mod render;
pub mod supervisor;
pub mod tables;
pub mod trace_replay;

pub use batch::{PredTicket, RasTicket, SweepBatch, SweepResults, LANE_COUNTERS, SWEEP_COUNTERS};
pub use budget::{CoreBudget, Permit, RUNS_HELPED, RUNS_INTERPRETED};
pub use harness::{
    eval_predictors, eval_predictors_live, mean_std, run_benchmark, run_benchmark_with_budget,
    run_suite, BenchResult, ExperimentConfig, ExperimentError, SuiteResult, PHASES,
};
pub use render::{f2, mcount, pct, rho, Align, Table};
pub use supervisor::{
    run_suite_supervised, supervise, BenchFailure, SupervisorConfig, SupervisorStats,
};
pub use trace_replay::TRACE_COUNTERS;
