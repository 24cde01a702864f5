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
//! * [`supervisor`]/[`fault`] — *branchlab-guard*: the fault-tolerance
//!   layer. Benchmarks run behind panic isolation, an optional
//!   watchdog, and retry-with-backoff; failures degrade to per-bench
//!   records instead of aborting the suite; and a seeded
//!   [`FaultInjector`] proves all of it deterministically.
//!
//! ## Error taxonomy
//!
//! Supervision is driven by a two-class taxonomy
//! ([`branchlab_interp::ErrorClass`], surfaced through
//! [`ExperimentError::class`]):
//!
//! | Class | Errors | Retry? |
//! |---|---|---|
//! | **Permanent** | every real interpreter error (`OutOfFuel`, `MemoryFault`, `StackOverflow`, `CallDepthExceeded`, `PcOutOfRange`, `MemoryTooSmall`), compile/lower/profile errors, FS equivalence violations | never — they are deterministic functions of (program, input, config) |
//! | **Transient** | injected faults (`ExecError::Injected`), caught panics, watchdog timeouts | yes, with exponential backoff up to `max_attempts` |
//!
//! The `branchlab-bench` crate exposes one binary per table/figure; see
//! EXPERIMENTS.md for paper-vs-measured values.

#![warn(missing_docs)]

pub mod ablation;
pub mod batch;
mod budget;
pub mod fault;
pub mod figures;
mod harness;
mod render;
pub mod supervisor;
pub mod tables;
pub mod trace_replay;

pub use batch::{PredTicket, RasTicket, SweepBatch, SweepResults, LANE_COUNTERS, SWEEP_COUNTERS};
pub use branchlab_interp::ErrorClass;
pub use budget::{CoreBudget, Permit, RUNS_HELPED, RUNS_INTERPRETED};
pub use fault::{FaultConfig, FaultInjector};
pub use harness::{
    eval_predictors, eval_predictors_live, mean_std, run_benchmark, run_benchmark_attempt,
    run_benchmark_with_budget, run_suite, BenchResult, ExperimentConfig, ExperimentError,
    SuiteResult, PHASES,
};
pub use render::{f2, mcount, pct, rho, Align, Table};
pub use supervisor::{
    run_suite_supervised, supervise, AttemptFn, BenchFailure, SupervisorConfig, SupervisorStats,
};
pub use trace_replay::TRACE_COUNTERS;
