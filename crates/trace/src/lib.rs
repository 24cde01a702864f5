//! # branchlab-trace
//!
//! Dynamic branch-trace events and statistics collectors for the
//! `branchlab` reproduction of Hwu/Conte/Chang (ISCA 1989).
//!
//! * [`BranchEvent`]/[`BranchKind`]: one executed control transfer, in
//!   the paper's taxonomy (conditional, unconditional-known-target,
//!   unconditional-unknown-target).
//! * [`ExecHooks`]: the sink trait the interpreter drives; predictors and
//!   collectors implement it, and `(&mut a, &mut b)` composes two sinks
//!   for single-pass experiments.
//! * [`BranchMix`]: Table 2 percentages.
//! * [`SiteStats`]: per-site taken/total counts — the raw material for
//!   profile-guided (Forward Semantic) prediction.
//! * [`PcCounts`]: dense per-pc branch, call and return counts over one
//!   binary — what the natural pass scores the static schemes from and
//!   derives the profile from.
//! * [`TraceRecorder`]: bounded event recording for tests.
//! * [`TraceBuf`]/[`Capture`]/[`replay`]: compact capture of the full
//!   dynamic event stream and memory-speed replay into any sink —
//!   the trace-driven engine behind the sweep experiments.
//! * [`TraceKey`]/[`save_trace`]/[`load_trace`]: hash-validated
//!   on-disk trace caching.
//! * [`TraceReader`]/[`TraceEvent`]/[`BlockIter`]/[`EventBlock`]:
//!   streaming decode of shared read-only trace buffers, one event or
//!   one block at a time — the substrate of the parallel sweep executor.

#![warn(missing_docs)]

mod blocks;
mod cache;
mod counts;
mod event;
mod replay;
mod stats;

pub use blocks::{BlockIter, CallRet, EventBlock, DEFAULT_BLOCK_EVENTS};
pub use cache::{hash_bytes, load_trace, save_trace, TraceKey};
pub use counts::PcCounts;
pub use event::{BranchEvent, BranchKind, ExecHooks};
pub use replay::{replay, replay_traced, Capture, ReplayError, TraceBuf, TraceEvent, TraceReader};
pub use stats::{BranchMix, SiteCounts, SiteStats, TraceRecorder};
