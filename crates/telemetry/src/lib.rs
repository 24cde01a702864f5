//! # branchlab-telemetry
//!
//! Zero-external-dependency observability for the branchlab stack
//! (the build must work without crates.io access, so everything here is
//! `std`-only):
//!
//! * [`metrics`] — a registry of named monotonic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s with cheap atomic
//!   increments, and a [`Snapshot`] that renders to fixed-width text,
//!   JSON lines, and Prometheus exposition text.
//! * [`trace`] — the one span model: parent-linked spans shared
//!   across threads ([`TraceContext`]/[`SpanHandle`]) that time a
//!   benchmark's compile/profile/evaluate/… phases, a sweep's
//!   capture/score/merge, and a server request alike; a bounded
//!   [`FlightRecorder`] ring of recent request traces; and a Chrome
//!   trace-event / Perfetto exporter ([`chrome_trace`]).
//! * [`sink`] — [`SiteProbe`], the per-branch-site table of BTB
//!   hit/miss/evict/alias/mispredict [`SiteCounters`] that run
//!   manifests publish.
//! * [`manifest`] — the [`RunManifest`] written next to experiment
//!   output so every number in EXPERIMENTS.md can be traced back to a
//!   (config, seed, git revision, per-phase timing) record.
//! * [`json`] — a minimal JSON value type with a writer and a parser,
//!   used by the snapshot/manifest serializers and their round-trip
//!   tests.
//! * [`rng`] — a seedable SplitMix64 PRNG standing in for the `rand`
//!   crate in workload input generation and randomized tests.

#![warn(missing_docs)]

pub mod json;
pub mod manifest;
pub mod metrics;
pub mod rng;
pub mod sink;
pub mod trace;

pub use json::JsonValue;
pub use manifest::RunManifest;
pub use metrics::{prometheus_name, Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
pub use rng::Rng;
pub use sink::{SiteCounters, SiteProbe};
pub use trace::{
    chrome_trace, validate_chrome_trace, FlightRecorder, RequestTrace, Span, SpanHandle, SpanId,
    SpanLink, TraceContext, TraceId,
};
