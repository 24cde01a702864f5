//! Hierarchical tracing: span trees, a flight recorder holding the
//! last N completed traces, and a Chrome trace-event exporter.
//!
//! One span model serves every layer. A benchmark run is a trace whose
//! root span holds one child per pipeline phase; a sweep records its
//! capture/score/merge phases under whatever span it is given; a
//! server request is a trace from accept to response. Each answers the
//! same question: which parent span contained which child spans, on
//! which thread, doing how much work — the way microarchitecture
//! papers attribute cycles to pipeline stages.
//!
//! * [`TraceId`] / [`SpanId`] — identifiers; trace ids are drawn from
//!   a process-wide SplitMix64 stream (or supplied by the client via
//!   `X-Branchlab-Trace-Id`), span ids are sequential per trace.
//! * [`TraceContext`] — the shared handle for one request's trace. It
//!   is `Clone + Send + Sync` (an `Arc` around the span collector), so
//!   a connection thread can open the root span while pool workers and
//!   sweep shards record children of it concurrently.
//! * [`SpanHandle`] — an open span; records itself (with monotonic
//!   start/duration ticks and work counts) into the trace on drop.
//!   [`SpanHandle::link`] yields a [`SpanLink`] that crosses thread
//!   and API boundaries without transferring ownership of the span.
//! * [`FlightRecorder`] — a bounded ring of the last N completed
//!   [`RequestTrace`]s. Writers take one slot lock each (never a
//!   global one), so recording stays cheap under concurrency and old
//!   traces are evicted by overwrite, never by allocation.
//! * [`chrome_trace`] — export recorded traces as Chrome trace-event
//!   JSON, openable in Perfetto / `chrome://tracing`; every trace is
//!   anchored at its wall-clock start, so traces recorded concurrently
//!   overlap on the timeline.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::JsonValue;
use crate::rng::Rng;

/// Identifier of one request trace (16 lowercase hex digits on the
/// wire, e.g. in `X-Branchlab-Trace-Id`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Draw a fresh process-unique id from the global SplitMix64
    /// stream. The stream position is advanced atomically and the
    /// SplitMix64 output function is a bijection, so two calls can
    /// never collide within a process.
    #[must_use]
    pub fn fresh() -> TraceId {
        static STATE: OnceLock<AtomicU64> = OnceLock::new();
        let state = STATE.get_or_init(|| {
            let nanos = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            AtomicU64::new(nanos ^ (std::process::id() as u64).rotate_left(32))
        });
        let v = Rng::seed_from_u64(state.fetch_add(1, Ordering::Relaxed)).next_u64();
        TraceId(if v == 0 { 1 } else { v })
    }

    /// Parse a 1–16 hex digit id, as accepted from clients. Zero and
    /// malformed strings are rejected (the server then assigns its
    /// own id).
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within its trace (sequential from 1; the
/// root span of a request is conventionally span 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// One completed span: a named interval on the trace's monotonic
/// clock, linked to its parent, carrying a work count (events scored,
/// sweep points planned, bytes rendered — whatever the span's owner
/// attributed) and optional numeric arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The containing span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Span name (`request`, `queue_wait`, `score_shard`, …).
    pub name: String,
    /// Start, in microseconds since the trace opened.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Work units attributed to the span (0 when it has none).
    pub work: u64,
    /// Extra numeric attributes (`("points", 12)`, `("status", 200)`).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// End offset in microseconds since the trace opened.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }

    /// The value of a numeric argument, if set.
    #[must_use]
    pub fn arg_value(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// JSON object form (flat; parent linkage by id).
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("span", JsonValue::from(self.id.0)),
            (
                "parent",
                self.parent
                    .map_or(JsonValue::Null, |p| JsonValue::from(p.0)),
            ),
            ("name", self.name.as_str().into()),
            ("start_us", self.start_us.into()),
            ("dur_us", self.dur_us.into()),
            ("work", self.work.into()),
        ];
        for (k, v) in &self.args {
            fields.push((k, (*v).into()));
        }
        JsonValue::obj(fields)
    }
}

struct TraceInner {
    id: TraceId,
    label: Mutex<String>,
    epoch: Instant,
    wall_start_us: u64,
    next_span: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Shared handle for one request's trace. Cloning is cheap (`Arc`);
/// clones and [`SpanLink`]s may live on any thread and record spans
/// concurrently.
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl std::fmt::Debug for TraceContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TraceContext({})", self.inner.id)
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceContext {
    /// A new trace with a fresh process-unique id.
    #[must_use]
    pub fn new() -> Self {
        Self::with_id(TraceId::fresh())
    }

    /// A new trace under a caller-supplied id (e.g. from the
    /// `X-Branchlab-Trace-Id` request header).
    #[must_use]
    pub fn with_id(id: TraceId) -> Self {
        TraceContext {
            inner: Arc::new(TraceInner {
                id,
                label: Mutex::new(String::new()),
                epoch: Instant::now(),
                wall_start_us: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This trace's id.
    #[must_use]
    pub fn id(&self) -> TraceId {
        self.inner.id
    }

    /// Label the trace for summaries (`"POST /v1/sweep"`).
    pub fn set_label(&self, label: &str) {
        *self
            .inner
            .label
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = label.to_string();
    }

    /// Microseconds since the trace opened (the monotonic span clock).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.inner
            .epoch
            .elapsed()
            .as_micros()
            .min(u128::from(u64::MAX)) as u64
    }

    /// Open the root span (no parent).
    #[must_use]
    pub fn root(&self, name: &str) -> SpanHandle {
        self.open(None, name)
    }

    fn open(&self, parent: Option<SpanId>, name: &str) -> SpanHandle {
        SpanHandle {
            ctx: self.clone(),
            id: SpanId(self.inner.next_span.fetch_add(1, Ordering::Relaxed)),
            parent,
            name: name.to_string(),
            start_us: self.elapsed_us(),
            work: 0,
            args: Vec::new(),
        }
    }

    fn record(&self, span: Span) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Snapshot the completed spans as a [`RequestTrace`] (spans in
    /// start order; total = latest span end). Spans still open — e.g.
    /// a worker that outlived the request's deadline — are simply not
    /// in the snapshot.
    #[must_use]
    pub fn finish(&self) -> RequestTrace {
        let mut spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.id.0));
        RequestTrace {
            id: self.inner.id,
            label: self
                .inner
                .label
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
            wall_start_us: self.inner.wall_start_us,
            total_us: spans.iter().map(Span::end_us).max().unwrap_or(0),
            spans,
        }
    }
}

/// An open span; records into its trace on drop. `Send`, so it can be
/// opened on one thread (queue admission) and closed on another
/// (worker pickup).
#[derive(Debug)]
pub struct SpanHandle {
    ctx: TraceContext,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    work: u64,
    args: Vec<(&'static str, u64)>,
}

impl SpanHandle {
    /// This span's id.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The trace this span belongs to.
    #[must_use]
    pub fn trace(&self) -> &TraceContext {
        &self.ctx
    }

    /// Microseconds since this span opened.
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.ctx.elapsed_us().saturating_sub(self.start_us)
    }

    /// Attribute `n` additional work units.
    pub fn add_work(&mut self, n: u64) {
        self.work = self.work.saturating_add(n);
    }

    /// Attach a numeric argument (rendered into the span's JSON and
    /// Chrome-trace `args`). Setting a key again overwrites its value,
    /// so incrementally-updated arguments stay single-valued.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        match self.args.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.args.push((key, value)),
        }
    }

    /// The current value of a numeric argument, if set.
    #[must_use]
    pub fn arg_value(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Open a child span.
    #[must_use]
    pub fn child(&self, name: &str) -> SpanHandle {
        self.ctx.open(Some(self.id), name)
    }

    /// A cloneable, `Send` reference to this span for opening children
    /// from other threads or deeper layers without moving the handle.
    #[must_use]
    pub fn link(&self) -> SpanLink {
        SpanLink {
            ctx: self.ctx.clone(),
            parent: self.id,
        }
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.ctx.record(Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: self.ctx.elapsed_us().saturating_sub(self.start_us),
            work: self.work,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// A parent-span reference that crosses threads and API layers:
/// cheap to clone, `Send + Sync`, opens children of the span it was
/// linked from.
#[derive(Clone, Debug)]
pub struct SpanLink {
    ctx: TraceContext,
    parent: SpanId,
}

impl SpanLink {
    /// Open a child of the linked span.
    #[must_use]
    pub fn child(&self, name: &str) -> SpanHandle {
        self.ctx.open(Some(self.parent), name)
    }

    /// The trace the linked span belongs to.
    #[must_use]
    pub fn trace(&self) -> &TraceContext {
        &self.ctx
    }
}

/// One completed request trace, as stored in the flight recorder and
/// served by `/debug/traces/<id>`.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The trace id.
    pub id: TraceId,
    /// Free-form label (`"POST /v1/sweep"`).
    pub label: String,
    /// Wall-clock trace open time, microseconds since the Unix epoch
    /// (anchors Chrome-trace timestamps; spans themselves use the
    /// monotonic clock).
    pub wall_start_us: u64,
    /// Latest span end, microseconds since trace open.
    pub total_us: u64,
    /// Completed spans in start order.
    pub spans: Vec<Span>,
}

impl RequestTrace {
    /// One-line summary object (for `/debug/traces` listings).
    #[must_use]
    pub fn summary_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", self.id.to_string().into()),
            ("label", self.label.as_str().into()),
            ("total_us", self.total_us.into()),
            ("spans", self.spans.len().into()),
        ])
    }

    /// Full JSON form: flat span list plus the nested span tree.
    #[must_use]
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", self.id.to_string().into()),
            ("label", self.label.as_str().into()),
            ("wall_start_us", self.wall_start_us.into()),
            ("total_us", self.total_us.into()),
            (
                "spans",
                JsonValue::Arr(self.spans.iter().map(Span::to_json_value).collect()),
            ),
            ("tree", self.span_tree()),
        ])
    }

    /// The spans as a nested tree (children arrays under each span).
    /// Orphans — spans whose parent never closed — surface at the
    /// root level rather than disappearing.
    #[must_use]
    pub fn span_tree(&self) -> JsonValue {
        let present: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id.0).collect();
        let roots: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none_or(|p| !present.contains(&p.0)))
            .collect();
        JsonValue::Arr(roots.iter().map(|s| self.tree_node(s)).collect())
    }

    fn tree_node(&self, span: &Span) -> JsonValue {
        let children: Vec<JsonValue> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .map(|s| self.tree_node(s))
            .collect();
        let mut node = span.to_json_value();
        if let JsonValue::Obj(fields) = &mut node {
            fields.push(("children".to_string(), JsonValue::Arr(children)));
        }
        node
    }
}

/// A bounded ring of the last N completed traces.
///
/// Each slot has its own lock and the write cursor is a single atomic
/// fetch-add, so concurrent recorders contend only when they hash to
/// the same slot; readers lock one slot at a time. Overflow evicts the
/// oldest trace by overwrite.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<RequestTrace>>>>,
    cursor: AtomicUsize,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` traces (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Slot count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever recorded (recorded − capacity have been
    /// evicted, when positive).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed) as u64
    }

    /// Record one completed trace, evicting the oldest if full.
    pub fn record(&self, trace: RequestTrace) -> Arc<RequestTrace> {
        let trace = Arc::new(trace);
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        *self.slots[n % self.slots.len()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&trace));
        trace
    }

    /// Every retained trace, newest first.
    #[must_use]
    pub fn recent(&self) -> Vec<Arc<RequestTrace>> {
        let next = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let mut out = Vec::with_capacity(cap.min(next));
        // Walk backwards from the most recently written slot.
        for back in 1..=cap.min(next) {
            let slot = (next + cap - back) % cap;
            if let Some(trace) = self.slots[slot]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .as_ref()
            {
                out.push(Arc::clone(trace));
            }
        }
        out
    }

    /// Look a retained trace up by id (newest match wins).
    #[must_use]
    pub fn find(&self, id: TraceId) -> Option<Arc<RequestTrace>> {
        self.recent().into_iter().find(|t| t.id == id)
    }

    /// The `k` slowest retained traces, longest first.
    #[must_use]
    pub fn slowest(&self, k: usize) -> Vec<Arc<RequestTrace>> {
        let mut all = self.recent();
        all.sort_by_key(|t| std::cmp::Reverse(t.total_us));
        all.truncate(k);
        all
    }
}

/// Export recorded traces as a Chrome trace-event document
/// (`{"traceEvents": [...]}`), openable in Perfetto or
/// `chrome://tracing`. Each trace becomes one "process" (pid = its
/// position, newest-first input order preserved) with complete (`X`)
/// events whose timestamps are anchored at the trace's wall-clock
/// start, so concurrent requests line up on a shared timeline.
#[must_use]
pub fn chrome_trace(traces: &[Arc<RequestTrace>]) -> JsonValue {
    let mut events = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let pid = i as u64 + 1;
        events.push(JsonValue::obj(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", 0u64.into()),
            (
                "args",
                JsonValue::obj(vec![(
                    "name",
                    format!("{} {}", trace.id, trace.label).into(),
                )]),
            ),
        ]));
        for span in &trace.spans {
            let mut args = vec![
                ("trace_id", JsonValue::from(trace.id.to_string())),
                ("span", span.id.0.into()),
                (
                    "parent",
                    span.parent.map_or(JsonValue::Null, |p| p.0.into()),
                ),
                ("work", span.work.into()),
            ];
            for (k, v) in &span.args {
                args.push((k, (*v).into()));
            }
            events.push(JsonValue::obj(vec![
                ("name", span.name.as_str().into()),
                ("cat", "span".into()),
                ("ph", "X".into()),
                ("pid", pid.into()),
                ("tid", 0u64.into()),
                (
                    "ts",
                    trace.wall_start_us.saturating_add(span.start_us).into(),
                ),
                ("dur", span.dur_us.into()),
                ("args", JsonValue::obj(args)),
            ]));
        }
    }
    JsonValue::obj(vec![
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", JsonValue::Arr(events)),
    ])
}

/// Validate that `text` parses as a Chrome trace-event document:
/// a `traceEvents` array whose entries all carry `name`/`ph`/`pid`,
/// with `ts`+`dur` on every complete (`X`) event. Returns the event
/// names seen. The test suite runs it on every exported
/// `.trace.json`.
///
/// # Errors
/// A human-readable description of the first structural problem.
pub fn validate_chrome_trace(text: &str) -> Result<Vec<String>, String> {
    let doc = crate::json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing `traceEvents` array".to_string())?;
    let mut names = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ev.get("pid").and_then(JsonValue::as_int).is_none() {
            return Err(format!("event {i}: missing integer `pid`"));
        }
        if ph == "X"
            && (ev.get("ts").and_then(JsonValue::as_int).is_none()
                || ev.get("dur").and_then(JsonValue::as_int).is_none())
        {
            return Err(format!("event {i}: `X` event without integer ts/dur"));
        }
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_roundtrip() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse(&a.to_string()), Some(a));
        assert_eq!(TraceId::parse("dead_beef"), None);
        assert_eq!(TraceId::parse(""), None);
        assert_eq!(TraceId::parse("0"), None);
        assert_eq!(TraceId::parse("00112233445566778"), None, "17 digits");
        assert_eq!(TraceId::parse("ff"), Some(TraceId(255)));
    }

    #[test]
    fn parent_child_ordering_and_linkage() {
        let ctx = TraceContext::with_id(TraceId(7));
        {
            let root = ctx.root("request");
            {
                let parse = root.child("parse");
                drop(parse);
                let mut compute = root.child("compute");
                compute.add_work(100);
                let inner = compute.child("score_shard");
                drop(inner);
            }
        }
        let trace = ctx.finish();
        assert_eq!(trace.id, TraceId(7));
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        // Start order: root opened first, then its children in sequence.
        assert_eq!(names, ["request", "parse", "compute", "score_shard"]);
        let by_name = |n: &str| trace.spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("request");
        assert_eq!(root.parent, None);
        assert_eq!(by_name("parse").parent, Some(root.id));
        let compute = by_name("compute");
        assert_eq!(compute.parent, Some(root.id));
        assert_eq!(compute.work, 100);
        assert_eq!(by_name("score_shard").parent, Some(compute.id));
        // Parent intervals cover their children.
        assert!(root.start_us <= compute.start_us);
        assert!(root.end_us() >= compute.end_us());
        assert_eq!(trace.total_us, root.end_us());
    }

    #[test]
    fn cross_thread_child_spans_land_in_the_same_trace() {
        let ctx = TraceContext::new();
        let root = ctx.root("request");
        let link = root.link();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let link = link.clone();
                std::thread::spawn(move || {
                    let mut s = link.child("worker");
                    s.add_work(i + 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
        let trace = ctx.finish();
        let workers: Vec<&Span> = trace.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        let root_id = trace.spans.iter().find(|s| s.name == "request").unwrap().id;
        assert!(workers.iter().all(|s| s.parent == Some(root_id)));
        let total_work: u64 = workers.iter().map(|s| s.work).sum();
        assert_eq!(total_work, 1 + 2 + 3 + 4);
        // Span ids are unique within the trace.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.spans.len());
    }

    fn quick_trace(id: u64, dur_us: u64) -> RequestTrace {
        let ctx = TraceContext::with_id(TraceId(id));
        ctx.set_label("test");
        drop(ctx.root("request"));
        let mut t = ctx.finish();
        t.total_us = dur_us; // deterministic duration for ranking tests
        t
    }

    #[test]
    fn ring_buffer_evicts_oldest_under_overflow() {
        let rec = FlightRecorder::new(4);
        for i in 1..=10u64 {
            rec.record(quick_trace(i, i));
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.capacity(), 4);
        let recent = rec.recent();
        let ids: Vec<u64> = recent.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [10, 9, 8, 7], "newest first, oldest evicted");
        assert!(rec.find(TraceId(9)).is_some());
        assert!(rec.find(TraceId(3)).is_none(), "evicted trace is gone");
        let slow = rec.slowest(2);
        assert_eq!(slow.iter().map(|t| t.total_us).collect::<Vec<_>>(), [10, 9]);
    }

    #[test]
    fn ring_buffer_is_safe_under_concurrent_recording() {
        let rec = Arc::new(FlightRecorder::new(8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        rec.record(quick_trace(t * 100 + i + 1, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 200);
        assert_eq!(rec.recent().len(), 8);
    }

    #[test]
    fn chrome_export_escapes_span_names() {
        let ctx = TraceContext::with_id(TraceId(0xabc));
        ctx.set_label("quote\" and \\slash\nnewline");
        drop(ctx.root("span \"with\" \\ special\n\tchars"));
        let trace = Arc::new(ctx.finish());
        let text = chrome_trace(&[trace]).to_json();
        // The exported document must re-parse, with the hostile name
        // intact after the escape round-trip.
        let names = validate_chrome_trace(&text).unwrap();
        assert!(names.contains(&"span \"with\" \\ special\n\tchars".to_string()));
    }

    #[test]
    fn chrome_export_structure_is_valid() {
        let ctx = TraceContext::new();
        {
            let root = ctx.root("request");
            let mut child = root.child("compute");
            child.arg("points", 12);
            child.add_work(5000);
        }
        let trace = Arc::new(ctx.finish());
        let doc = chrome_trace(&[Arc::clone(&trace)]);
        let names = validate_chrome_trace(&doc.to_json()).unwrap();
        assert!(names.contains(&"request".to_string()));
        assert!(names.contains(&"compute".to_string()));
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        let compute = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("compute"))
            .unwrap();
        let args = compute.get("args").unwrap();
        assert_eq!(args.get("points").and_then(JsonValue::as_int), Some(12));
        assert_eq!(args.get("work").and_then(JsonValue::as_int), Some(5000));
    }

    #[test]
    fn span_tree_nests_and_surfaces_orphans() {
        let ctx = TraceContext::with_id(TraceId(1));
        let root = ctx.root("request");
        drop(root.child("parse"));
        drop(root);
        let trace = ctx.finish();
        let tree = trace.span_tree();
        let roots = tree.as_arr().unwrap();
        assert_eq!(roots.len(), 1);
        let children = roots[0]
            .get("children")
            .and_then(JsonValue::as_arr)
            .unwrap();
        assert_eq!(
            children[0].get("name").and_then(JsonValue::as_str),
            Some("parse")
        );

        // A span whose parent never closed surfaces at the root level.
        let orphaned = RequestTrace {
            id: TraceId(2),
            label: String::new(),
            wall_start_us: 0,
            total_us: 5,
            spans: vec![Span {
                id: SpanId(9),
                parent: Some(SpanId(1)),
                name: "stray".into(),
                start_us: 0,
                dur_us: 5,
                work: 0,
                args: Vec::new(),
            }],
        };
        assert_eq!(orphaned.span_tree().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn finish_is_a_snapshot_late_spans_do_not_corrupt_it() {
        let ctx = TraceContext::new();
        drop(ctx.root("request"));
        let snap = ctx.finish();
        assert_eq!(snap.spans.len(), 1);
        // A straggler span recorded after the snapshot (deadline-expired
        // worker) must not affect the already-taken snapshot.
        drop(ctx.root("straggler"));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(ctx.finish().spans.len(), 2);
    }
}
