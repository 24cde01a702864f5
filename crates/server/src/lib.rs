//! `branchlab-server` — a `std`-only evaluation daemon for predictor
//! sweeps.
//!
//! `branchlabd` keeps every suite benchmark's branch trace resident in
//! memory and answers predictor-evaluation requests over plain
//! HTTP/1.1 + JSON, so a sweep that would cost a full
//! capture-compile-execute pipeline from a cold start instead costs a
//! single replay pass over an in-memory trace — and repeated or
//! concurrent identical requests cost even less:
//!
//! - **Batching**: one request carries many predictor configurations
//!   and RAS depths; they are planned into one
//!   [`SweepBatch`](branchlab_experiments::SweepBatch) and scored in a
//!   single replay pass.
//! - **Coalescing**: concurrent requests with the same canonical
//!   identity share one computation — followers block on the leader's
//!   slot instead of replaying again.
//! - **Caching**: rendered responses land in an LRU keyed by
//!   `(bench, program hash, scale, seed, predictor configs, ras)`.
//! - **Backpressure**: the worker queue is bounded; when it is full
//!   the daemon sheds load with `503` + `Retry-After` instead of
//!   queueing without bound, and every request carries a deadline
//!   (`504` when it expires).
//! - **Observability**: `GET /metrics` serves Prometheus text from
//!   the in-process [`MetricsRegistry`], including queue depth and
//!   wait, coalesce/cache hit counters, and request-latency
//!   histograms. Every request is stamped with a trace id (client
//!   supplied via `X-Branchlab-Trace-Id`, or assigned) and recorded
//!   as a hierarchical span tree in a bounded
//!   [`FlightRecorder`]:
//!   `GET /debug/traces` lists recent traces, `GET /debug/traces/<id>`
//!   returns one full span tree, `GET /debug/slow` ranks the slowest,
//!   and requests over [`ServerConfig::slow_ms`] are logged as JSONL.
//!   `branchlabd --trace-out` exports the recorder as Chrome
//!   trace-event JSON (openable in Perfetto) at shutdown.
//!
//! The daemon is **crash-only**: stopping it abruptly and restarting
//! is a supported path, not an error path.
//!
//! - **Durability**: with `--spill-dir`, warmed traces and the LRU
//!   response cache spill to disk (periodically and on graceful
//!   drain) through the atomic tmp+fsync+rename pattern, each record
//!   hash-validated; a restart restores what survives and degrades
//!   *silently* to a cold start on any damage. `GET /readyz`
//!   distinguishes `warm` / `cold` / `draining`.
//! - **Deadline-aware admission**: an EWMA of per-point compute cost
//!   times the queued point count projects each leader's queue wait;
//!   requests whose projection exceeds their deadline are shed up
//!   front with `503` + a `Retry-After` derived from the projection.
//! - **Chaos + self-healing**: the `--chaos-*` flags deterministically
//!   inject worker panics, slow computes, cache-read corruption, and
//!   spill-write failures (see [`chaos`]); pool workers respawn after
//!   a panic (`server.worker.restarts`), corrupt cache bodies are
//!   detected by hash and recomputed, and a failed spill retries next
//!   interval. An injected panic costs one request a `500` (trace id
//!   echoed) — never the pool.
//!
//! Responses are deterministic down to the byte: computed, coalesced,
//! and cached answers are indistinguishable on the wire (provenance
//! travels in the `X-Branchlab-Source` header).
//!
//! ```text
//!            POST /v1/sweep
//!                 │
//!        parse → canonical key
//!                 │
//!        ┌── LRU cache hit? ──► 200 (source: cache)
//!        │
//!        ├── identical sweep in flight? ──► wait on its slot
//!        │                                  (source: coalesced)
//!        └── leader: try_submit ──► worker pool ──► SweepBatch
//!                 │                                  │
//!              queue full                      render + cache
//!                 │                                  │
//!           503 + Retry-After              200 (source: computed)
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod chaos;
pub mod client;
pub mod http;
pub mod lru;
pub mod metrics;
pub mod pool;
pub mod store;

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use branchlab_experiments::trace_replay::captured_runs;
use branchlab_experiments::ExperimentConfig;
use branchlab_telemetry::{
    FlightRecorder, JsonValue, MetricsRegistry, SpanHandle, SpanLink, TraceContext, TraceId,
};
use branchlab_workloads::{all_benchmarks, benchmark};

use api::{ApiError, SweepRequest};
use chaos::{Chaos, ChaosConfig};
use http::{read_request, write_response, ProtocolError, ReadOutcome, Request, Response};
use lru::{Lookup, LruCache};
use metrics::ServerMetrics;
use pool::{SubmitError, WorkerPool};
use store::SpillStore;

/// How the daemon is wired together.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Sweep worker threads.
    pub workers: usize,
    /// Most sweeps queued awaiting a worker before load is shed.
    pub queue_cap: usize,
    /// LRU result-cache capacity (entries; 0 disables).
    pub cache_cap: usize,
    /// Default per-request deadline (clients may shorten it with
    /// `deadline_ms`).
    pub default_deadline: Duration,
    /// How long shutdown waits for open connections to finish.
    pub drain_timeout: Duration,
    /// Base experiment configuration; per-request `scale` / `seed`
    /// override its respective fields.
    pub experiment: ExperimentConfig,
    /// Benchmarks to make resident at startup (empty = whole suite).
    pub warm_benches: Vec<String>,
    /// Completed request traces retained by the flight recorder
    /// (served by `/debug/traces` and exported by `--trace-out`).
    pub flight_recorder_cap: usize,
    /// Log requests slower than this many milliseconds as structured
    /// JSONL (`None` disables the slow log).
    pub slow_ms: Option<u64>,
    /// Where the slow-request JSONL goes (`None` = stderr).
    pub slow_log: Option<std::path::PathBuf>,
    /// Durable spill directory: warmed traces and the LRU response
    /// cache persist here across restarts (`None` disables spilling).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Interval between periodic spill snapshots.
    pub spill_every: Duration,
    /// Server-side fault injection rates (all zero = chaos off).
    pub chaos: ChaosConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8787".to_string(),
            workers: 2,
            queue_cap: 32,
            cache_cap: 256,
            default_deadline: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(10),
            // Workers provide the parallelism; each sweep replays
            // serially so concurrent requests don't oversubscribe.
            experiment: ExperimentConfig {
                sweep_threads: Some(1),
                ..ExperimentConfig::test()
            },
            warm_benches: Vec::new(),
            flight_recorder_cap: 256,
            slow_ms: None,
            slow_log: None,
            spill_dir: None,
            spill_every: Duration::from_secs(5),
            chaos: ChaosConfig::default(),
        }
    }
}

/// Readiness phases reported by `GET /readyz`.
mod phase {
    /// Warmup still running (503 `warming`).
    pub const WARMING: u8 = 0;
    /// Ready; nothing was restored from a spill (200 `cold`).
    pub const READY_COLD: u8 = 1;
    /// Ready; spilled state survived the restart (200 `warm`).
    pub const READY_WARM: u8 = 2;
    /// Shutting down; draining open connections (503 `draining`).
    pub const DRAINING: u8 = 3;
}

/// One in-flight computation that concurrent identical requests
/// rendezvous on. The leader fills it exactly once; followers wait
/// with a deadline.
struct Slot {
    state: Mutex<Option<Result<Arc<str>, ApiError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<Arc<str>, ApiError>) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.is_none() {
            *state = Some(result);
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Wait for the result until `deadline`; `None` means it expired.
    fn wait_until(&self, deadline: Instant) -> Option<Result<Arc<str>, ApiError>> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = state.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }
}

/// Warm-residency info for one benchmark, reported by
/// `GET /v1/benchmarks`.
#[derive(Clone, Copy, Debug)]
struct WarmInfo {
    runs: usize,
    events: u64,
    bytes: usize,
}

/// Everything the connection handlers share.
struct State {
    config: ServerConfig,
    metrics: ServerMetrics,
    pool: WorkerPool,
    cache: Mutex<LruCache>,
    inflight: Mutex<HashMap<String, Arc<Slot>>>,
    warm: Mutex<BTreeMap<&'static str, WarmInfo>>,
    recorder: FlightRecorder,
    slow_log: Option<Mutex<std::fs::File>>,
    spill: Option<SpillStore>,
    chaos: Chaos,
    /// Cache entries restored from the spill snapshot at boot.
    restored: usize,
    /// Whether the spill's trace directory already held files at boot
    /// — a previous instance spilled traces for warmup to restore.
    spilled_traces_at_boot: bool,
    /// EWMA of compute cost per sweep point, µs (0 = no samples yet).
    ewma_point_us: AtomicU64,
    /// Sweep points admitted but not yet computed (the queue length in
    /// admission's cost unit).
    queued_points: AtomicU64,
    phase: AtomicU8,
    shutdown: AtomicBool,
    /// Set by [`ServerHandle::kill`]: simulate an abrupt crash, so the
    /// graceful-drain spill is skipped and only periodic snapshots
    /// survive — exactly what a real `kill -9` leaves behind.
    crashed: AtomicBool,
}

impl State {
    fn is_ready(&self) -> bool {
        matches!(
            self.phase.load(Ordering::SeqCst),
            phase::READY_COLD | phase::READY_WARM
        )
    }
}

/// The running daemon. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown_and_join`].
pub struct ServerHandle {
    state: Arc<State>,
    addr: std::net::SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

/// The daemon's entry point.
pub struct Server;

impl Server {
    /// Bind, start the warmup pass and the accept loop, and return a
    /// handle to the running daemon.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let mut config = config;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        // Durability: open the spill directory and point the trace
        // disk cache into it (unless the operator routed traces
        // elsewhere already) — warmup then restores spilled traces
        // through the existing hash-validated loader and spills fresh
        // captures automatically.
        let spill = match &config.spill_dir {
            Some(dir) => Some(SpillStore::open(dir)?),
            None => None,
        };
        let mut spilled_traces_at_boot = false;
        if let Some(store) = &spill {
            if config.experiment.trace_cache_dir.is_none() {
                config.experiment.trace_cache_dir = Some(store.traces_dir());
            }
            spilled_traces_at_boot = std::fs::read_dir(store.traces_dir())
                .map(|mut dir| dir.next().is_some())
                .unwrap_or(false);
        }

        // One registry holds the daemon's own metrics and every
        // sweep's trace/sweep/lane counters: `/metrics` renders it as is.
        let registry = Arc::new(MetricsRegistry::new());
        config.experiment.metrics = Arc::clone(&registry);
        let metrics = ServerMetrics::new(registry);
        let pool = WorkerPool::new(
            config.workers,
            config.queue_cap,
            Arc::clone(&metrics.queue_depth),
            Arc::clone(&metrics.worker_restarts),
        );
        let slow_log = match &config.slow_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };

        // Restore the response cache from the last spill snapshot.
        // Damaged records were already dropped by the forgiving loader;
        // whatever survives replays in LRU order, so recency survives
        // the restart too.
        let mut cache = LruCache::new(config.cache_cap);
        let mut restored = 0usize;
        if let Some(store) = &spill {
            let load = store.load_cache();
            metrics.spill_skipped.add(load.skipped as u64);
            for (key, body) in load.entries {
                cache.put(&key, body);
                restored += 1;
            }
            metrics.spill_restored.add(restored as u64);
        }

        let chaos = Chaos::new(config.chaos.clone());
        let state = Arc::new(State {
            metrics,
            pool,
            cache: Mutex::new(cache),
            inflight: Mutex::new(HashMap::new()),
            warm: Mutex::new(BTreeMap::new()),
            recorder: FlightRecorder::new(config.flight_recorder_cap),
            slow_log,
            spill,
            chaos,
            restored,
            spilled_traces_at_boot,
            ewma_point_us: AtomicU64::new(0),
            queued_points: AtomicU64::new(0),
            phase: AtomicU8::new(phase::WARMING),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            config,
        });

        let warm_state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("bld-warmup".to_string())
            .spawn(move || warmup(&warm_state))
            .expect("spawn warmup thread");

        let spill_thread = state.spill.is_some().then(|| {
            let spill_state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("bld-spill".to_string())
                .spawn(move || spill_loop(&spill_state))
                .expect("spawn spill thread")
        });

        let accept_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("bld-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state, spill_thread))
            .expect("spawn accept thread");

        Ok(ServerHandle {
            state,
            addr,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The bound listen address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Has the warmup pass finished?
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.state.is_ready()
    }

    /// Did this instance restore spilled state (traces or cached
    /// responses) at boot? Meaningful once [`Self::is_ready`].
    #[must_use]
    pub fn is_warm_restart(&self) -> bool {
        self.state.phase.load(Ordering::SeqCst) == phase::READY_WARM
    }

    /// Pool workers respawned after a panicking job.
    #[must_use]
    pub fn worker_restarts(&self) -> usize {
        self.state.pool.worker_restarts()
    }

    /// Signal shutdown: stop accepting, drain open connections and
    /// queued sweeps, spill a final snapshot, then stop the workers.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.phase.store(phase::DRAINING, Ordering::SeqCst);
    }

    /// Simulate an abrupt crash (`kill -9` without leaving the
    /// process): shut down but *skip the graceful-drain spill*, so
    /// only state already published by periodic snapshots survives —
    /// what `tests/chaos.rs` uses to prove warm restarts recover from
    /// real crashes, not just polite drains.
    pub fn kill(&mut self) {
        self.state.crashed.store(true, Ordering::SeqCst);
        self.shutdown();
        self.join();
    }

    /// Block until the accept loop (and with it the drain) finishes.
    pub fn join(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// [`shutdown`](Self::shutdown) then [`join`](Self::join).
    pub fn shutdown_and_join(&mut self) {
        self.shutdown();
        self.join();
    }

    /// Total request traces recorded by the flight recorder.
    #[must_use]
    pub fn traces_recorded(&self) -> u64 {
        self.state.recorder.recorded()
    }

    /// Every trace currently in the flight recorder, rendered as a
    /// Chrome trace-event JSON document (what `branchlabd --trace-out`
    /// writes at shutdown; open it in Perfetto or `chrome://tracing`).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        branchlab_telemetry::chrome_trace(&self.state.recorder.recent()).to_json_pretty()
    }
}

/// Make every configured benchmark's trace resident, then mark ready.
/// The default warm set is the 1989 suite; synthetic benchmarks are
/// captured on first request (or via `--warm-benches`).
fn warmup(state: &State) {
    let names: Vec<&'static str> = if state.config.warm_benches.is_empty() {
        branchlab_workloads::SUITE.iter().map(|b| b.name).collect()
    } else {
        state
            .config
            .warm_benches
            .iter()
            .filter_map(|n| benchmark(n).map(|b| b.name))
            .collect()
    };
    for name in names {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(bench) = benchmark(name) else {
            continue;
        };
        match captured_runs(bench, &state.config.experiment) {
            Ok(traces) => {
                let info = WarmInfo {
                    runs: traces.len(),
                    events: traces.iter().map(branchlab_trace::TraceBuf::events).sum(),
                    bytes: traces.iter().map(branchlab_trace::TraceBuf::byte_len).sum(),
                };
                state.metrics.warm_benches.inc();
                state.metrics.warm_events.add(info.events);
                state
                    .warm
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(bench.name, info);
            }
            Err(e) => {
                // A bench that fails to warm stays cold; requests for
                // it will surface the error per-sweep.
                eprintln!("branchlabd: warmup of `{name}` failed: {e}");
            }
        }
    }
    // Warm vs. cold: this restart is warm if durable state from a
    // previous instance was there to restore — cache-snapshot entries
    // that validated, or spilled trace files for warmup to load
    // instead of re-capturing.
    let ready_phase = if state.restored > 0 || state.spilled_traces_at_boot {
        phase::READY_WARM
    } else {
        phase::READY_COLD
    };
    // Don't clobber DRAINING if shutdown raced the warmup pass.
    let _ = state.phase.compare_exchange(
        phase::WARMING,
        ready_phase,
        Ordering::SeqCst,
        Ordering::SeqCst,
    );
    state.metrics.ready.set(1);
}

/// Publish spill snapshots every `spill_every` until shutdown. The
/// flag is read again after each wait, so once shutdown is seen no
/// periodic snapshot starts — even when the wait was empty.
fn spill_loop(state: &Arc<State>) {
    loop {
        let deadline = Instant::now() + state.config.spill_every;
        while Instant::now() < deadline && !state.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        spill_snapshot(state, true);
    }
}

/// Snapshot the response cache into the spill store. Best-effort: a
/// failure (real or chaos-injected, periodic spills only) is counted
/// and retried at the next interval — the previous snapshot on disk
/// stays intact either way.
fn spill_snapshot(state: &State, allow_chaos: bool) {
    let Some(store) = &state.spill else { return };
    if allow_chaos && state.chaos.fail_spill_write() {
        state.metrics.spill_errors.inc();
        return;
    }
    let entries = state
        .cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .snapshot();
    match store.save_cache(&entries) {
        Ok(()) => {
            state.metrics.spill_snapshots.inc();
            state.metrics.spill_entries.set(entries.len() as i64);
        }
        Err(e) => {
            state.metrics.spill_errors.inc();
            eprintln!("branchlabd: spill snapshot failed: {e}");
        }
    }
}

/// Poll-accept connections until shutdown, then drain. The drain joins
/// `spill_thread` before the final snapshot, so no periodic snapshot
/// can land after it (or after a simulated crash's `join`).
fn accept_loop(
    listener: &TcpListener,
    state: &Arc<State>,
    spill_thread: Option<std::thread::JoinHandle<()>>,
) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                state.metrics.connections_total.inc();
                state.metrics.connections_active.add(1);
                let conn_state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("bld-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_state);
                        conn_state.metrics.connections_active.add(-1);
                    });
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Drain: wait for open connections to finish their in-flight
    // exchanges (handlers see the shutdown flag and close), then stop
    // the workers — the pool itself drains every admitted job.
    let deadline = Instant::now() + state.config.drain_timeout;
    while state.metrics.connections_active.get() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    state.pool.shutdown();
    if let Some(spill_thread) = spill_thread {
        let _ = spill_thread.join();
    }
    // Every drained sweep is now in the cache; publish the final
    // snapshot — unless this "shutdown" is a simulated crash, whose
    // whole point is that only periodic snapshots survive.
    if !state.crashed.load(Ordering::SeqCst) {
        spill_snapshot(state, false);
    }
}

/// Serve one connection until it closes, errors, or shutdown.
fn handle_connection(mut stream: TcpStream, state: &Arc<State>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    // When shutdown lands, an established connection gets a short
    // grace window to issue one last request (clients probing
    // `/readyz` for the 503 `draining` signal) before the handler
    // closes it.
    let mut drain_since: Option<Instant> = None;
    loop {
        let outcome = match read_request(&mut stream, &mut buf) {
            Ok(outcome) => outcome,
            Err(_) => return,
        };
        let request = match outcome {
            Ok(ReadOutcome::Request(request)) => request,
            Ok(ReadOutcome::Idle) => {
                if state.shutdown.load(Ordering::SeqCst)
                    && drain_since.get_or_insert_with(Instant::now).elapsed()
                        >= Duration::from_millis(400)
                {
                    return;
                }
                continue;
            }
            Ok(ReadOutcome::Closed) => return,
            Err(ProtocolError(message)) => {
                // Malformed framing: no headers to take a client id
                // from, so assign one — the 400 still correlates with
                // a server-side trace.
                let ctx = TraceContext::new();
                ctx.set_label("<protocol error>");
                let resp = error_response(&ApiError::BadRequest(message))
                    .with_header("X-Branchlab-Trace-Id", &ctx.id().to_string());
                state.metrics.count_response(resp.status);
                finish_request_trace(state, &ctx, resp.status);
                let _ = write_response(&mut stream, &resp, true);
                return;
            }
        };
        let ctx = request
            .header("x-branchlab-trace-id")
            .and_then(TraceId::parse)
            .map_or_else(TraceContext::new, TraceContext::with_id);
        ctx.set_label(&format!("{} {}", request.method, request.path));
        let close = request.wants_close() || state.shutdown.load(Ordering::SeqCst);
        let response =
            route(state, &request, &ctx).with_header("X-Branchlab-Trace-Id", &ctx.id().to_string());
        state.metrics.count_response(response.status);
        finish_request_trace(state, &ctx, response.status);
        if write_response(&mut stream, &response, close).is_err() || close {
            return;
        }
    }
}

/// Snapshot a request's spans into the flight recorder and, past the
/// configured threshold, the structured slow log.
fn finish_request_trace(state: &State, ctx: &TraceContext, status: u16) {
    let trace = ctx.finish();
    if let Some(slow_ms) = state.config.slow_ms {
        if trace.total_us >= slow_ms.saturating_mul(1_000) {
            state.metrics.slow_requests.inc();
            log_slow_request(state, &trace, status);
        }
    }
    state.recorder.record(trace);
}

/// One JSONL line per slow request: identity, status, total, and the
/// per-span latency decomposition.
fn log_slow_request(state: &State, trace: &branchlab_telemetry::RequestTrace, status: u16) {
    use std::io::Write;
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            JsonValue::obj(vec![
                ("name", s.name.as_str().into()),
                ("dur_us", s.dur_us.into()),
                ("work", s.work.into()),
            ])
        })
        .collect();
    let line = JsonValue::obj(vec![
        ("ts_us", trace.wall_start_us.into()),
        ("trace_id", trace.id.to_string().into()),
        ("label", trace.label.as_str().into()),
        ("status", u64::from(status).into()),
        ("total_us", trace.total_us.into()),
        ("spans", JsonValue::Arr(spans)),
    ])
    .to_json();
    match &state.slow_log {
        Some(file) => {
            let mut f = file
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = writeln!(f, "{line}");
        }
        None => eprintln!("branchlabd: slow request: {line}"),
    }
}

fn error_response(err: &ApiError) -> Response {
    let body = JsonValue::obj(vec![("error", err.message().into())]).to_json();
    let resp = Response::json(err.status(), body);
    match err.retry_after_secs() {
        Some(secs) => resp.with_header("Retry-After", &secs.to_string()),
        None => resp,
    }
}

/// Dispatch one parsed request under a root `request` span.
fn route(state: &Arc<State>, request: &Request, ctx: &TraceContext) -> Response {
    state.metrics.requests.inc();
    let mut root = ctx.root("request");
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/sweep") => handle_sweep(state, request, &root),
        ("GET", "/v1/benchmarks") => handle_benchmarks(state),
        ("GET", "/healthz") => Response::text(200, "ok\n".to_string()),
        ("GET", "/readyz") => match state.phase.load(Ordering::SeqCst) {
            phase::READY_WARM => Response::text(200, "warm\n".to_string()),
            phase::READY_COLD => Response::text(200, "cold\n".to_string()),
            phase::DRAINING => Response::text(503, "draining\n".to_string()),
            _ => Response::text(503, "warming\n".to_string()),
        },
        ("GET", "/metrics") => Response::text(200, render_metrics(state)),
        ("GET", "/debug/traces") => handle_debug_traces(state),
        ("GET", "/debug/slow") => handle_debug_slow(state),
        ("GET", path) if path.starts_with("/debug/traces/") => {
            handle_debug_trace(state, &path["/debug/traces/".len()..])
        }
        (
            _,
            "/v1/sweep" | "/v1/benchmarks" | "/healthz" | "/readyz" | "/metrics" | "/debug/traces"
            | "/debug/slow",
        ) => Response::json(
            405,
            JsonValue::obj(vec![("error", "method not allowed".into())]).to_json(),
        ),
        _ => Response::json(
            404,
            JsonValue::obj(vec![("error", "no such endpoint".into())]).to_json(),
        ),
    };
    root.arg("status", u64::from(response.status));
    response
}

/// `GET /debug/traces`: flight-recorder summaries, newest first.
fn handle_debug_traces(state: &Arc<State>) -> Response {
    let recent = state.recorder.recent();
    let body = JsonValue::obj(vec![
        ("capacity", state.recorder.capacity().into()),
        ("recorded", state.recorder.recorded().into()),
        (
            "traces",
            JsonValue::Arr(recent.iter().map(|t| t.summary_json()).collect()),
        ),
    ]);
    Response::json(200, body.to_json())
}

/// `GET /debug/traces/<id>`: one retained trace's full span tree.
fn handle_debug_trace(state: &Arc<State>, id: &str) -> Response {
    match TraceId::parse(id).and_then(|id| state.recorder.find(id)) {
        Some(trace) => Response::json(200, trace.to_json_value().to_json()),
        None => Response::json(
            404,
            JsonValue::obj(vec![(
                "error",
                "no such trace (bad id, or evicted from the flight recorder)".into(),
            )])
            .to_json(),
        ),
    }
}

/// `GET /debug/slow`: the slowest retained traces, longest first.
fn handle_debug_slow(state: &Arc<State>) -> Response {
    const TOP_K: usize = 10;
    let slow = state.recorder.slowest(TOP_K);
    let body = JsonValue::obj(vec![
        ("k", TOP_K.into()),
        (
            "traces",
            JsonValue::Arr(slow.iter().map(|t| t.summary_json()).collect()),
        ),
    ]);
    Response::json(200, body.to_json())
}

/// The full `/v1/sweep` path: parse → cache → coalesce → compute.
fn handle_sweep(state: &Arc<State>, request: &Request, parent: &SpanHandle) -> Response {
    let started = Instant::now();
    state.metrics.sweep_requests.inc();
    let result = sweep_result(state, request, started, parent);
    state
        .metrics
        .latency_us
        .observe(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    match result {
        Ok((body, source)) => {
            Response::json(200, body.to_string()).with_header("X-Branchlab-Source", source)
        }
        Err(err) => error_response(&err),
    }
}

/// Leader-side job bookkeeping that must survive a worker panic.
///
/// The guard travels inside the job closure; whatever happens to the
/// job — normal completion, a chaos-injected panic, or the pool
/// dropping it unexecuted at shutdown — the `Drop` impl releases the
/// coalescing slot (filling it with a `500` if nothing better was
/// published first; [`Slot::fill`] is first-write-wins), retires the
/// inflight entry, and returns the request's points to the admission
/// ledger. Followers therefore never hang on a dead leader.
struct JobGuard {
    state: Arc<State>,
    slot: Arc<Slot>,
    key: String,
    points: u64,
}

impl JobGuard {
    /// Publish the job's real result (the `Drop` fill becomes a no-op).
    fn finish(&self, result: Result<Arc<str>, ApiError>) {
        self.slot.fill(result);
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.state
            .queued_points
            .fetch_sub(self.points, Ordering::SeqCst);
        let mut inflight = self
            .state
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Remove only *our* slot: a successor leader may already have
        // re-registered this key by the time a panicked job unwinds.
        if let Some(current) = inflight.get(&self.key) {
            if Arc::ptr_eq(current, &self.slot) {
                inflight.remove(&self.key);
            }
        }
        drop(inflight);
        self.slot
            .fill(Err(ApiError::Internal("sweep worker panicked".to_string())));
    }
}

fn sweep_result(
    state: &Arc<State>,
    request: &Request,
    started: Instant,
    parent: &SpanHandle,
) -> Result<(Arc<str>, &'static str), ApiError> {
    let req = {
        let _span = parent.child("parse");
        SweepRequest::parse(&request.body, &state.config.experiment)?
    };
    let deadline = started
        + req
            .deadline_ms
            .map_or(state.config.default_deadline, Duration::from_millis);
    let key = req.canonical_key();

    // 1. Result cache (hash-validated; the chaos cache_read lane
    //    tampers with the stored body first so validation must catch
    //    it and fall through to a recompute).
    let cached = {
        let mut span = parent.child("cache_lookup");
        let mut cache = state
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.chaos.corrupt_cache_read() {
            cache.corrupt_for_chaos(&key);
        }
        let lookup = cache.get(&key);
        drop(cache);
        span.arg("hit", u64::from(matches!(lookup, Lookup::Hit(_))));
        lookup
    };
    match cached {
        Lookup::Hit(body) => {
            state.metrics.cache_hits.inc();
            return Ok((body, "cache"));
        }
        Lookup::Corrupt => {
            state.metrics.cache_corrupt.inc();
            state.metrics.cache_misses.inc();
        }
        Lookup::Miss => state.metrics.cache_misses.inc(),
    }

    // 2. Coalesce onto an identical in-flight computation, or become
    //    the leader for this key.
    let (slot, leader) = {
        let mut span = parent.child("admission");
        let mut inflight = state
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (slot, leader) = match inflight.get(&key) {
            Some(slot) => (Arc::clone(slot), false),
            None => {
                let slot = Slot::new();
                inflight.insert(key.clone(), Arc::clone(&slot));
                (Arc::clone(&slot), true)
            }
        };
        span.arg("leader", u64::from(leader));
        (slot, leader)
    };

    if leader {
        // Deadline-aware admission: project this request's queue wait
        // from the points already queued and the per-point cost EWMA;
        // if the projection alone blows the deadline, shed now with a
        // `Retry-After` sized to the projection rather than burning a
        // queue slot on a request that will 504 anyway.
        let queued = state.queued_points.load(Ordering::SeqCst);
        let ewma = state.ewma_point_us.load(Ordering::SeqCst);
        let workers = state.config.workers.max(1) as u64;
        let projected_wait_us = queued.saturating_mul(ewma) / workers;
        state
            .metrics
            .admission_projected_wait_us
            .observe(projected_wait_us);
        let budget_us = u64::try_from(
            deadline
                .saturating_duration_since(Instant::now())
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        if projected_wait_us > budget_us {
            state
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&key);
            let err = ApiError::AdmissionRejected {
                projected_wait_us,
                deadline_us: budget_us,
            };
            slot.fill(Err(err.clone()));
            state.metrics.admission_rejected.inc();
            return Err(err);
        }

        // The queue_wait span opens here on the connection thread and
        // closes inside the job at worker pickup — the accept-to-pickup
        // interval the `server.queue.wait_us` histogram observes.
        let queue_span = parent.child("queue_wait");
        let compute_link = parent.link();
        state
            .queued_points
            .fetch_add(req.points(), Ordering::SeqCst);
        let guard = JobGuard {
            state: Arc::clone(state),
            slot: Arc::clone(&slot),
            key: key.clone(),
            points: req.points(),
        };
        let submitted = state.pool.try_submit(move || {
            guard
                .state
                .metrics
                .queue_wait_us
                .observe(queue_span.elapsed_us());
            drop(queue_span);
            if guard.state.chaos.worker_panic() {
                // Outside compute_sweep's own catch_unwind: this
                // unwinds through the pool worker, exercising respawn
                // and the guard's follower-release path.
                panic!("chaos: injected worker panic");
            }
            let result = if Instant::now() >= deadline {
                // Shed stale work cheaply: the client stopped waiting
                // before a worker ever picked this up.
                guard.state.metrics.deadline_expired.inc();
                Err(ApiError::DeadlineExpired)
            } else {
                compute_sweep(&guard.state, &req, &guard.key, &compute_link)
            };
            guard.finish(result);
        });
        if let Err(err) = submitted {
            // The closure (and the guard inside it) was dropped by
            // try_submit on rejection, which already released the
            // slot and inflight entry; report the shed precisely.
            if err == SubmitError::QueueFull {
                state.metrics.queue_rejected.inc();
            }
            return Err(ApiError::Overloaded);
        }
    } else {
        state.metrics.coalesce_hits.inc();
    }

    // Followers spend their whole wait here; the leader's wait is
    // already decomposed by the queue_wait/compute spans its worker
    // records into this same trace.
    let _wait_span = (!leader).then(|| parent.child("coalesce_wait"));
    match slot.wait_until(deadline) {
        Some(Ok(body)) => Ok((body, if leader { "computed" } else { "coalesced" })),
        Some(Err(err)) => Err(err),
        None => {
            state.metrics.deadline_expired.inc();
            Err(ApiError::DeadlineExpired)
        }
    }
}

/// Run the sweep on a worker and publish the rendered body.
fn compute_sweep(
    state: &State,
    req: &SweepRequest,
    key: &str,
    parent: &SpanLink,
) -> Result<Arc<str>, ApiError> {
    // Chaos slow-compute lane: sleep *before* the timed section, so an
    // injected stall pressures deadlines without polluting the
    // admission EWMA's view of real compute cost.
    if let Some(delay) = state.chaos.slow_compute() {
        std::thread::sleep(delay);
    }
    let compute_span = parent.child("compute");
    let compute_start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        api::evaluate_traced(req, &state.config.experiment, Some(&compute_span.link()))
    }));
    drop(compute_span);
    let body = match outcome {
        Ok(result) => result?,
        Err(_) => return Err(ApiError::Internal("sweep worker panicked".to_string())),
    };
    observe_point_cost(state, req.points(), compute_start.elapsed());
    state.metrics.sweeps_computed.inc();
    state
        .cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .put(key, Arc::clone(&body));
    Ok(body)
}

/// Fold one completed sweep's per-point cost into the admission EWMA
/// (α = 1/8; the first sample seeds the average directly).
fn observe_point_cost(state: &State, points: u64, elapsed: Duration) {
    let sample_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX) / points.max(1);
    let mut current = state.ewma_point_us.load(Ordering::SeqCst);
    loop {
        let next = if current == 0 {
            sample_us
        } else {
            current - current / 8 + sample_us / 8
        };
        match state.ewma_point_us.compare_exchange(
            current,
            next,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return,
            Err(live) => current = live,
        }
    }
}

/// `GET /v1/benchmarks`: the 1989 suite plus the synthetic
/// large-footprint benchmarks, with warm-residency info and the static
/// branch-site count / code-footprint class clients use to pick
/// capacity-stressing workloads without trial sweeps.
fn handle_benchmarks(state: &Arc<State>) -> Response {
    let warm = state
        .warm
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let benches = all_benchmarks()
        .map(|b| {
            let mut fields = vec![
                ("name", JsonValue::from(b.name)),
                ("input", b.input_description.into()),
                ("paper_runs", b.paper_runs.into()),
                ("source_lines", b.source_lines().into()),
                ("in_main_tables", b.in_main_tables.into()),
                ("branch_sites", b.branch_sites().into()),
                ("footprint_class", b.footprint_class().into()),
                ("resident", warm.contains_key(b.name).into()),
            ];
            if let Some(info) = warm.get(b.name) {
                fields.push(("trace_runs", info.runs.into()));
                fields.push(("trace_events", info.events.into()));
                fields.push(("trace_bytes", info.bytes.into()));
            }
            JsonValue::obj(fields)
        })
        .collect();
    let body = JsonValue::obj(vec![
        ("scale", scale_field(state)),
        ("seed", state.config.experiment.seed.into()),
        ("ready", state.is_ready().into()),
        ("benchmarks", JsonValue::Arr(benches)),
    ]);
    Response::json(200, body.to_json())
}

fn scale_field(state: &Arc<State>) -> JsonValue {
    state.config.experiment.scale.name().into()
}

/// `GET /metrics`: the server registry as Prometheus text.
fn render_metrics(state: &Arc<State>) -> String {
    state.metrics.registry.snapshot().to_prometheus()
}

/// Convenience: run one request against a batch directly, bypassing
/// HTTP. Used by tools that want server-identical results in-process.
///
/// # Errors
/// Same failure modes as the server's compute path.
pub fn evaluate_direct(req: &SweepRequest, base: &ExperimentConfig) -> Result<Arc<str>, ApiError> {
    api::evaluate(req, base)
}
