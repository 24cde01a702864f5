//! `serve`: an in-process `branchlabd` at its defaults under a closed
//! loop of keep-alive clients, and the same load as a short probe of
//! the server layer over another workload's benchmarks.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use branchlab::experiments::trace_replay::clear_cache;
use branchlab::experiments::ExperimentConfig;
use branchlab::server::api::SweepRequest;
use branchlab::server::client::Client;
use branchlab::server::{evaluate_direct, Server, ServerConfig, ServerHandle};
use branchlab::telemetry::SpanLink;
use branchlab::workloads::{Benchmark, Scale, SUITE};

use crate::gen::{BodySource, Pick, Plan, SendLog, HOT_SET};
use crate::harness::{acc_err_pp_replayed, child, Ctx, HostClock, Run, Sample};
use crate::stats::{median, summarize};

/// Keep-alive client connections in the closed loop.
const CLIENTS: u64 = 2;

/// Requests per round: a traced load records one span per round.
const ROUND: u64 = 200;

/// Length of one segment of the closed loop. The host is probed between
/// segments, and the pass figure on `serve` is the median segment's
/// time per request.
const SEGMENT_S: f64 = 1.0;

/// A traced load records one request span in this many, so the
/// exported trace stays small enough to validate quickly.
const SPAN_EVERY: u64 = 64;

/// Daemon start-ups per run (`setup_s` is their median); each takes
/// ~25 ms.
const SETUPS: usize = 9;

/// Length of the server-layer probe on the other workloads.
const PROBE_SECONDS: f64 = 2.0;

/// Fresh bodies re-evaluated directly by the probe (the serve workload
/// checks every one).
const PROBE_COMPUTES: usize = 8;

/// Hot-set size of the probe, sent once before the timed loop so the
/// loop sees cache hits even where each miss takes a large fraction of
/// a second.
const PROBE_HOT: usize = 4;

/// How a response was produced, from `X-Branchlab-Source`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Source {
    Cache,
    Computed,
    Coalesced,
    Failed,
}

/// Length and FNV-1a hash of a response body: enough to tell bodies
/// apart without the load holding every body it was sent.
type Digest = (usize, u64);

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), branchlab::trace::hash_bytes(bytes))
}

/// What one closed-loop load observed.
#[derive(Default)]
struct Load {
    /// `(latency µs, source)` per request.
    samples: Vec<(f64, Source)>,
    /// What was sent, for checking against the plan.
    log: SendLog,
    /// Digest of the first 200 response to each body.
    responses: HashMap<String, Digest>,
    /// Repeats of a body whose response bytes differed.
    repeat_mismatches: u64,
    /// Wall time of the load, seconds.
    wall_s: f64,
}

impl Load {
    fn failed(&self) -> u64 {
        self.samples
            .iter()
            .filter(|(_, s)| *s == Source::Failed)
            .count() as u64
            + self.repeat_mismatches
    }

    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.log.merge(other.log);
        for (body, bytes) in other.responses {
            match self.responses.get(&body) {
                Some(mine) if *mine != bytes => self.repeat_mismatches += 1,
                Some(_) => {}
                None => {
                    self.responses.insert(body, bytes);
                }
            }
        }
        self.repeat_mismatches += other.repeat_mismatches;
        self.wall_s += other.wall_s;
    }
}

/// A running in-process daemon.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    base: ExperimentConfig,
}

impl Daemon {
    /// Start `config` and wait until `/readyz` answers 200.
    fn start(config: ServerConfig) -> Result<Daemon, String> {
        let base = config.experiment.clone();
        let t = Instant::now();
        let handle = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        loop {
            let r = client.get("/readyz").map_err(|e| format!("/readyz: {e}"))?;
            if r.status == 200 {
                break;
            }
            if t.elapsed() > Duration::from_secs(120) {
                return Err("server not ready after 120 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(client);
        Ok(Daemon { handle, addr, base })
    }

    fn stop(mut self) {
        self.handle.shutdown_and_join();
    }

    /// Prometheus counters from `/metrics` (labels dropped).
    fn scrape(&self) -> HashMap<String, f64> {
        let text = Client::connect(&self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .map(|r| r.text())
            .unwrap_or_default();
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                let name = name.split('{').next()?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect()
    }
}

/// Drive one closed-loop client per plan for `seconds`: each re-sends
/// a hot-set body or takes the next fresh one, as its [`Plan`] says.
fn closed_loop(
    addr: &str,
    plans: &mut [Plan],
    hot: &[String],
    fresh: &Mutex<BodySource>,
    seconds: f64,
    parent: Option<&SpanLink>,
) -> Load {
    let start = Instant::now();
    let done = AtomicU64::new(0);
    // The span of the round in progress (traced loads only).
    let round = Mutex::new(child(parent, "serve.round"));
    let mut total = Load::default();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter_mut()
            .map(|plan| {
                let (done, round) = (&done, &round);
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut client = Client::connect(addr).ok();
                    while start.elapsed().as_secs_f64() < seconds {
                        let pick = plan.next_pick();
                        let body = match pick {
                            Pick::Hot(i) => hot[i].clone(),
                            Pick::Fresh => fresh.lock().expect("body source").next_body(),
                        };
                        load.log.note(pick, &body);
                        let sampled = (load.samples.len() as u64).is_multiple_of(SPAN_EVERY);
                        let mut span = child(parent.filter(|_| sampled), "server.request");
                        let t = Instant::now();
                        let resp = match client.as_mut() {
                            Some(cl) => cl.post_json("/v1/sweep", &body).ok(),
                            None => None,
                        };
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        let source = match &resp {
                            Some(r) if r.status == 200 => {
                                let d = digest(&r.body);
                                match load.responses.get(&body) {
                                    Some(first) if *first != d => load.repeat_mismatches += 1,
                                    Some(_) => {}
                                    None => {
                                        load.responses.insert(body, d);
                                    }
                                }
                                match r.header("x-branchlab-source") {
                                    Some("cache") => Source::Cache,
                                    Some("coalesced") => Source::Coalesced,
                                    _ => Source::Computed,
                                }
                            }
                            _ => Source::Failed,
                        };
                        if let Some(sp) = span.as_mut() {
                            sp.arg("hit", u64::from(source == Source::Cache));
                        }
                        drop(span);
                        if resp.is_none() {
                            client = Client::connect(addr).ok();
                        }
                        load.samples.push((us, source));
                        if (done.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(ROUND) {
                            let mut round = round.lock().expect("round span");
                            if let Some(mut ended) = round.take() {
                                ended.add_work(ROUND);
                            }
                            *round = child(parent, "serve.round");
                        }
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for load in loads {
        total.merge(load);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    total
}

/// The closed loop of `CLIENTS` clients over `seed`'s plans, run as
/// back-to-back segments of [`SEGMENT_S`] until `seconds` have elapsed,
/// each timed by `clock` with one request as its unit of work.
fn segmented_load(
    clock: &mut HostClock,
    addr: &str,
    seed: u64,
    hot: &[String],
    fresh: &Mutex<BodySource>,
    seconds: f64,
    parent: Option<&SpanLink>,
) -> (Vec<Sample>, Load) {
    let mut plans: Vec<Plan> = (0..CLIENTS)
        .map(|c| Plan::new(seed, c, hot.len()))
        .collect();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut total = Load::default();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (s, load) = clock.time(
            || closed_loop(addr, &mut plans, hot, fresh, SEGMENT_S, parent),
            |l| l.samples.len().max(1) as f64,
        );
        samples.push(s);
        total.merge(load);
    }
    (samples, total)
}

/// Client-side serving figures of a load.
fn load_metrics(load: &Load) -> BTreeMap<&'static str, f64> {
    let of = |want: Source| -> Vec<f64> {
        load.samples
            .iter()
            .filter(|(_, s)| *s == want)
            .map(|(us, _)| *us)
            .collect()
    };
    let hits = summarize(&of(Source::Cache), 99);
    let misses = summarize(&of(Source::Computed), 99);
    let n = load.samples.len() as f64;
    let mut m = BTreeMap::new();
    m.insert("server.rps", n / load.wall_s);
    m.insert(
        "server.hit_p50_us",
        hits.as_ref().map_or(f64::NAN, |h| h.p50),
    );
    m.insert(
        "server.hit_p99_us",
        hits.as_ref().map_or(f64::NAN, |h| h.tail),
    );
    m.insert(
        "server.miss_p50_ms",
        misses.as_ref().map_or(f64::NAN, |h| h.p50 / 1e3),
    );
    m.insert(
        "server.miss_p99_ms",
        misses.as_ref().map_or(f64::NAN, |h| h.tail / 1e3),
    );
    m.insert("server.failed_ratio", load.failed() as f64 / n);
    for (name, s) in [("hit", &hits), ("miss", &misses)] {
        if let Some(s) = s {
            eprintln!(
                "perfbench: {name}: {} samples, p50 {:.1} us, p{} {:.1} us",
                s.n, s.p50, s.tail_rank, s.tail
            );
        }
    }
    m
}

/// Server-side figures: `/metrics` deltas over the load, `/healthz`
/// latency, and request parse + direct compute cost over `bodies`.
/// Returns the figures and the bodies whose direct evaluation differed
/// from the served bytes.
fn server_metrics(
    daemon: &Daemon,
    before: &HashMap<String, f64>,
    load: &Load,
    bodies: &[&String],
    nproc: usize,
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let after = daemon.scrape();
    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let sweeps = delta("server_sweep_requests").max(1.0);
    let mut m = BTreeMap::new();
    m.insert(
        "server.cache_hit_ratio",
        delta("server_cache_hits") / sweeps,
    );
    m.insert(
        "server.coalesce_ratio",
        delta("server_coalesce_hits") / sweeps,
    );
    m.insert(
        "server.shed_ratio",
        (delta("server_queue_rejected") + delta("server_admission_rejected")) / sweeps,
    );
    m.insert(
        "server.queue_wait_us",
        delta("server_queue_wait_us_sum") / delta("server_queue_wait_us_count").max(1.0),
    );

    let mut healthz = Vec::new();
    if let Ok(mut c) = Client::connect(&daemon.addr) {
        for _ in 0..200 {
            let t = Instant::now();
            if c.get("/healthz").is_ok_and(|r| r.status == 200) {
                healthz.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    m.insert(
        "server.healthz_p50_us",
        median(&healthz).unwrap_or(f64::NAN),
    );

    // Parse + compute outside HTTP; the computed bytes must equal what
    // the server sent.
    let next = AtomicUsize::new(0);
    let out = Mutex::new((Vec::new(), Vec::new(), Vec::new()));
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                let t = Instant::now();
                let req = SweepRequest::parse(body.as_bytes(), &daemon.base);
                let parse_us = t.elapsed().as_secs_f64() * 1e6;
                let t = Instant::now();
                let same = req
                    .ok()
                    .and_then(|r| evaluate_direct(&r, &daemon.base).ok())
                    .is_some_and(|direct| {
                        load.responses
                            .get(*body)
                            .is_some_and(|sent| *sent == digest(direct.as_bytes()))
                    });
                let compute_ms = t.elapsed().as_secs_f64() * 1e3;
                let mut o = out.lock().expect("direct results");
                o.0.push(parse_us);
                o.1.push(compute_ms);
                if !same {
                    o.2.push((*body).clone());
                }
            });
        }
    });
    let (parse, compute, differ) = out.into_inner().expect("direct results");
    m.insert(
        "server.request_parse_us",
        median(&parse).unwrap_or(f64::NAN),
    );
    m.insert("server.compute_ms", median(&compute).unwrap_or(f64::NAN));
    (m, differ)
}

/// The daemon configuration: `branchlabd`'s defaults on an ephemeral
/// port, inputs from `seed`.
fn server_config(seed: u64) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    config.experiment.seed = seed;
    config
}

/// The serve workload's experiment configuration (the daemon's).
#[must_use]
pub fn config(ctx: &Ctx) -> ExperimentConfig {
    server_config(ctx.seed).experiment
}

/// The benchmarks the daemon keeps warm: the whole suite.
#[must_use]
pub fn benches() -> Vec<&'static Benchmark> {
    SUITE.iter().collect()
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run {
        scale: "test",
        ..Run::default()
    };
    // The last set-up's daemon serves the load.
    let mut clock = HostClock::start();
    let daemon = loop {
        clear_cache();
        let (s, started) = clock.time(|| Daemon::start(server_config(ctx.seed)), |_| 1.0);
        match started {
            Ok(d) => {
                run.setups.push(s);
                if run.setups.len() == SETUPS {
                    break d;
                }
                d.stop();
            }
            Err(e) => {
                run.check(format!("server start: {e}"), false);
                return run;
            }
        }
    };
    let benches = benches();
    let names: Vec<&'static str> = benches.iter().map(|b| b.name).collect();
    let mut source = BodySource::new(ctx.seed, &names);
    let hot: Vec<String> = (0..HOT_SET).map(|_| source.next_body()).collect();
    let fresh = Mutex::new(source);
    if let Err(e) = send_once(&daemon.addr, &hot) {
        run.check(e, false);
    }
    let before = daemon.scrape();

    let addr = daemon.addr.as_str();
    let mut load = if ctx.tracer.is_some() {
        let half = ctx.seconds / 2.0;
        let (t, mut first) = segmented_load(&mut clock, addr, ctx.seed, &hot, &fresh, half, None);
        run.passes = t;
        let link = ctx.link();
        let span = child(link.as_ref(), "serve.load");
        let parent = span.as_ref().map(|s| s.link());
        let (t, second) = segmented_load(
            &mut clock,
            addr,
            ctx.seed,
            &hot,
            &fresh,
            half,
            parent.as_ref(),
        );
        drop(span);
        run.traced_passes = t;
        first.merge(second);
        first
    } else {
        let (t, load) = segmented_load(&mut clock, addr, ctx.seed, &hot, &fresh, ctx.seconds, None);
        run.passes = t;
        load
    };
    run.peak_heap_mb = crate::sys::peak_heap_mb();
    run.attempted = load.samples.len() as u64;
    run.failed += load.failed();
    let plan = load.log.verify();
    if let Err(e) = &plan {
        eprintln!("perfbench: {e}");
    }
    run.check("load matched its planned hot/fresh split", plan.is_ok());
    run.info
        .insert("distinct_bodies".into(), load.log.distinct.len() as f64);

    // Every distinct body must be byte-identical to a direct evaluation.
    let mut bodies: Vec<&String> = load.responses.keys().collect();
    bodies.sort_unstable();
    let (server, differ) = {
        let _span = ctx.span("check.served_equals_direct");
        server_metrics(&daemon, &before, &load, &bodies, ctx.nproc)
    };
    let unanswered = load.log.distinct.len() - load.responses.len();
    run.check(
        format!(
            "{} distinct bodies served byte-identical to evaluate_direct ({} differ, {unanswered} unanswered)",
            bodies.len(),
            differ.len()
        ),
        differ.is_empty() && unanswered == 0,
    );
    run.failed += differ.len() as u64;
    let client = load_metrics(&load);
    load.responses.clear();
    daemon.stop();

    for (k, v) in client.into_iter().chain(server) {
        if ctx.tracer.is_some() {
            run.layer.insert(k, v);
        }
        run.info.insert(k.to_string(), v);
    }

    // At scale small: the daemon's scale test gives each benchmark so
    // few inputs that the suite's average accuracy swings with the seed.
    let acc_cfg = ExperimentConfig {
        scale: Scale::Small,
        ..config(ctx)
    };
    match acc_err_pp_replayed(&benches, &acc_cfg, ctx.nproc) {
        Ok(v) => run.acc_err_pp = v,
        Err(e) => run.check(format!("accuracy replay: {e}"), false),
    }
    run
}

/// Send each hot-set body once, so the timed loop starts with the hot
/// set cached.
///
/// # Errors
/// A description of a connection or request failure.
fn send_once(addr: &str, hot: &[String]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for body in hot {
        let r = client
            .post_json("/v1/sweep", body)
            .map_err(|e| format!("warming the hot set: {e}"))?;
        if r.status != 200 {
            return Err(format!("warming the hot set: status {}", r.status));
        }
    }
    Ok(())
}

/// Probe the server layer over another workload's benchmarks: a daemon
/// warmed on `benches` at `base`'s scale and seed, a short closed loop,
/// and the same server-side figures.
///
/// # Errors
/// A description of a start-up failure.
pub fn probe(
    ctx: &Ctx,
    benches: &[&'static Benchmark],
    base: &ExperimentConfig,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut config = server_config(base.seed);
    config.experiment.scale = base.scale;
    config.warm_benches = benches.iter().map(|b| b.name.to_string()).collect();
    let daemon = Daemon::start(config)?;
    let names: Vec<&'static str> = benches.iter().map(|b| b.name).collect();
    let mut source = BodySource::new(ctx.seed, &names);
    let hot: Vec<String> = (0..PROBE_HOT).map(|_| source.next_body()).collect();
    let fresh = Mutex::new(source);
    send_once(&daemon.addr, &hot)?;
    let before = daemon.scrape();
    let link = ctx.link();
    let span = child(link.as_ref(), "serve.probe");
    let mut plans: Vec<Plan> = (0..CLIENTS)
        .map(|c| Plan::new(ctx.seed, c, hot.len()))
        .collect();
    let load = closed_loop(
        &daemon.addr,
        &mut plans,
        &hot,
        &fresh,
        PROBE_SECONDS,
        span.as_ref().map(|s| s.link()).as_ref(),
    );
    drop(span);
    let mut bodies: Vec<&String> = load.responses.keys().collect();
    bodies.sort_unstable();
    bodies.truncate(PROBE_COMPUTES);
    let (mut m, differ) = server_metrics(&daemon, &before, &load, &bodies, ctx.nproc);
    daemon.stop();
    if !differ.is_empty() {
        return Err(format!(
            "{} probe bodies differ from evaluate_direct",
            differ.len()
        ));
    }
    m.extend(load_metrics(&load));
    Ok(m)
}
