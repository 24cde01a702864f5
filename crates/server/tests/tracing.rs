//! End-to-end tracing tests: boot the daemon, drive it over real
//! sockets, and verify the observability contract:
//!
//! 1. every response — 200s, 400s, protocol errors — echoes
//!    `X-Branchlab-Trace-Id` (client-pinned or server-assigned),
//! 2. a sweep's retained trace decomposes its wall-clock latency into
//!    parse / queue-wait / compute / render spans that nest under one
//!    root and sum within slack to the measured wall time,
//! 3. `/debug/traces`, `/debug/traces/<id>`, and `/debug/slow` serve
//!    the flight recorder, the slow log captures JSONL, and the
//!    Chrome-trace export validates.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use branchlab_server::client::{one_shot, Client};
use branchlab_server::{Server, ServerConfig};
use branchlab_telemetry::{json, validate_chrome_trace, JsonValue};

fn test_server(config: ServerConfig) -> branchlab_server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 8,
        warm_benches: vec!["wc".to_string()],
        ..config
    };
    Server::start(config).expect("start server")
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(resp) = one_shot(addr, "GET", "/readyz", None) {
            if resp.status == 200 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

const SWEEP_BODY: &str = r#"{"bench": "wc",
    "predictors": [{"kind": "cbtb"},
                   {"kind": "sbtb", "entries": 128},
                   {"kind": "gshare", "table_bits": 10}],
    "ras": [2, 16]}"#;

/// Spans named `name` in a flat `spans` array.
fn spans_named<'a>(spans: &'a [JsonValue], name: &str) -> Vec<&'a JsonValue> {
    spans
        .iter()
        .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some(name))
        .collect()
}

fn span_dur(span: &JsonValue) -> u64 {
    span.get("dur_us")
        .and_then(|d| d.as_int())
        .and_then(|d| u64::try_from(d).ok())
        .expect("span has dur_us")
}

#[test]
fn every_response_echoes_a_trace_id() {
    let mut server = test_server(ServerConfig::default());
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Client-pinned id: echoed back in canonical 16-hex-digit form.
    let mut client = Client::connect(&addr).unwrap();
    let resp = client
        .request_with(
            "GET",
            "/healthz",
            &[("X-Branchlab-Trace-Id", "deadbeef")],
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-branchlab-trace-id"),
        Some("00000000deadbeef")
    );

    // No client id: the server assigns one (16 hex digits, nonzero).
    let resp = one_shot(&addr, "GET", "/healthz", None).unwrap();
    let id = resp.header("x-branchlab-trace-id").expect("fresh id");
    assert_eq!(id.len(), 16);
    assert!(u64::from_str_radix(id, 16).unwrap() != 0);

    // Parse errors (400) still carry the client's id.
    let resp = client
        .request_with(
            "POST",
            "/v1/sweep",
            &[("X-Branchlab-Trace-Id", "badc0ffee")],
            Some(b"{not json"),
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.header("x-branchlab-trace-id"),
        Some("0000000badc0ffee")
    );

    // A malformed id is ignored, not trusted: the server assigns.
    let resp = client
        .request_with(
            "GET",
            "/healthz",
            &[("X-Branchlab-Trace-Id", "not-hex!")],
            None,
        )
        .unwrap();
    let id = resp.header("x-branchlab-trace-id").expect("assigned id");
    assert_eq!(id.len(), 16);

    // Protocol errors (unparseable framing) get a fresh server id.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(
        reply.to_ascii_lowercase().contains("x-branchlab-trace-id:"),
        "protocol-error 400 must still carry a trace id: {reply}"
    );

    server.shutdown_and_join();
}

#[test]
fn sweep_trace_decomposes_wall_time_into_phase_spans() {
    let mut server = test_server(ServerConfig::default());
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let mut client = Client::connect(&addr).unwrap();
    let started = Instant::now();
    let resp = client
        .request_with(
            "POST",
            "/v1/sweep",
            &[("X-Branchlab-Trace-Id", "feedc0de")],
            Some(SWEEP_BODY.as_bytes()),
        )
        .unwrap();
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.header("x-branchlab-trace-id"),
        Some("00000000feedc0de")
    );

    let debug = one_shot(&addr, "GET", "/debug/traces/00000000feedc0de", None).unwrap();
    assert_eq!(debug.status, 200, "{}", debug.text());
    let trace = json::parse(&debug.text()).unwrap();
    assert_eq!(
        trace.get("label").and_then(|l| l.as_str()),
        Some("POST /v1/sweep")
    );
    let spans = trace.get("spans").and_then(|s| s.as_arr()).unwrap();

    // The root request span, and the named phases under it.
    let root = {
        let roots = spans_named(spans, "request");
        assert_eq!(roots.len(), 1, "exactly one root span");
        roots[0]
    };
    assert!(matches!(root.get("parent"), Some(JsonValue::Null)));
    assert_eq!(root.get("status").and_then(|s| s.as_int()), Some(200));
    for name in [
        "parse",
        "cache_lookup",
        "admission",
        "queue_wait",
        "compute",
    ] {
        let found = spans_named(spans, name);
        assert_eq!(found.len(), 1, "span `{name}` recorded once");
        // All phases hang off the root request span.
        assert_eq!(
            found[0].get("parent").and_then(|p| p.as_int()),
            root.get("span").and_then(|s| s.as_int()),
            "span `{name}` must be a child of the root"
        );
    }
    // Inside compute: capture, scoring (one `score_shard` per sweep
    // work item, each over its `block_replay` decode), and render.
    assert_eq!(spans_named(spans, "sweep_capture").len(), 1);
    assert!(
        !spans_named(spans, "score_shard").is_empty(),
        "scoring spans missing: {spans:?}"
    );
    assert_eq!(
        spans_named(spans, "block_replay").len(),
        spans_named(spans, "score_shard").len(),
        "one decode per shard: {spans:?}"
    );
    let render = spans_named(spans, "render");
    assert_eq!(render.len(), 1);
    assert!(
        render[0].get("work").and_then(|w| w.as_int()).unwrap() > 0,
        "render span carries the body size as work"
    );

    // Latency decomposition: phases nest inside the root, the root
    // fits inside the measured wall time, and queue-wait + compute
    // cover the bulk of the root (the sweep dominates; per-span gaps
    // are scheduling noise).
    let root_dur = span_dur(root);
    let total = trace.get("total_us").and_then(|t| t.as_int()).unwrap();
    assert!(u64::try_from(total).unwrap() <= wall_us);
    assert!(root_dur <= wall_us, "root {root_dur}us vs wall {wall_us}us");
    let phase_sum: u64 = [
        "parse",
        "cache_lookup",
        "admission",
        "queue_wait",
        "compute",
    ]
    .iter()
    .map(|name| span_dur(spans_named(spans, name)[0]))
    .sum();
    assert!(
        phase_sum <= root_dur,
        "phases ({phase_sum}us) must nest within the root ({root_dur}us)"
    );
    let covered =
        span_dur(spans_named(spans, "queue_wait")[0]) + span_dur(spans_named(spans, "compute")[0]);
    assert!(
        covered.saturating_mul(2) >= root_dur,
        "queue_wait + compute ({covered}us) should cover most of the \
         root ({root_dur}us)"
    );

    // The nested tree view mirrors the flat list.
    let tree = trace.get("tree").and_then(|t| t.as_arr()).unwrap();
    assert_eq!(tree.len(), 1, "one tree root");
    assert_eq!(
        tree[0].get("name").and_then(|n| n.as_str()),
        Some("request")
    );
    assert!(tree[0].get("children").and_then(|c| c.as_arr()).is_some());

    server.shutdown_and_join();
}

#[test]
fn debug_endpoints_slow_log_and_chrome_export() {
    let dir = std::env::temp_dir().join(format!("branchlab-tracing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let slow_log = dir.join("slow.jsonl");
    let mut server = test_server(ServerConfig {
        flight_recorder_cap: 8,
        // Threshold 0: every request is "slow", so the log always has
        // material.
        slow_ms: Some(0),
        slow_log: Some(slow_log.clone()),
        ..ServerConfig::default()
    });
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let resp = one_shot(&addr, "POST", "/v1/sweep", Some(SWEEP_BODY)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    // /debug/traces lists the recorder, newest first.
    let list = one_shot(&addr, "GET", "/debug/traces", None).unwrap();
    assert_eq!(list.status, 200);
    let v = json::parse(&list.text()).unwrap();
    assert_eq!(v.get("capacity").and_then(|c| c.as_int()), Some(8));
    assert!(v.get("recorded").and_then(|r| r.as_int()).unwrap() >= 1);
    let traces = v.get("traces").and_then(|t| t.as_arr()).unwrap();
    assert!(!traces.is_empty());
    for t in traces {
        assert!(t.get("id").and_then(|i| i.as_str()).is_some());
        assert!(t.get("total_us").and_then(|d| d.as_int()).is_some());
    }

    // /debug/slow ranks by total time; the sweep must outrank the
    // readiness probes.
    let slow = one_shot(&addr, "GET", "/debug/slow", None).unwrap();
    assert_eq!(slow.status, 200);
    let v = json::parse(&slow.text()).unwrap();
    let ranked = v.get("traces").and_then(|t| t.as_arr()).unwrap();
    assert!(!ranked.is_empty());
    assert_eq!(
        ranked[0].get("label").and_then(|l| l.as_str()),
        Some("POST /v1/sweep"),
        "the sweep should be the slowest retained trace: {}",
        slow.text()
    );
    let totals: Vec<i64> = ranked
        .iter()
        .map(|t| t.get("total_us").and_then(|d| d.as_int()).unwrap())
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "slowest-first ordering: {totals:?}"
    );

    // Unknown and malformed ids 404 rather than 500.
    for bad in ["ffffffffffffffff", "zzz", "0"] {
        let miss = one_shot(&addr, "GET", &format!("/debug/traces/{bad}"), None).unwrap();
        assert_eq!(miss.status, 404, "{bad}");
    }

    // The queue-wait histogram and slow counter are scraped.
    let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap().text();
    assert!(metrics.contains("server_queue_wait_us"), "{metrics}");
    let slow_count = metrics
        .lines()
        .find_map(|l| l.strip_prefix("server_slow_requests "))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap();
    assert!(slow_count >= 1.0, "{metrics}");

    server.shutdown_and_join();

    // The slow log is JSONL with the per-span decomposition.
    let log = std::fs::read_to_string(&slow_log).unwrap();
    assert!(!log.trim().is_empty(), "slow log must not be empty");
    for line in log.lines() {
        let entry = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
        assert!(entry.get("trace_id").and_then(|i| i.as_str()).is_some());
        assert!(entry.get("total_us").and_then(|t| t.as_int()).is_some());
        assert!(entry.get("spans").and_then(|s| s.as_arr()).is_some());
    }
    let sweep_logged = log.lines().any(|l| l.contains("POST /v1/sweep"));
    assert!(sweep_logged, "the sweep request must be slow-logged: {log}");

    // The Chrome-trace export of the retained traces validates.
    let chrome = server.chrome_trace_json();
    let names = validate_chrome_trace(&chrome).expect("exported trace must validate");
    assert!(
        names.iter().any(|n| n == "request"),
        "export must contain request spans: {names:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
