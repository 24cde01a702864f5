//! End-to-end tests: boot `branchlabd` in-process and drive it over
//! real sockets with the std-only client.
//!
//! Proves the three server guarantees the issue names:
//! 1. responses are **byte-identical** to a direct `SweepBatch` run
//!    of the same configuration,
//! 2. flooding past the queue bound sheds load with `503` +
//!    `Retry-After` instead of growing memory without bound,
//! 3. identical concurrent requests **coalesce** (or hit the cache) —
//!    visible in `/metrics`.

use std::time::{Duration, Instant};

use branchlab_server::api::SweepRequest;
use branchlab_server::client::{one_shot, Client};
use branchlab_server::{Server, ServerConfig};

fn test_server(workers: usize, queue_cap: usize) -> branchlab_server::ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        // Warm a single small bench so tests don't pay a full-suite
        // warmup; requests may still name any benchmark.
        warm_benches: vec!["wc".to_string()],
        ..ServerConfig::default()
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

/// A sweep body heavy enough (many predictor points) that it occupies
/// a worker for a measurable time.
fn heavy_body(bench: &str, seed_points: usize) -> String {
    let preds: Vec<String> = (0..seed_points)
        .map(|i| format!("{{\"kind\": \"sbtb\", \"entries\": {}}}", 16 << (i % 6)))
        .collect();
    format!(
        "{{\"bench\": \"{bench}\", \"predictors\": [{}], \"ras\": [1, 8, 64]}}",
        preds.join(", ")
    )
}

fn metric_value(metrics_text: &str, name: &str) -> Option<f64> {
    metrics_text.lines().find_map(|line| {
        let (metric, value) = line.split_once(' ')?;
        (metric == name).then(|| value.parse().ok())?
    })
}

#[test]
fn serves_health_benchmarks_and_metrics() {
    let mut server = test_server(2, 8);
    let addr = server.addr().to_string();

    let health = one_shot(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    wait_ready(&addr);

    let benches = one_shot(&addr, "GET", "/v1/benchmarks", None).unwrap();
    assert_eq!(benches.status, 200);
    let v = branchlab_telemetry::json::parse(&benches.text()).unwrap();
    let list = v.get("benchmarks").and_then(|b| b.as_arr()).unwrap();
    assert_eq!(list.len(), branchlab_workloads::all_benchmarks().count());
    let wc = list
        .iter()
        .find(|b| b.get("name").and_then(|n| n.as_str()) == Some("wc"))
        .unwrap();
    assert_eq!(wc.get("resident").and_then(|r| r.as_bool()), Some(true));
    assert!(wc.get("trace_events").and_then(|e| e.as_int()).unwrap() > 0);
    assert!(wc.get("branch_sites").and_then(|s| s.as_int()).unwrap() > 0);
    assert_eq!(
        wc.get("footprint_class").and_then(|c| c.as_str()),
        Some("small")
    );
    // The synthetic large-footprint benchmarks advertise their class so
    // clients can pick capacity-stressing workloads without trial sweeps.
    let dispatch = list
        .iter()
        .find(|b| b.get("name").and_then(|n| n.as_str()) == Some("dispatch"))
        .unwrap();
    assert_eq!(
        dispatch.get("footprint_class").and_then(|c| c.as_str()),
        Some("large")
    );
    assert!(
        dispatch
            .get("branch_sites")
            .and_then(|s| s.as_int())
            .unwrap()
            >= 400
    );

    let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("server_requests"), "{text}");
    assert!(text.contains("server_ready 1"), "{text}");

    let missing = one_shot(&addr, "GET", "/v1/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = one_shot(&addr, "GET", "/v1/sweep", None).unwrap();
    assert_eq!(wrong_method.status, 405);

    server.shutdown_and_join();
}

#[test]
fn multi_config_sweep_flows_through_lanes_and_shows_in_metrics() {
    let mut server = test_server(1, 4);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Three CBTB points sharing one geometry: the planner must pack
    // them into a single 3-lane family on the compute path.
    let body = r#"{"bench": "wc",
                   "predictors": [{"kind": "cbtb", "threshold": 1},
                                  {"kind": "cbtb", "threshold": 2},
                                  {"kind": "cbtb", "threshold": 3}]}"#;
    let resp = one_shot(&addr, "POST", "/v1/sweep", Some(body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-branchlab-source"), Some("computed"));

    let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    // Process-wide counters, so other tests may add to them: assert
    // floors, not exact values.
    let families = metric_value(&text, "suite_sweep_lane_families").unwrap_or(0.0);
    let lanes = metric_value(&text, "suite_sweep_lane_lanes").unwrap_or(0.0);
    let events = metric_value(&text, "suite_sweep_lane_events").unwrap_or(0.0);
    assert!(families >= 1.0, "no lane family scored:\n{text}");
    assert!(lanes >= 3.0, "expected >= 3 packed lanes:\n{text}");
    assert!(events >= 1.0, "lane engine scored no events:\n{text}");

    server.shutdown_and_join();
}

#[test]
fn sweep_responses_are_byte_identical_to_direct_evaluation() {
    let mut server = test_server(2, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Each body with the points the lane planner leaves scalar: lone
    // lane-eligible points (one CBTB, one gshare geometry) and every
    // point with no lane form (sbtb, btfn, mlbtb).
    let bodies = [
        (
            4.0,
            r#"{"bench": "wc",
            "predictors": [{"kind": "cbtb"},
                           {"kind": "sbtb", "entries": 128},
                           {"kind": "gshare", "table_bits": 10},
                           {"kind": "btfn"}],
            "ras": [2, 16]}"#,
        ),
        // BTB hierarchies on a large-footprint synthetic: the mlbtb
        // specs parse and canonicalize, `dispatch` resolves by name
        // and seed, and the points compute end to end.
        (
            3.0,
            r#"{"bench": "dispatch", "seed": 31337,
            "predictors": [{"kind": "mlbtb"},
                           {"kind": "mlbtb", "policy": "staged",
                            "l1_entries": 32, "l1_ways": 4,
                            "l2_entries": 1024, "l2_ways": 8,
                            "l2_latency": 3},
                           {"kind": "cbtb", "entries": 64, "ways": 4}]}"#,
        ),
    ];
    let base = ServerConfig::default().experiment;
    let scalar_points = || {
        let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap().text();
        metric_value(&metrics, "suite_sweep_lane_scalar_points").unwrap_or(0.0)
    };
    for (scalars, body) in bodies {
        let before = scalar_points();
        let resp = one_shot(&addr, "POST", "/v1/sweep", Some(body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-branchlab-source"), Some("computed"));

        // The reference: the same request evaluated directly through
        // SweepBatch, bypassing HTTP entirely.
        let req = SweepRequest::parse(body.as_bytes(), &base).unwrap();
        let direct = branchlab_server::evaluate_direct(&req, &base).unwrap();
        assert_eq!(
            resp.text(),
            &*direct,
            "served bytes must match direct SweepBatch evaluation"
        );
        assert_eq!(scalar_points() - before, scalars, "{body}");

        // A repeat is served from the cache — and is still byte-identical.
        let again = one_shot(&addr, "POST", "/v1/sweep", Some(body)).unwrap();
        assert_eq!(again.status, 200);
        assert_eq!(again.header("x-branchlab-source"), Some("cache"));
        assert_eq!(again.text(), resp.text());
    }

    server.shutdown_and_join();
}

#[test]
fn keep_alive_connection_serves_multiple_requests() {
    let mut server = test_server(1, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client
        .post_json(
            "/v1/sweep",
            r#"{"bench": "wc", "predictors": [{"kind": "always_taken"}]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);

    let bad = client.post_json("/v1/sweep", "{not json").unwrap();
    assert_eq!(bad.status, 400);

    server.shutdown_and_join();
}

#[test]
fn btb_specs_the_engines_refuse_are_rejected_with_400() {
    let mut server = test_server(1, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    for spec in [
        r#"{"kind":"cbtb","entries":24,"ways":2}"#,
        r#"{"kind":"cbtb","entries":256,"ways":256,"counter_bits":8,"threshold":2}"#,
        r#"{"kind":"cbtb","entries":256,"ways":256,"threshold":0}"#,
        r#"{"kind":"sbtb","entries":24,"ways":2}"#,
    ] {
        let body = format!(r#"{{"bench":"wc","predictors":[{spec}]}}"#);
        let resp = one_shot(&addr, "POST", "/v1/sweep", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{spec}: {}", resp.text());
    }
    assert_eq!(server.worker_restarts(), 0);

    server.shutdown_and_join();
}

#[test]
fn history_wider_than_table_is_rejected_with_400() {
    let mut server = test_server(1, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    for kind in ["gshare", "local"] {
        let body = format!(
            r#"{{"bench":"wc","predictors":[{{"kind":"{kind}","table_bits":6,"history_bits":12}}]}}"#
        );
        let resp = one_shot(&addr, "POST", "/v1/sweep", Some(&body)).unwrap();
        assert_eq!(resp.status, 400, "{kind}: {}", resp.text());
        assert!(resp.text().contains("history_bits"), "{}", resp.text());
    }

    // The rejection happened before any worker ran: none panicked, and
    // a valid spec at the widest allowed history is still served.
    let ok = one_shot(
        &addr,
        "POST",
        "/v1/sweep",
        Some(r#"{"bench":"wc","predictors":[{"kind":"gshare","table_bits":6,"history_bits":6}]}"#),
    )
    .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert_eq!(server.worker_restarts(), 0);

    server.shutdown_and_join();
}

#[test]
fn flood_past_queue_bound_sheds_load_with_503() {
    // One worker, a queue of two: any sustained burst must overflow.
    let mut server = test_server(1, 2);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Occupy the worker with a heavy sweep, then flood with distinct
    // requests (distinct keys, so no coalescing can absorb them).
    let mut primer = Client::connect(&addr).unwrap();
    let primer_thread = {
        let body = heavy_body("grep", 48);
        std::thread::spawn(move || primer.post_json("/v1/sweep", &body).map(|r| r.status))
    };

    // Give the worker a moment to claim the primer, then flood with
    // 12 *concurrent* distinct requests. One worker is busy and the
    // queue holds two, so most of the burst must be shed immediately
    // (try_submit rejects synchronously — nothing piles up in memory).
    std::thread::sleep(Duration::from_millis(100));
    let flooders: Vec<_> = (0..12u64)
        .map(|seed| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"bench\": \"cmp\", \"seed\": {seed}, \"predictors\": [{}]}}",
                    (0..32)
                        .map(|i| format!("{{\"kind\": \"sbtb\", \"entries\": {}}}", 8 << (i % 8)))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                let resp = one_shot(&addr, "POST", "/v1/sweep", Some(&body)).unwrap();
                (resp.status, resp.header("retry-after").map(str::to_string))
            })
        })
        .collect();
    let outcomes: Vec<_> = flooders.into_iter().map(|t| t.join().unwrap()).collect();
    let rejected = outcomes.iter().filter(|(status, _)| *status == 503).count();
    assert!(
        rejected >= 2,
        "12 concurrent requests vs 1 busy worker + queue of 2: most must be \
         shed, got {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .filter(|(status, _)| *status == 503)
            .all(|(_, retry)| retry.is_some()),
        "every 503 must carry Retry-After: {outcomes:?}"
    );

    // The primed request itself still completes (drain, not drop).
    let primer_status = primer_thread.join().unwrap().unwrap();
    assert_eq!(primer_status, 200);

    let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap().text();
    assert!(
        metric_value(&metrics, "server_queue_rejected").unwrap_or(0.0) >= 2.0,
        "{metrics}"
    );

    server.shutdown_and_join();
}

#[test]
fn identical_concurrent_requests_coalesce_or_hit_cache() {
    let mut server = test_server(1, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let body = heavy_body("wc", 24);
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let body = body.clone();
            std::thread::spawn(move || {
                let resp = one_shot(&addr, "POST", "/v1/sweep", Some(&body)).unwrap();
                (resp.status, resp.text())
            })
        })
        .collect();
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (status, body) in &results {
        assert_eq!(*status, 200);
        assert_eq!(body, &results[0].1, "all responses must be byte-identical");
    }

    let metrics = one_shot(&addr, "GET", "/metrics", None).unwrap().text();
    let coalesced = metric_value(&metrics, "server_coalesce_hits").unwrap_or(0.0);
    let cached = metric_value(&metrics, "server_cache_hits").unwrap_or(0.0);
    assert!(
        coalesced + cached >= 1.0,
        "4 identical requests, 1 worker: at least one must coalesce or hit \
         the cache\n{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "server_sweeps_computed"),
        Some(1.0),
        "identical requests must share one replay pass\n{metrics}"
    );

    server.shutdown_and_join();
}

#[test]
fn readyz_reports_draining_with_503_during_shutdown() {
    let mut server = test_server(1, 4);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Once warm-up finishes, /readyz names the boot temperature.
    let ready = one_shot(&addr, "GET", "/readyz", None).unwrap();
    assert_eq!(ready.status, 200);
    assert!(
        ["warm\n", "cold\n"].contains(&ready.text().as_str()),
        "unexpected readyz body {:?}",
        ready.text()
    );

    // A connection established *before* the drain gets the drain
    // grace window, so its next probe sees the draining signal
    // instead of a closed socket. One round-trip first: connect()
    // alone only reaches the listener backlog, and a socket the
    // accept loop never claimed gets reset when the listener drops.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    server.shutdown();
    let draining = client.get("/readyz").unwrap();
    assert_eq!(
        draining.status, 503,
        "readyz must fail load-balancer checks during drain"
    );
    assert_eq!(draining.text(), "draining\n");

    server.join();
}

#[test]
fn shutdown_drains_and_joins() {
    let mut server = test_server(2, 8);
    let addr = server.addr().to_string();
    wait_ready(&addr);

    // Leave a request in flight, then shut down: it must complete.
    let flight = {
        let addr = addr.clone();
        let body = heavy_body("wc", 16);
        std::thread::spawn(move || {
            one_shot(&addr, "POST", "/v1/sweep", Some(&body)).map(|r| r.status)
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown_and_join();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "shutdown must not hang"
    );
    assert_eq!(flight.join().unwrap().unwrap(), 200);

    // The socket is gone afterwards.
    assert!(one_shot(&addr, "GET", "/healthz", None).is_err());
}
