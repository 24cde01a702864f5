//! Crash-only guarantees, end to end: boot `branchlabd` in-process
//! with server-side chaos injection armed and prove that
//!
//! 1. responses stay **byte-identical** to a fault-free direct
//!    evaluation under every fault class at once,
//! 2. an injected worker panic costs exactly one request (a `500`
//!    echoing the trace id) and never the pool,
//! 3. a `kill -9`-style crash followed by a restart comes back
//!    **warm** from the spill directory and serves a prior request
//!    from the restored cache,
//! 4. a damaged spill degrades *silently* to a cold start,
//! 5. no periodic spill lands after the drain's final snapshot, and
//!    the spill thread stops at shutdown even with no wait between
//!    snapshots.

use std::time::{Duration, Instant};

use branchlab_server::api::SweepRequest;
use branchlab_server::chaos::ChaosConfig;
use branchlab_server::client::{one_shot, one_shot_with_retry, Client, RetryPolicy};
use branchlab_server::store::SpillStore;
use branchlab_server::{Server, ServerConfig, ServerHandle};

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 8,
        warm_benches: vec!["wc".to_string()],
        ..ServerConfig::default()
    }
}

fn wait_ready(addr: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(resp) = one_shot(addr, "GET", "/readyz", None) {
            if resp.status == 200 {
                return resp.text();
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn metric_value(metrics_text: &str, name: &str) -> Option<f64> {
    metrics_text.lines().find_map(|line| {
        let (metric, value) = line.split_once(' ')?;
        (metric == name).then(|| value.parse().ok())?
    })
}

fn metrics_text(addr: &str) -> String {
    one_shot(addr, "GET", "/metrics", None).unwrap().text()
}

fn spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bl-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 12,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
        retry_budget: Duration::from_secs(30),
        seed: 7,
    }
}

/// Direct, fault-free evaluation of `body` — the reference bytes every
/// served response must match exactly.
fn direct_bytes(body: &str) -> String {
    let base = ServerConfig::default().experiment;
    let req = SweepRequest::parse(body.as_bytes(), &base).unwrap();
    branchlab_server::evaluate_direct(&req, &base)
        .unwrap()
        .to_string()
}

#[test]
fn responses_stay_byte_identical_under_every_fault_class() {
    let dir = spill_dir("ident");
    let mut server = Server::start(ServerConfig {
        spill_dir: Some(dir.clone()),
        spill_every: Duration::from_millis(100),
        chaos: ChaosConfig {
            seed: 42,
            worker_panic_rate: 0.5,
            slow_compute_rate: 1.0,
            delay: Duration::from_millis(5),
            cache_corrupt_rate: 1.0,
            spill_fail_rate: 1.0,
        },
        ..base_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let bodies: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "{{\"bench\": \"wc\", \"predictors\": [{{\"kind\": \"sbtb\", \"entries\": {}}}, \
                 {{\"kind\": \"btfn\"}}], \"ras\": [4]}}",
                32 << i
            )
        })
        .collect();

    // Each body four times: first issue computes, repeats exercise the
    // cache-corruption lane (every cached read is tampered, must be
    // detected and recomputed — never served damaged).
    for round in 0..4 {
        for body in &bodies {
            let resp = one_shot_with_retry(&addr, "POST", "/v1/sweep", Some(body), &fast_retry())
                .unwrap_or_else(|e| panic!("round {round}: retries exhausted: {e}"));
            assert_eq!(resp.status, 200, "round {round}: {}", resp.text());
            assert_eq!(
                resp.text(),
                direct_bytes(body),
                "round {round}: served bytes diverged from fault-free evaluation"
            );
        }
    }

    // Every fault class actually fired and was absorbed.
    let metrics = metrics_text(&addr);
    assert!(
        metric_value(&metrics, "server_cache_corrupt").unwrap_or(0.0) >= 1.0,
        "cache-corruption lane never detected damage\n{metrics}"
    );
    assert!(
        metric_value(&metrics, "server_spill_errors").unwrap_or(0.0) >= 1.0,
        "spill-failure lane never fired\n{metrics}"
    );
    assert!(
        server.worker_restarts() >= 1,
        "worker-panic lane never exercised the respawn path"
    );
    assert_eq!(
        metric_value(&metrics, "server_worker_restarts"),
        Some(server.worker_restarts() as f64),
        "{metrics}"
    );

    // The graceful drain's final spill bypasses chaos, so durable
    // state lands even though every periodic spill was failed.
    server.shutdown_and_join();
    let snapshot = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
    assert!(
        snapshot.contains("\"key\""),
        "drain spill published nothing"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_worker_panic_costs_one_request_never_the_pool() {
    let mut server = Server::start(ServerConfig {
        chaos: ChaosConfig {
            worker_panic_rate: 1.0,
            ..ChaosConfig::default()
        },
        ..base_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    wait_ready(&addr);

    let body = br#"{"bench": "wc", "predictors": [{"kind": "always_taken"}]}"#;
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..3u64 {
        let trace_id = format!("{:016x}", 0xabc0 + i);
        let resp = client
            .request_with(
                "POST",
                "/v1/sweep",
                &[("X-Branchlab-Trace-Id", &trace_id)],
                Some(body),
            )
            .unwrap();
        // The injected panic costs this one request a clean 500...
        assert_eq!(resp.status, 500, "request {i}: {}", resp.text());
        assert!(
            resp.text().contains("sweep worker panicked"),
            "request {i}: {}",
            resp.text()
        );
        // ...with the trace id echoed for correlation.
        assert_eq!(
            resp.header("x-branchlab-trace-id"),
            Some(trace_id.as_str()),
            "request {i}"
        );
    }

    // Never the pool: a fresh worker replaced each casualty, and the
    // daemon is still fully alive. The 500 is published the instant
    // the job guard drops, slightly before the pool books the
    // restart, so give the counter a moment to catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.worker_restarts() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.worker_restarts(), 3);
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    server.shutdown_and_join();
}

#[test]
fn kill_then_restart_comes_back_warm_and_serves_from_spilled_cache() {
    let dir = spill_dir("warm");
    let body = r#"{"bench": "wc", "predictors": [{"kind": "cbtb"}, {"kind": "btfn"}], "ras": [8]}"#;

    // First life: compute one sweep, wait for a periodic spill to
    // publish it, then die abruptly (no graceful-drain spill).
    let first_bytes;
    {
        let mut server = Server::start(ServerConfig {
            spill_dir: Some(dir.clone()),
            spill_every: Duration::from_millis(100),
            ..base_config()
        })
        .unwrap();
        let addr = server.addr().to_string();
        wait_ready(&addr);

        let resp = one_shot(&addr, "POST", "/v1/sweep", Some(body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.header("x-branchlab-source"), Some("computed"));
        first_bytes = resp.text();

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let metrics = metrics_text(&addr);
            if metric_value(&metrics, "server_spill_entries").unwrap_or(0.0) >= 1.0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "periodic spill never captured the cache entry\n{metrics}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        server.kill();
    }

    // Second life: same spill dir, fresh process state.
    let mut server = Server::start(ServerConfig {
        spill_dir: Some(dir.clone()),
        spill_every: Duration::from_millis(100),
        ..base_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    assert_eq!(wait_ready(&addr), "warm\n", "restart must report warm");
    assert!(server.is_warm_restart());

    // The pre-crash request is answered from the restored cache, byte
    // for byte.
    let resp = one_shot(&addr, "POST", "/v1/sweep", Some(body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.header("x-branchlab-source"),
        Some("cache"),
        "restart must serve the spilled result, not recompute"
    );
    assert_eq!(resp.text(), first_bytes);

    let metrics = metrics_text(&addr);
    assert!(
        metric_value(&metrics, "server_spill_restored").unwrap_or(0.0) >= 1.0,
        "{metrics}"
    );
    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_spill_degrades_silently_to_cold_start() {
    // A spill directory holding nothing but garbage: an empty traces
    // dir and a cache snapshot of alien bytes.
    let dir = spill_dir("cold");
    std::fs::create_dir_all(dir.join("traces")).unwrap();
    std::fs::write(
        dir.join("cache.jsonl"),
        b"\x00\xffnot a snapshot\nstill not\n",
    )
    .unwrap();

    let mut server: ServerHandle = Server::start(ServerConfig {
        spill_dir: Some(dir.clone()),
        ..base_config()
    })
    .unwrap();
    let addr = server.addr().to_string();
    assert_eq!(
        wait_ready(&addr),
        "cold\n",
        "nothing validated, so the restart must admit it is cold"
    );
    assert!(!server.is_warm_restart());

    // Degradation is silent: the daemon serves normally (computing
    // fresh), and the damage is only visible as a skip counter.
    let resp = one_shot(
        &addr,
        "POST",
        "/v1/sweep",
        Some(r#"{"bench": "wc", "predictors": [{"kind": "btfn"}]}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-branchlab-source"), Some("computed"));

    let metrics = metrics_text(&addr);
    assert!(
        metric_value(&metrics, "server_spill_skipped").unwrap_or(0.0) >= 1.0,
        "{metrics}"
    );
    assert_eq!(metric_value(&metrics, "server_spill_restored"), Some(0.0));
    server.shutdown_and_join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_drain_snapshot_is_the_last_spill_to_land() {
    // Spill as often as the spill thread can, so a periodic snapshot
    // is in flight whenever the drain writes its final one. Each life
    // restores the previous lives' entries and adds one, so the final
    // snapshot is known exactly; an older periodic one renamed over it
    // would lack the newest entry. Every publish renames a new inode
    // into place, so a snapshot landing after `join` shows as a
    // changed inode.
    use std::os::unix::fs::MetadataExt;
    let dir = spill_dir("last");
    let base = ServerConfig::default().experiment;
    let mut want = Vec::new();
    for entries in 1..=20 {
        let mut server = Server::start(ServerConfig {
            spill_dir: Some(dir.clone()),
            spill_every: Duration::from_millis(1),
            ..base_config()
        })
        .unwrap();
        let addr = server.addr().to_string();
        wait_ready(&addr);
        let body = format!(
            r#"{{"bench": "wc", "predictors": [{{"kind": "sbtb", "entries": {entries}}}]}}"#
        );
        let resp = one_shot(&addr, "POST", "/v1/sweep", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let req = SweepRequest::parse(body.as_bytes(), &base).unwrap();
        want.push((req.canonical_key(), resp.text()));
        server.shutdown_and_join();
        let store = SpillStore::open(&dir).unwrap();
        let inode = || std::fs::metadata(store.cache_path()).unwrap().ino();
        let published = inode();
        // Longer than the spill thread's 25 ms shutdown poll.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            inode(),
            published,
            "life {entries}: a spill landed after join"
        );

        let load = store.load_cache();
        let got: Vec<(String, String)> = load
            .entries
            .into_iter()
            .map(|(key, body)| (key, body.to_string()))
            .collect();
        assert_eq!(load.skipped, 0, "life {entries}");
        assert_eq!(got, want, "life {entries}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_zero_spill_interval_still_stops_at_shutdown() {
    // With no wait between periodic snapshots the spill thread never
    // sleeps, so only a shutdown check outside the wait can stop it —
    // and the crash's `join` waits on that thread.
    let dir = spill_dir("zero");
    let mut server = Server::start(ServerConfig {
        spill_dir: Some(dir.clone()),
        spill_every: Duration::ZERO,
        warm_benches: Vec::new(),
        ..base_config()
    })
    .unwrap();
    wait_ready(&server.addr().to_string());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.kill();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
        "the spill thread kept snapshotting after shutdown"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
