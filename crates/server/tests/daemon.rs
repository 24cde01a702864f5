//! The `branchlabd` binary itself, driven as a child process: the
//! in-process tests (`serve.rs`, `chaos.rs`, `tracing.rs`) never reach
//! its argument parsing, its signal handler or the exports it writes
//! at shutdown. One test walks a daemon's whole life:
//!
//! 1. boot with spill, slow-log and trace export on; probe
//!    `/healthz`, `/readyz`, `/v1/benchmarks` and `/metrics`;
//! 2. compute a sweep, wait for a periodic spill, then `SIGKILL`;
//! 3. restart on the same spill directory: `/readyz` says `warm` and
//!    the pre-crash sweep comes back from the cache, byte for byte;
//! 4. `SIGTERM` drains and exits 0, leaving a valid Chrome trace and
//!    a slow log behind.
//!
//! A bad command line exits 2 with the usage text before anything boots.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use branchlab_server::client::one_shot;
use branchlab_telemetry::validate_chrome_trace;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

const SWEEP: &str = r#"{"bench": "wc", "predictors": [{"kind": "cbtb"}, {"kind": "gshare", "table_bits": 10}], "ras": [8]}"#;

/// A running `branchlabd`; dropping it kills the process, so a failed
/// assertion never leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: String,
    trace_out: PathBuf,
    slow_log: PathBuf,
}

impl Daemon {
    /// Boot life `life` on `spill` and wait for its address file.
    fn spawn(dir: &Path, life: u32, spill: &Path) -> Daemon {
        let path = |name: &str| dir.join(format!("life{life}.{name}"));
        let (addr_file, trace_out, slow_log) =
            (path("addr"), path("trace.json"), path("slow.jsonl"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_branchlabd"))
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--scale", "test", "--workers", "2", "--warm", "wc"])
            .arg("--spill-dir")
            .arg(spill)
            .args(["--spill-every", "1", "--slow-ms", "0"])
            .arg("--slow-log")
            .arg(&slow_log)
            .arg("--trace-out")
            .arg(&trace_out)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn branchlabd");
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            let text = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if text.parse::<std::net::SocketAddr>().is_ok() {
                break text;
            }
            if let Some(status) = child.try_wait().expect("poll branchlabd") {
                panic!("branchlabd exited during startup: {status}");
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("branchlabd never wrote its address file");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child,
            addr,
            trace_out,
            slow_log,
        }
    }

    /// Poll `/readyz` until it answers 200; returns its body.
    fn wait_ready(&self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(resp) = one_shot(&self.addr, "GET", "/readyz", None) {
                if resp.status == 200 {
                    return resp.text();
                }
            }
            assert!(Instant::now() < deadline, "branchlabd never became ready");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// POST a sweep; returns (source header, body).
    fn sweep(&self, body: &str) -> (String, String) {
        let resp = one_shot(&self.addr, "POST", "/v1/sweep", Some(body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let source = resp.header("x-branchlab-source").unwrap_or("").to_string();
        (source, resp.text())
    }

    fn metric(&self, name: &str) -> f64 {
        let text = one_shot(&self.addr, "GET", "/metrics", None)
            .unwrap()
            .text();
        text.lines()
            .find_map(|line| {
                let (metric, value) = line.split_once(' ')?;
                (metric == name).then(|| value.parse().ok())?
            })
            .unwrap_or(0.0)
    }

    /// Send `SIGTERM` and wait for the drain to finish.
    fn terminate(mut self) -> ExitStatus {
        let pid = i32::try_from(self.child.id()).expect("pid fits in pid_t");
        // SAFETY: `kill` only sends a signal; `pid` is our own live child.
        assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(SIGTERM) failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll branchlabd") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "branchlabd did not exit within 60 s of SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn daemon_survives_sigkill_warm_and_drains_on_sigterm() {
    let dir = std::env::temp_dir().join(format!("branchlab-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spill = dir.join("spill");

    // First life: every probe answers, a sweep computes, and a
    // periodic spill publishes it before SIGKILL.
    let first = Daemon::spawn(&dir, 1, &spill);
    let health = one_shot(&first.addr, "GET", "/healthz", None).unwrap();
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));
    assert_eq!(first.wait_ready(), "cold\n", "empty spill dir boots cold");
    let benches = one_shot(&first.addr, "GET", "/v1/benchmarks", None).unwrap();
    assert_eq!(benches.status, 200);
    assert!(benches.text().contains("\"wc\""), "{}", benches.text());
    assert_eq!(first.metric("server_ready"), 1.0);
    let (source, before_crash) = first.sweep(SWEEP);
    assert_eq!(source, "computed");
    let deadline = Instant::now() + Duration::from_secs(30);
    while first.metric("server_spill_entries") < 1.0 {
        assert!(
            Instant::now() < deadline,
            "periodic spill never captured the cache entry"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(first); // SIGKILL: no drain, no shutdown-time spill

    // Second life on the same spill dir: warm, and the pre-crash
    // sweep is served from the restored cache.
    let second = Daemon::spawn(&dir, 2, &spill);
    assert_eq!(second.wait_ready(), "warm\n", "restart must report warm");
    let (source, after_crash) = second.sweep(SWEEP);
    assert_eq!(source, "cache", "pre-crash sweep must come from the spill");
    assert_eq!(after_crash, before_crash, "restored bytes diverged");
    // A fresh sweep computes, so this life's trace has worker spans.
    let (source, _) = second.sweep(r#"{"bench": "wc", "predictors": [{"kind": "btfn"}]}"#);
    assert_eq!(source, "computed");

    let (trace_out, slow_log) = (second.trace_out.clone(), second.slow_log.clone());
    let status = second.terminate();
    assert!(
        status.success(),
        "SIGTERM must drain and exit 0, got {status}"
    );

    // The exports written at shutdown.
    let chrome = std::fs::read_to_string(&trace_out).expect("--trace-out written at shutdown");
    let names = validate_chrome_trace(&chrome).expect("exported trace must validate");
    for span in ["request", "compute", "render"] {
        assert!(
            names.iter().any(|n| n == span),
            "no `{span}` span in {names:?}"
        );
    }
    let slow = std::fs::read_to_string(&slow_log).expect("--slow-log written");
    assert!(
        slow.lines().any(|l| l.contains("POST /v1/sweep")),
        "no sweep in the slow log: {slow}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_scale_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_branchlabd"))
        .args(["--scale", "huge"])
        .output()
        .expect("run branchlabd");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("branchlabd: bad --scale `huge`\nusage: branchlabd"),
        "{stderr}"
    );
}
