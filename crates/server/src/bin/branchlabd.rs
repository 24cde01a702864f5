//! `branchlabd` — the predictor-sweep evaluation daemon.
//!
//! Boots the server from [`branchlab_server::ServerConfig`], warms
//! the suite traces, and serves until SIGTERM/SIGINT, at which point
//! it drains in-flight work and exits 0.
//!
//! ```text
//! branchlabd [--listen ADDR] [--scale test|small|paper] [--seed N]
//!            [--workers N] [--queue N] [--cache N]
//!            [--deadline-ms N] [--addr-file PATH]
//!            [--warm bench1,bench2,...]
//!            [--recorder N] [--slow-ms N] [--slow-log FILE]
//!            [--trace-out FILE]
//!            [--spill-dir DIR] [--spill-every SECS]
//!            [--chaos-seed N] [--chaos-panic-rate P]
//!            [--chaos-delay-rate P] [--chaos-delay-ms N]
//!            [--chaos-cache-corrupt-rate P] [--chaos-spill-fail-rate P]
//! ```
//!
//! `--trace-out` writes the flight recorder's retained request traces
//! as Chrome trace-event JSON at shutdown (open in Perfetto);
//! `--slow-ms` logs requests past the threshold as JSONL, to stderr
//! or to `--slow-log FILE`.
//!
//! `--spill-dir` makes restarts warm: traces and the response cache
//! spill there (every `--spill-every` seconds and on graceful drain),
//! and the next boot restores whatever validates. The `--chaos-*`
//! rates arm deterministic server-side fault injection — worker
//! panics, slow computes, cache-read corruption, spill-write failure
//! — for drills; see `branchlab_server::chaos`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use branchlab_server::{Server, ServerConfig};
use branchlab_workloads::Scale;

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: set the flag.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Install the handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` with a handler that only stores to a static
        // AtomicBool is async-signal-safe; the numbers are the
        // POSIX-mandated values for SIGINT and SIGTERM.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    /// No signal wiring off unix; ctrl-c kills the process directly.
    pub fn install() {}
}

fn usage() -> ! {
    eprintln!(
        "usage: branchlabd [--listen ADDR] [--scale test|small|paper] [--seed N]\n\
         \x20                 [--workers N] [--queue N] [--cache N]\n\
         \x20                 [--deadline-ms N] [--addr-file PATH] [--warm a,b,...]\n\
         \x20                 [--recorder N] [--slow-ms N] [--slow-log FILE]\n\
         \x20                 [--trace-out FILE]\n\
         \x20                 [--spill-dir DIR] [--spill-every SECS]\n\
         \x20                 [--chaos-seed N] [--chaos-panic-rate P]\n\
         \x20                 [--chaos-delay-rate P] [--chaos-delay-ms N]\n\
         \x20                 [--chaos-cache-corrupt-rate P] [--chaos-spill-fail-rate P]"
    );
    std::process::exit(2)
}

/// Parse a probability flag value in `[0, 1]`.
fn parse_rate(s: &str) -> f64 {
    match s.parse::<f64>() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
        _ => {
            eprintln!("branchlabd: chaos rates must be in [0, 1], got `{s}`");
            usage()
        }
    }
}

fn parse_args() -> (
    ServerConfig,
    Option<std::path::PathBuf>,
    Option<std::path::PathBuf>,
) {
    let mut config = ServerConfig::default();
    let mut addr_file = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("branchlabd: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => config.addr = value("--listen"),
            "--addr-file" => addr_file = Some(std::path::PathBuf::from(value("--addr-file"))),
            "--scale" => {
                let s = value("--scale");
                config.experiment.scale = Scale::from_name(&s).unwrap_or_else(|| {
                    eprintln!("branchlabd: bad --scale `{s}`");
                    usage()
                });
            }
            "--seed" => {
                config.experiment.seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --seed");
                    usage()
                });
            }
            "--workers" => {
                config.workers = value("--workers").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --workers");
                    usage()
                });
            }
            "--queue" => {
                config.queue_cap = value("--queue").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --queue");
                    usage()
                });
            }
            "--cache" => {
                config.cache_cap = value("--cache").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --cache");
                    usage()
                });
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --deadline-ms");
                    usage()
                });
                config.default_deadline = Duration::from_millis(ms);
            }
            "--warm" => {
                config.warm_benches = value("--warm")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--recorder" => {
                config.flight_recorder_cap = value("--recorder").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --recorder");
                    usage()
                });
            }
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --slow-ms");
                    usage()
                });
                config.slow_ms = Some(ms);
            }
            "--slow-log" => {
                config.slow_log = Some(std::path::PathBuf::from(value("--slow-log")));
            }
            "--trace-out" => {
                trace_out = Some(std::path::PathBuf::from(value("--trace-out")));
            }
            "--spill-dir" => {
                config.spill_dir = Some(std::path::PathBuf::from(value("--spill-dir")));
            }
            "--spill-every" => {
                let secs: u64 = value("--spill-every").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --spill-every");
                    usage()
                });
                config.spill_every = Duration::from_secs(secs.max(1));
            }
            "--chaos-seed" => {
                config.chaos.seed = value("--chaos-seed").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --chaos-seed");
                    usage()
                });
            }
            "--chaos-panic-rate" => {
                config.chaos.worker_panic_rate = parse_rate(&value("--chaos-panic-rate"));
            }
            "--chaos-delay-rate" => {
                config.chaos.slow_compute_rate = parse_rate(&value("--chaos-delay-rate"));
            }
            "--chaos-delay-ms" => {
                let ms: u64 = value("--chaos-delay-ms").parse().unwrap_or_else(|_| {
                    eprintln!("branchlabd: bad --chaos-delay-ms");
                    usage()
                });
                config.chaos.delay = Duration::from_millis(ms);
            }
            "--chaos-cache-corrupt-rate" => {
                config.chaos.cache_corrupt_rate = parse_rate(&value("--chaos-cache-corrupt-rate"));
            }
            "--chaos-spill-fail-rate" => {
                config.chaos.spill_fail_rate = parse_rate(&value("--chaos-spill-fail-rate"));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("branchlabd: unknown argument `{other}`");
                usage()
            }
        }
    }
    (config, addr_file, trace_out)
}

fn main() {
    let (config, addr_file, trace_out) = parse_args();
    sig::install();

    let mut handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("branchlabd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("branchlabd: listening on http://{}", handle.addr());
    if let Some(path) = addr_file {
        // Written last so a watcher that sees the file can connect
        // immediately.
        if let Err(e) = std::fs::write(&path, handle.addr().to_string()) {
            eprintln!("branchlabd: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("branchlabd: shutting down, draining in-flight work");
    handle.shutdown_and_join();
    if let Some(path) = trace_out {
        // After the drain, so the export covers every completed
        // request the recorder still retains.
        let recorded = handle.traces_recorded();
        match std::fs::write(&path, handle.chrome_trace_json()) {
            Ok(()) => eprintln!(
                "branchlabd: wrote Chrome trace ({recorded} requests recorded) to {}",
                path.display()
            ),
            Err(e) => eprintln!("branchlabd: writing {}: {e}", path.display()),
        }
    }
    eprintln!("branchlabd: drained, bye");
}
