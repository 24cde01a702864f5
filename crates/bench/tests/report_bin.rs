//! The artifact binaries as a user runs them: the telemetry artifacts
//! a clean `report` run writes, how a run degrades when injected faults
//! kill one benchmark on every attempt, the Chrome traces `report` and
//! `ablation` export, `--help`, and bad flags (including the sweep
//! flags the paper binaries do not take, the suite flags `ablation`
//! does not take, and `btb_bench`'s own command line).

use std::path::{Path, PathBuf};
use std::process::Command;

use branchlab::experiments::{PHASES, RUNS_HELPED, RUNS_INTERPRETED};
use branchlab::telemetry::{json, validate_chrome_trace, JsonValue};
use branchlab::workloads::{Scale, SUITE};
use branchlab_bench::{ABLATION_USAGE, EXIT_PARTIAL, EXIT_USAGE, USAGE};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("branchlab-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `bin --scale test` with `args` appended, check its exit code,
/// and return its stdout.
fn run(bin: &str, args: &[&str], code: i32) -> String {
    let out = Command::new(bin)
        .args(["--scale", "test"])
        .args(args)
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn read_json(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).expect("artifact written");
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn at<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .unwrap_or_else(|| panic!("nothing at {path:?}"))
}

fn int(v: &JsonValue, path: &[&str]) -> i64 {
    at(v, path).as_int().expect("an integer")
}

fn text<'a>(v: &'a JsonValue, path: &[&str]) -> &'a str {
    at(v, path).as_str().expect("a string")
}

fn arr<'a>(v: &'a JsonValue, path: &[&str]) -> &'a [JsonValue] {
    at(v, path).as_arr().expect("an array")
}

/// A counter's value in `metrics.jsonl`.
fn jsonl_counter(dir: &Path, name: &str) -> i64 {
    let text = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
    text.lines()
        .map(|line| json::parse(line).unwrap())
        .find(|rec| rec.get("name").and_then(JsonValue::as_str) == Some(name))
        .map(|rec| int(&rec, &["value"]))
        .unwrap_or_else(|| panic!("no counter {name} in metrics.jsonl"))
}

#[test]
fn telemetry_run_writes_a_complete_manifest() {
    let dir = scratch("telemetry");
    let report = env!("CARGO_BIN_EXE_report");
    run(report, &["--telemetry-out", dir.to_str().unwrap()], 0);
    for f in ["manifest.json", "metrics.jsonl", "metrics.prom"] {
        let len = std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
        assert!(len > 0, "missing or empty telemetry artifact {f}");
    }

    let m = read_json(&dir.join("manifest.json"));
    assert_eq!(text(&m, &["tool"]), "report");
    assert!(!text(&m, &["git_describe"]).is_empty());
    assert_eq!(text(&m, &["config", "scale"]), "test");
    assert_eq!(int(&m, &["config", "seed"]), 1989);
    let benches = arr(&m, &["benchmarks"]);
    assert_eq!(benches.len(), 12);
    for b in benches {
        let name = text(b, &["name"]);
        let phases: Vec<&str> = arr(b, &["phases"])
            .iter()
            .map(|p| text(p, &["name"]))
            .collect();
        for phase in PHASES {
            assert!(phases.contains(&phase), "{name}: no {phase} in {phases:?}");
        }
        let sbtb = at(b, &["predictors", "sbtb"]);
        assert!(
            int(sbtb, &["stats", "events"]) > 0,
            "{name}: no sbtb events"
        );
        assert!(
            int(sbtb, &["sites", "sites"]) > 0,
            "{name}: no site telemetry"
        );
    }
    assert_eq!(int(&m, &["supervisor", "benches_completed"]), 12);
    assert_eq!(jsonl_counter(&dir, "suite.benches_completed"), 12);

    // Every benchmark's runs (Table 1's *Runs*), once per layout,
    // whichever thread interpreted them.
    let runs: usize = SUITE.iter().map(|b| b.runs(Scale::Test, 1989).len()).sum();
    let interpreted = jsonl_counter(&dir, RUNS_INTERPRETED);
    assert_eq!(interpreted, 2 * runs as i64);
    assert!(jsonl_counter(&dir, RUNS_HELPED) <= interpreted);
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    let prom_name = RUNS_INTERPRETED.replace('.', "_");
    assert!(
        prom.lines()
            .any(|l| l.starts_with(&prom_name) && l.ends_with(&format!(" {interpreted}"))),
        "no {prom_name} {interpreted} in metrics.prom"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `X` events of a Chrome trace export, after validating it.
fn complete_events(path: &Path) -> Vec<JsonValue> {
    let chrome = std::fs::read_to_string(path).expect("--trace-out written");
    validate_chrome_trace(&chrome).expect("exported trace must validate");
    let doc = json::parse(&chrome).unwrap();
    arr(&doc, &["traceEvents"])
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .cloned()
        .collect()
}

#[test]
fn paper_trace_export_has_only_benchmark_rows_and_no_empty_spans() {
    let dir = scratch("trace");
    let trace = dir.join("report.trace.json");
    run(
        env!("CARGO_BIN_EXE_report"),
        &["--trace-out", trace.to_str().unwrap()],
        0,
    );
    let doc = read_json(&trace);
    // One row (process) per benchmark, named by its trace label, in
    // suite order.
    let rows: Vec<(i64, &str)> = arr(&doc, &["traceEvents"])
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .map(|e| (int(e, &["pid"]), text(e, &["args", "name"])))
        .collect();
    assert_eq!(rows.len(), SUITE.len(), "{rows:?}");
    for ((_, row), bench) in rows.iter().zip(SUITE) {
        assert_eq!(
            row.split_once(' ').map(|(_, label)| label),
            Some(bench.name)
        );
    }
    // Every span is a pipeline phase or the root it hangs off; each
    // row holds the root and every phase, and the evaluation phases
    // carry their instruction counts.
    let events = complete_events(&trace);
    for (pid, row) in &rows {
        let spans: Vec<&JsonValue> = events.iter().filter(|e| int(e, &["pid"]) == *pid).collect();
        let names: Vec<&str> = spans.iter().map(|e| text(e, &["name"])).collect();
        assert_eq!(names[0], "run_benchmark", "{row}: {names:?}");
        assert_eq!(names[1..], PHASES, "{row}");
        assert_eq!(at(spans[0], &["args", "parent"]), &JsonValue::Null, "{row}");
        let root = int(spans[0], &["args", "span"]);
        for e in &spans[1..] {
            assert_eq!(int(e, &["args", "parent"]), root, "{row}");
        }
        for (e, name) in spans.iter().zip(&names) {
            if ["natural_eval", "fs_eval"].contains(name) {
                assert!(int(e, &["args", "work"]) > 0, "{row}: {name} did no work");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(["--seed", "7", flag])
            .output()
            .expect("run report");
        assert_eq!(out.status.code(), Some(0), "report {flag}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{USAGE}\n"));
        assert!(out.stderr.is_empty(), "report {flag} wrote to stderr");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_btb_bench"))
        .arg("--help")
        .output()
        .expect("run btb_bench");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: btb_bench"));
}

#[test]
fn a_bad_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("--resume")
        .output()
        .expect("run report");
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("unknown argument `--resume`\n{USAGE}\n")
    );

    // `btb_bench` parses its own command line, with the same contract.
    let btb_bench = env!("CARGO_BIN_EXE_btb_bench");
    let help = Command::new(btb_bench)
        .arg("--help")
        .output()
        .expect("run btb_bench");
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.starts_with("usage: btb_bench"), "{usage}");
    for (args, message) in [
        (&["--bogus"][..], "unknown argument `--bogus`"),
        (&["--seed"], "--seed needs an integer"),
        (&["--seed", "abc"], "--seed needs an integer, not `abc`"),
        (
            &["--scale", "huge"],
            "unknown scale `huge` (test|small|paper)",
        ),
        (&["--benches", "wc,nope"], "benchmark `nope` not found"),
    ] {
        let out = Command::new(btb_bench)
            .args(args)
            .output()
            .expect("run btb_bench");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("{message}\n{usage}"),
            "{args:?}"
        );
    }
}

#[test]
fn certain_fault_on_one_benchmark_degrades_to_partial_results() {
    let dir = scratch("fault");
    let args = [
        "--fault-exec-rate",
        "1.0",
        "--fault-benches",
        "wc",
        "--max-attempts",
        "2",
        "--telemetry-out",
        dir.to_str().unwrap(),
    ];
    let stdout = run(env!("CARGO_BIN_EXE_report"), &args, EXIT_PARTIAL);
    assert!(stdout.contains("FAILED(transient"), "no FAILED annotation");

    let m = read_json(&dir.join("manifest.json"));
    assert_eq!(arr(&m, &["benchmarks"]).len(), 11);
    assert_eq!(int(&m, &["supervisor", "benches_completed"]), 11);
    assert_eq!(int(&m, &["supervisor", "benches_failed"]), 1);
    assert_eq!(int(&m, &["supervisor", "retries"]), 1);
    let failures = arr(&m, &["failures"]);
    assert_eq!(failures.len(), 1);
    assert_eq!(text(&failures[0], &["bench"]), "wc");
    assert_eq!(text(&failures[0], &["class"]), "transient");
    assert_eq!(int(&failures[0], &["attempts"]), 2);
    assert_eq!(jsonl_counter(&dir, "suite.benches_completed"), 11);
    assert_eq!(jsonl_counter(&dir, "suite.benches_failed"), 1);
    assert_eq!(jsonl_counter(&dir, "suite.retries"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ablation_trace_export_times_replay_and_sweep_phases() {
    let dir = scratch("ablation");
    let trace = dir.join("ablation.trace.json");
    let ablation = env!("CARGO_BIN_EXE_ablation");
    // One sweep thread: each benchmark's study set is scored in one
    // `score_shard` span over one `block_replay` decode.
    let args = [
        "--sweep-threads",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
    ];
    run(ablation, &args, 0);
    let events = complete_events(&trace);
    let names: Vec<&str> = events.iter().map(|e| text(e, &["name"])).collect();
    for span in ["ablation", "compress", "cccp", "sweep_capture"] {
        assert!(names.contains(&span), "no `{span}` span in {names:?}");
    }
    for phase in ["score_shard", "block_replay"] {
        let spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| text(e, &["name"]) == phase)
            .collect();
        assert_eq!(spans.len(), 2, "`{phase}` spans in {names:?}");
        for span in spans {
            assert!(
                int(span, &["args", "work"]) > 0,
                "`{phase}` recorded no work"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_binaries_reject_the_sweep_flags_they_would_ignore() {
    for bin in [
        env!("CARGO_BIN_EXE_report"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_table3"),
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_table5"),
        env!("CARGO_BIN_EXE_fig3"),
        env!("CARGO_BIN_EXE_fig4"),
    ] {
        for args in [["--sweep-threads", "2"], ["--trace-cache", "dir"]] {
            let out = Command::new(bin)
                .args(["--scale", "test"])
                .args(args)
                .output()
                .expect("run the binary");
            assert_eq!(out.status.code(), Some(EXIT_USAGE), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!("unknown argument `{}`\n{USAGE}\n", args[0])
            );
        }
    }
}

#[test]
fn ablation_rejects_the_suite_flags_it_would_ignore() {
    let ablation = env!("CARGO_BIN_EXE_ablation");
    for args in [
        &["--telemetry-out", "dir"][..],
        &["--no-verify"],
        &["--max-attempts", "2"],
        &["--backoff-ms", "1"],
        &["--watchdog-ms", "1"],
        &["--fault-exec-rate", "1.0"],
        &["--fault-panic-rate", "1.0"],
        &["--fault-delay-rate", "1.0"],
        &["--fault-delay-ms", "1"],
        &["--fault-seed", "1"],
        &["--fault-benches", "wc"],
    ] {
        let out = Command::new(ablation)
            .args(["--scale", "test"])
            .args(args)
            .output()
            .expect("run ablation");
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "ablation {args:?}");
        assert!(out.stdout.is_empty(), "ablation {args:?} ran");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("unknown argument `{}`\n{ABLATION_USAGE}\n", args[0])
        );
    }
    let out = Command::new(ablation)
        .arg("--help")
        .output()
        .expect("run ablation");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{ABLATION_USAGE}\n")
    );
}
