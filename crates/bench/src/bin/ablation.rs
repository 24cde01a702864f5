//! Extension studies: BTB geometry, counter parameters, context
//! switches, and the related-work static baselines.
//!
//! All studies on one benchmark are planned into a single
//! [`ablation::full_study`] batch, so the whole set is scored in one
//! pass over the captured trace (one capture + one replay per
//! benchmark), and the benchmarks run through
//! [`ablation::full_study_suite`], which overlaps the next
//! benchmark's trace capture with the current one's sweep scoring.
//! A failing benchmark is reported on stderr and the binary exits
//! non-zero after the surviving benchmarks have printed
//! (partial-result degradation, like the suite binaries).
//! `--trace-out FILE` drops the run's capture/replay/scoring phase
//! timing as Chrome trace-event JSON (open at ui.perfetto.dev).
use branchlab::experiments::ablation::{self, StudySpec};
use branchlab::workloads::benchmark;
use branchlab_bench::{sweep_phase_spans, trace_phase_spans};

fn main() {
    let options = branchlab_bench::Options::from_args();
    let cfg = &options.config;
    let spec = StudySpec::default();
    let mut failed = 0u32;
    let mut benches = Vec::new();
    for name in ["compress", "cccp"] {
        match benchmark(name) {
            Some(b) => benches.push(b),
            None => {
                eprintln!("ablation: benchmark {name} missing from suite");
                failed += 1;
            }
        }
    }
    for (name, result) in ablation::full_study_suite(&benches, cfg, &spec) {
        match result {
            Ok(tables) => {
                for t in &tables {
                    println!("{}", options.render(t));
                }
            }
            Err(e) => {
                eprintln!("ablation: {name} study set failed ({}): {e}", e.class());
                failed += 1;
            }
        }
    }
    // Written even on partial failure, so a degraded run's timing is
    // still inspectable.
    if let Some(path) = &options.trace_out {
        let groups = vec![
            (
                "ablation: trace capture/replay".to_string(),
                trace_phase_spans(&cfg.metrics),
            ),
            (
                "ablation: sweep scoring".to_string(),
                sweep_phase_spans(&cfg.metrics),
            ),
        ];
        let chrome = branchlab::telemetry::phases_chrome_trace("ablation", &groups);
        std::fs::write(path, chrome.to_json_pretty())
            .unwrap_or_else(|e| panic!("writing Chrome trace to {} failed: {e}", path.display()));
        eprintln!("ablation: Chrome trace written to {}", path.display());
    }
    if failed > 0 {
        eprintln!("ablation: {failed} benchmarks failed");
        std::process::exit(branchlab_bench::EXIT_PARTIAL);
    }
}
