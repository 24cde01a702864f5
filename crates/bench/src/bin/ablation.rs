//! Extension studies: BTB geometry, counter parameters, context
//! switches, and the related-work static baselines.
//!
//! All studies on one benchmark are planned into a single
//! [`ablation::full_study`] batch, so the whole set is scored off one
//! capture of the benchmark (one decode per sweep work item; a single
//! one at `--sweep-threads 1`), and the benchmarks run through
//! [`ablation::full_study_suite`], which overlaps the next
//! benchmark's trace capture with the current one's sweep scoring.
//! A failing benchmark is reported on stderr and the binary exits
//! non-zero after the surviving benchmarks have printed
//! (partial-result degradation, like the suite binaries).
//! `--trace-out FILE` records the run as one trace — an `ablation`
//! root span over each benchmark's `prefetch` and study-set spans,
//! which hold the sweep's `sweep_capture`, one `score_shard` per work
//! item over its `block_replay` decode, and `sweep_merge` — and writes
//! it as Chrome trace-event JSON (open at ui.perfetto.dev). The command
//! line is [`branchlab_bench::ABLATION_USAGE`]: the suite binaries'
//! telemetry, verification and watchdog flags are usage errors here.
use std::sync::Arc;

use branchlab::experiments::ablation::{self, StudySpec};
use branchlab::telemetry::{SpanHandle, TraceContext};
use branchlab::workloads::benchmark;
use branchlab_bench::{Options, ABLATION_FLAGS, ABLATION_USAGE};

fn main() {
    let options = Options::from_args_for(ABLATION_USAGE, &ABLATION_FLAGS);
    let cfg = &options.config;
    let spec = StudySpec::default();
    let root = options.trace_out.as_ref().map(|_| {
        let ctx = TraceContext::new();
        ctx.set_label("ablation");
        ctx.root("ablation")
    });
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
    let link = root.as_ref().map(SpanHandle::link);
    for (name, result) in ablation::full_study_suite(&benches, cfg, &spec, link.as_ref()) {
        match result {
            Ok(tables) => {
                for t in &tables {
                    println!("{}", options.render(t));
                }
            }
            Err(e) => {
                eprintln!("ablation: {name} study set failed: {e}");
                failed += 1;
            }
        }
    }
    drop(root);
    // Written even on partial failure, so a degraded run's timing is
    // still inspectable.
    if let (Some(path), Some(link)) = (&options.trace_out, &link) {
        branchlab_bench::write_chrome_trace("ablation", path, &[Arc::new(link.trace().finish())]);
    }
    if failed > 0 {
        eprintln!("ablation: {failed} benchmarks failed");
        std::process::exit(branchlab_bench::EXIT_PARTIAL);
    }
}
