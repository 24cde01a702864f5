//! Parallel sweep fidelity: for every suite benchmark, the full
//! ablation study set must render byte-identical tables whether its
//! sweep points are scored on 1 thread (the serial path), 2 threads,
//! or more threads than the machine has cores.
//!
//! This is the executor's core guarantee — each sweep point consumes
//! the complete event stream in capture order regardless of which
//! worker scores it, so worker count and scheduling cannot perturb any
//! statistic.

use branchlab_experiments::ablation::{full_study, StudySpec};
use branchlab_experiments::ExperimentConfig;
use branchlab_workloads::{Scale, SUITE};

fn config(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: Scale::Test,
        sweep_threads: Some(threads),
        ..ExperimentConfig::default()
    }
}

/// Render a study set to one comparable byte string.
fn rendered(tables: &[branchlab_experiments::Table]) -> String {
    tables
        .iter()
        .map(branchlab_experiments::Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn tables_are_byte_identical_across_thread_counts() {
    let spec = StudySpec::default();
    // More workers than any realistic core count, to exercise the
    // worker cap and uneven chunking.
    let many = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(4)
        + 3;
    // One config (and so one registry) per parallel thread count.
    let parallel = [config(2), config(many)];
    for bench in SUITE {
        let serial = rendered(&full_study(bench, &config(1), &spec).unwrap());
        for cfg in &parallel {
            assert_eq!(
                rendered(&full_study(bench, cfg, &spec).unwrap()),
                serial,
                "{} diverged at sweep_threads={:?}",
                bench.name,
                cfg.sweep_threads
            );
        }
    }
    for cfg in &parallel {
        let count = |name| cfg.metrics.counter(name).get();
        let threads = cfg.resolved_sweep_threads() as u64;
        // One parallel pass per suite benchmark, each scoring every
        // planned point on the parallel path.
        let sweeps = SUITE.len() as u64;
        assert_eq!(count("suite.sweep.parallel.sweeps"), sweeps);
        assert_eq!(count("suite.sweep.lane.passes"), sweeps);
        assert_eq!(
            count("suite.sweep.parallel.points"),
            count("suite.sweep.lane.lanes") + count("suite.sweep.lane.scalar_points")
        );
        // Every benchmark plans the same points, so each pass queues
        // the RAS set, its lane families and its scalar points in
        // chunks of ceil(scalars / 3·threads).
        let families = count("suite.sweep.lane.families") / sweeps;
        let scalars = count("suite.sweep.lane.scalar_points") / sweeps;
        let chunk = scalars.div_ceil(threads * 3).max(1);
        let batches = 1 + families + scalars.div_ceil(chunk);
        assert_eq!(count("suite.sweep.parallel.batches"), sweeps * batches);
        assert_eq!(
            count("suite.sweep.parallel.workers"),
            sweeps * threads.min(batches)
        );
    }
}
