//! Replay-fidelity acceptance tests: trace replay must be
//! *bit-identical* to live interpretation — same `PredStats` for every
//! predictor, same `BranchMix` — for every benchmark (the 1989 suite
//! plus the generated large-footprint synthetics); lane-packed scoring
//! must be bit-identical to the scalar path for every benchmark at
//! every thread count; capture itself must be deterministic in the
//! seed; and a corrupt or stale on-disk cache entry must degrade to a
//! clean re-capture, never to wrong numbers.

use std::collections::BTreeSet;

use branchlab_experiments::trace_replay::{captured_runs, clear_cache, replay_runs};
use branchlab_experiments::{eval_predictors, eval_predictors_live, ExperimentConfig, SweepBatch};
use branchlab_interp::{run, ExecConfig};
use branchlab_ir::lower;
use branchlab_predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig,
    Gshare, LikelyBit, LocalHistory, Sbtb,
};
use branchlab_trace::{hash_bytes, BranchEvent, BranchMix, ExecHooks, TraceBuf};
use branchlab_workloads::{all_benchmarks, benchmark};

/// The fidelity predictor set: both hardware schemes plus the static
/// baselines (buffer-less predictors exercise the direction/target
/// fields of every replayed event).
fn preds() -> Vec<Box<dyn BranchPredictor>> {
    vec![
        Box::new(Sbtb::paper()),
        Box::new(Cbtb::paper()),
        Box::new(AlwaysTaken),
        Box::new(AlwaysNotTaken),
        Box::new(BackwardTakenForwardNot),
        Box::new(LikelyBit),
    ]
}

fn exec_config(cfg: &ExperimentConfig) -> ExecConfig {
    ExecConfig {
        max_insts: cfg.max_insts_per_run,
        memory_words: cfg.memory_words,
        max_call_depth: cfg.max_call_depth,
    }
}

#[test]
fn replayed_pred_stats_are_bit_identical_to_live_for_every_benchmark() {
    let cfg = ExperimentConfig::test();
    for bench in all_benchmarks() {
        let live = eval_predictors_live(bench, &cfg, preds())
            .unwrap_or_else(|e| panic!("{}: live evaluation failed: {e}", bench.name));
        let replayed = eval_predictors(bench, &cfg, preds())
            .unwrap_or_else(|e| panic!("{}: replay evaluation failed: {e}", bench.name));
        assert_eq!(
            live, replayed,
            "{}: replayed PredStats differ from live interpretation",
            bench.name
        );
    }
}

/// A lane-eligible mixed sweep: a CBTB counter family across two
/// widths, a second CBTB geometry pair, gshare/local geometry pairs,
/// and scalar-only points interleaved between them.
fn lane_sweep() -> Vec<Box<dyn BranchPredictor>> {
    let mut points: Vec<Box<dyn BranchPredictor>> = vec![Box::new(Sbtb::paper())];
    for bits in [2u8, 3] {
        for threshold in 1..(1u8 << bits) {
            points.push(Box::new(Cbtb::new(CbtbConfig {
                counter_bits: bits,
                threshold,
                ..CbtbConfig::paper()
            })));
        }
    }
    points.push(Box::new(AlwaysTaken));
    for ways in [1usize, 4] {
        points.push(Box::new(Cbtb::new(CbtbConfig {
            entries: 64,
            ways,
            ..CbtbConfig::paper()
        })));
    }
    points.push(Box::new(Gshare::new(12, 8)));
    points.push(Box::new(Gshare::new(10, 4)));
    points.push(Box::new(LocalHistory::new(12, 6)));
    points.push(Box::new(LocalHistory::new(10, 2)));
    points
}

#[test]
fn lane_scoring_is_bit_identical_to_scalar_for_every_benchmark() {
    // Every lane-planned config below derives from `laned_base`, so
    // they all count into its registry.
    let laned_base = ExperimentConfig::test();
    let mut passes = 0u64;
    let mut events = 0u64;
    for bench in all_benchmarks() {
        let scalar_cfg = ExperimentConfig {
            use_lane_scoring: false,
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let mut batch = SweepBatch::new(bench, &scalar_cfg);
        let st = batch.eval(lane_sweep());
        let scalar = batch
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));

        // Lane planning on, across serial and parallel executors: the
        // family items ride the same work queue as scalar chunks.
        for threads in [1usize, 3] {
            let cfg = ExperimentConfig {
                sweep_threads: Some(threads),
                ..laned_base.clone()
            };
            let mut batch = SweepBatch::new(bench, &cfg);
            let lt = batch.eval(lane_sweep());
            let laned = batch
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(
                laned.stats(lt),
                scalar.stats(st),
                "{}: lane-scored PredStats differ from scalar (threads={threads})",
                bench.name
            );
            passes += 1;
        }
        let runs = captured_runs(bench, &laned_base).expect("capture");
        events += runs.iter().map(TraceBuf::events).sum::<u64>();
    }
    let count = |name| laned_base.metrics.counter(name).get();
    // Per pass: the paper-geometry counter family (10 lanes), the
    // 64-entry pair is split by geometry (ways 1 vs 4 → scalar), one
    // gshare pair, one local pair.
    assert_eq!(count("suite.sweep.lane.passes"), passes);
    assert_eq!(count("suite.sweep.lane.families"), 3 * passes);
    assert_eq!(count("suite.sweep.lane.lanes"), 14 * passes);
    assert_eq!(count("suite.sweep.lane.scalar_points"), 4 * passes);
    // Each benchmark is laned twice (1 and 3 threads), 3 families each.
    assert_eq!(count("suite.sweep.lane.events"), 2 * 3 * events);
}

#[test]
fn replayed_branch_mix_is_bit_identical_to_live_for_every_benchmark() {
    let cfg = ExperimentConfig::test();
    for bench in all_benchmarks() {
        let module = bench.compile().expect("compile");
        let program = lower(&module).expect("lower");
        let exec = exec_config(&cfg);
        let mut live = BranchMix::new();
        for streams in bench.runs(cfg.scale, cfg.seed) {
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            run(&program, &exec, &refs, &mut live)
                .unwrap_or_else(|e| panic!("{}: live run failed: {e}", bench.name));
        }

        let runs = captured_runs(bench, &cfg).expect("capture");
        let mut replayed = BranchMix::new();
        replay_runs(&runs, &mut replayed).expect("replay");
        assert_eq!(
            live, replayed,
            "{}: replayed BranchMix differs from live interpretation",
            bench.name
        );
    }
}

/// Distinct static branch sites exercised across a set of traces.
#[derive(Default)]
struct SiteSet(BTreeSet<branchlab_ir::Addr>);

impl ExecHooks for SiteSet {
    fn branch(&mut self, ev: &BranchEvent) {
        self.0.insert(ev.pc);
    }
}

fn exercised_sites(
    bench: &branchlab_workloads::Benchmark,
    cfg: &ExperimentConfig,
) -> BTreeSet<branchlab_ir::Addr> {
    let runs = captured_runs(bench, cfg).expect("capture");
    let mut sites = SiteSet::default();
    replay_runs(&runs, &mut sites).expect("replay");
    sites.0
}

/// The generated workloads are deterministic end to end: capturing the
/// same benchmark twice under the same seed — with the in-memory trace
/// cache dropped in between — yields byte-identical trace buffers
/// (`TraceBuf` equality compares the site tables and word streams).
#[test]
fn synthetic_capture_is_byte_identical_across_runs() {
    let cfg = ExperimentConfig::test();
    for name in ["dispatch", "router"] {
        let bench = benchmark(name).expect("synthetic benchmark");
        clear_cache();
        let first = captured_runs(bench, &cfg).expect("first capture");
        clear_cache();
        let second = captured_runs(bench, &cfg).expect("second capture");
        assert_eq!(
            *first, *second,
            "{name}: re-captured trace bytes differ under the same seed"
        );
    }
}

/// Different input seeds exercise different branch-site populations:
/// the request generators draw a fresh active/hot set per seed, so the
/// dynamic footprint — not just the event order — must change.
#[test]
fn synthetic_seeds_select_different_site_populations() {
    for name in ["dispatch", "router"] {
        let bench = benchmark(name).expect("synthetic benchmark");
        clear_cache();
        let base = exercised_sites(bench, &ExperimentConfig::test());
        clear_cache();
        let other = exercised_sites(
            bench,
            &ExperimentConfig {
                seed: 42,
                ..ExperimentConfig::test()
            },
        );
        assert!(!base.is_empty() && !other.is_empty());
        assert_ne!(
            base, other,
            "{name}: seeds 1989 and 42 exercised identical site populations"
        );
        clear_cache();
    }
}

#[test]
fn corrupt_and_stale_disk_cache_entries_degrade_to_recapture() {
    let dir =
        std::env::temp_dir().join(format!("branchlab-replay-fidelity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let bench = benchmark("wc").expect("wc in suite");
    // A private seed gives this test a trace key no concurrent test
    // captures, so only its own steps fill or read the memory cache.
    // Each step gets a fresh config, and so a fresh registry, so its
    // counts are that step's alone.
    let cfg = || ExperimentConfig {
        seed: 0xD15C,
        trace_cache_dir: Some(dir.clone()),
        ..ExperimentConfig::test()
    };
    let counts = |cfg: &ExperimentConfig| {
        let count = |name| cfg.metrics.counter(name).get();
        (
            count("suite.trace.disk_hits"),
            count("suite.trace.disk_invalid"),
            count("suite.trace.captures"),
        )
    };

    // First evaluation captures live and populates the disk cache.
    clear_cache();
    let step = cfg();
    let reference = eval_predictors(bench, &step, preds()).expect("populate cache");
    assert_eq!(
        counts(&step),
        (0, 0, 1),
        "(disk_hits, disk_invalid, captures)"
    );
    let cached: Vec<_> = std::fs::read_dir(&dir)
        .expect("read cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    assert!(!cached.is_empty(), "capture left no on-disk trace");

    // A warm disk cache loads cleanly after the in-memory cache drops.
    clear_cache();
    let step = cfg();
    let warm = eval_predictors(bench, &step, preds()).expect("disk cache load");
    assert_eq!(warm, reference);
    assert_eq!(counts(&step), (1, 0, 0), "expected a disk-cache hit");

    // Corrupt every cached file (flip payload bytes → checksum fails):
    // the engine must fall back to re-capture and still be identical.
    for path in &cached {
        std::fs::write(path, b"not a trace file").expect("corrupt cache file");
    }
    clear_cache();
    let step = cfg();
    let after_corrupt = eval_predictors(bench, &step, preds()).expect("recapture after corruption");
    assert_eq!(after_corrupt, reference);
    assert_eq!(counts(&step), (0, 1, 1), "corrupt entry not re-captured");

    // Stale entry: valid container written under a *different* key
    // (digest mismatch) — here simulated by truncating to a plausible
    // but checksum-less prefix. Also must degrade to re-capture.
    for path in &cached {
        let bytes = std::fs::read(path).expect("read corrupted file");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate cache file");
    }
    clear_cache();
    let step = cfg();
    let after_stale = eval_predictors(bench, &step, preds()).expect("recapture after staleness");
    assert_eq!(after_stale, reference);
    assert_eq!(counts(&step), (0, 1, 1), "stale entry not re-captured");

    // An entry in the old varint layout (`BLTRACE1`), intact and written
    // for the right key, is an invalid entry too: no second decoder.
    for path in &cached {
        let current = std::fs::read(path).expect("read re-captured file");
        let mut old = b"BLTRACE1".to_vec();
        old.extend_from_slice(&current[8..16]); // the key digest
        old.extend_from_slice(&1u32.to_le_bytes()); // one run …
        old.extend_from_slice(&1u64.to_le_bytes()); // … of one event:
        old.extend_from_slice(&3u64.to_le_bytes());
        old.extend_from_slice(&[3, 2, 0]); // varint call(Addr(1), FuncId(0))
        old.extend_from_slice(&hash_bytes(&old).to_le_bytes());
        std::fs::write(path, &old).expect("write BLTRACE1 entry");
    }
    clear_cache();
    let step = cfg();
    let after_old = eval_predictors(bench, &step, preds()).expect("recapture after BLTRACE1");
    assert_eq!(after_old, reference);
    assert_eq!(counts(&step), (0, 1, 1), "BLTRACE1 entry not rejected");

    std::fs::remove_dir_all(&dir).ok();
}
