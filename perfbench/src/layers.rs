//! The layer probe of a traced run: calls each crate's public entry
//! points on the workload's own benchmarks, scale and seed, inside a
//! span named after the layer, and derives the per-layer metrics from
//! those spans.

use std::collections::BTreeMap;

use branchlab::experiments::ablation::{full_study, StudySpec};
use branchlab::experiments::{run_benchmark, ExperimentConfig};
use branchlab::fsem::{code_expansion, fs_program, FsConfig};
use branchlab::interp::{run, ExecConfig};
use branchlab::ir::lower;
use branchlab::pipeline::FdipSim;
use branchlab::predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig,
    ContextSwitched, Evaluator, Gshare, LaneFamily, LaneSpec, LikelyBit, LocalHistory, MlBtb,
    MlBtbConfig, OpcodeBias, PredStats, Sbtb,
};
use branchlab::profile::profile_module_with;
use branchlab::telemetry::{RequestTrace, SpanLink};
use branchlab::trace::{BlockIter, BranchEvent, BranchMix, Capture, ExecHooks, TraceBuf};
use branchlab::workloads::Benchmark;

use crate::harness::{add_work, child, suite_cbtb, Ctx};

/// Interpreted instructions after which the probe stops taking further
/// benchmarks (it always takes the first).
const INST_BUDGET: u64 = 10_000_000;

/// Branch events kept decoded in memory for the scoring probes.
const EVENT_CAP: usize = 2_000_000;

/// Configurations in the lane probe's CBTB family.
const LANES: usize = 32;

/// The paper harness's live sinks over the conventional binary.
struct NaturalSinks {
    mix: BranchMix,
    sbtb: Evaluator<Sbtb>,
    cbtb: Evaluator<Cbtb>,
    at: Evaluator<AlwaysTaken>,
    ant: Evaluator<AlwaysNotTaken>,
    btfn: Evaluator<BackwardTakenForwardNot>,
}

impl ExecHooks for NaturalSinks {
    fn branch(&mut self, ev: &BranchEvent) {
        self.mix.branch(ev);
        self.sbtb.branch(ev);
        self.cbtb.branch(ev);
        self.at.branch(ev);
        self.ant.branch(ev);
        self.btfn.branch(ev);
    }
}

fn exec_config(cfg: &ExperimentConfig) -> ExecConfig {
    ExecConfig {
        max_insts: cfg.max_insts_per_run,
        memory_words: cfg.memory_words,
        max_call_depth: cfg.max_call_depth,
    }
}

/// Score `predictor` over pre-decoded blocks inside span `name`.
fn score<P: BranchPredictor>(
    parent: Option<&SpanLink>,
    name: &str,
    blocks: &[Vec<BranchEvent>],
    predictor: P,
) -> PredStats {
    let events: usize = blocks.iter().map(Vec::len).sum();
    let mut span = child(parent, name);
    add_work(&mut span, events as u64);
    let mut eval = Evaluator::new(predictor);
    for b in blocks {
        eval.branch_block(b);
    }
    std::hint::black_box(eval.stats)
}

/// The lane probe's family: `LANES` paper-geometry CBTB configurations
/// differing in counter width, threshold and comparison.
fn lane_configs() -> Vec<CbtbConfig> {
    let mut out = Vec::new();
    for bits in 1..=4u8 {
        for threshold in 1..(1u8 << bits) {
            for strict_greater in [false, true] {
                out.push(CbtbConfig {
                    counter_bits: bits,
                    threshold,
                    strict_greater,
                    ..CbtbConfig::paper()
                });
            }
        }
    }
    out.truncate(LANES);
    out
}

/// Run the probe, recording spans under the run's root. Returns the
/// probed benchmark with the fewest branch events (the cheapest one to
/// sweep).
///
/// Inputs are generated for every benchmark; the interpreter, trace,
/// profile and fsem probes take benchmarks smallest input first until
/// [`INST_BUDGET`] instructions have run (always at least one).
///
/// # Errors
/// A description of a pipeline failure or of lanes disagreeing with
/// scalar scoring.
pub fn probe(
    ctx: &Ctx,
    benches: &[&'static Benchmark],
    cfg: &ExperimentConfig,
) -> Result<&'static Benchmark, String> {
    let link = ctx.link();
    let top = child(link.as_ref(), "layers");
    let top_link = top.as_ref().map(|s| s.link());
    let parent = top_link.as_ref();
    let exec = exec_config(cfg);
    let err = |b: &Benchmark, e: &dyn std::fmt::Display| format!("{}: {e}", b.name);

    let mut insts_done = 0u64;
    let mut bufs: Vec<TraceBuf> = Vec::new();
    let mut cheapest: Option<(&'static Benchmark, u64)> = None;
    // Inputs for every benchmark; the probes below then take the
    // benchmarks smallest input first until the instruction budget.
    let mut inputs: Vec<(&'static Benchmark, Vec<Vec<Vec<u8>>>)> = benches
        .iter()
        .map(|b| {
            let _s = child(parent, "workloads.inputs");
            (*b, b.runs(cfg.scale, cfg.seed))
        })
        .collect();
    inputs.sort_by_key(|(b, runs)| (runs.iter().flatten().map(Vec::len).sum::<usize>(), b.name));
    for (i, (bench, runs)) in inputs.iter().enumerate() {
        if i > 0 && insts_done >= INST_BUDGET {
            break;
        }
        let refs: Vec<Vec<&[u8]>> = runs
            .iter()
            .map(|r| r.iter().map(Vec::as_slice).collect())
            .collect();
        let module = {
            let _s = child(parent, "minic.compile");
            bench.compile().map_err(|e| err(bench, &e))?
        };
        let natural = {
            let _s = child(parent, "ir.lower");
            lower(&module).map_err(|e| err(bench, &e))?
        };
        let mut insts = 0u64;
        {
            let mut s = child(parent, "interp.run");
            for r in &refs {
                insts += run(&natural, &exec, r, &mut ())
                    .map_err(|e| err(bench, &e))?
                    .stats
                    .insts;
            }
            add_work(&mut s, insts);
        }
        {
            let mut s = child(parent, "interp.live_eval");
            add_work(&mut s, insts);
            let mut sinks = NaturalSinks {
                mix: BranchMix::new(),
                sbtb: Evaluator::new(Sbtb::paper()),
                cbtb: Evaluator::new(suite_cbtb(cfg)),
                at: Evaluator::new(AlwaysTaken),
                ant: Evaluator::new(AlwaysNotTaken),
                btfn: Evaluator::new(BackwardTakenForwardNot),
            };
            for r in &refs {
                sinks.sbtb.predictor.flush();
                sinks.cbtb.predictor.flush();
                run(&natural, &exec, r, &mut sinks).map_err(|e| err(bench, &e))?;
            }
            std::hint::black_box(&sinks.mix);
        }
        {
            let mut s = child(parent, "trace.capture");
            let mut events = 0;
            let mut bytes = 0;
            for r in &refs {
                let mut cap = Capture::new();
                run(&natural, &exec, r, &mut cap).map_err(|e| err(bench, &e))?;
                let buf = cap.into_buf();
                events += buf.events();
                bytes += buf.byte_len() as u64;
                bufs.push(buf);
            }
            add_work(&mut s, events);
            if let Some(s) = s.as_mut() {
                s.arg("bytes", bytes);
            }
            if cheapest.is_none_or(|(_, e)| events < e) {
                cheapest = Some((*bench, events));
            }
        }
        let profile = {
            let mut s = child(parent, "profile.profile_module");
            add_work(&mut s, insts);
            profile_module_with(&module, runs, &exec).map_err(|e| err(bench, &e))?
        };
        {
            let _s = child(parent, "fsem.fs_build");
            fs_program(&module, &profile, FsConfig::with_slots(cfg.fs_slots))
                .map_err(|e| err(bench, &e))?;
        }
        {
            let _s = child(parent, "fsem.expansion");
            code_expansion(&module, &profile, &[1, 2, 4, 8]).map_err(|e| err(bench, &e))?;
        }
        insts_done += insts;
    }

    // Decode: drain every captured buffer, then keep a bounded copy of
    // the branch events for the scoring probes.
    {
        let mut s = child(parent, "trace.decode");
        let mut it = BlockIter::new(&bufs);
        while let Some(b) = it.next_block().map_err(|e| e.to_string())? {
            std::hint::black_box(b.len());
        }
        add_work(&mut s, it.delivered());
    }
    let mut blocks: Vec<Vec<BranchEvent>> = Vec::new();
    let mut kept = 0;
    let mut it = BlockIter::new(&bufs);
    while let Some(b) = it.next_block().map_err(|e| e.to_string())? {
        if kept >= EVENT_CAP {
            break;
        }
        kept += b.branches.len();
        blocks.push(b.branches.to_vec());
    }
    drop(bufs);

    score(parent, "predict.sbtb", &blocks, Sbtb::paper());
    score(parent, "predict.cbtb", &blocks, Cbtb::paper());
    score(
        parent,
        "predict.mlbtb",
        &blocks,
        MlBtb::new(MlBtbConfig::server()),
    );
    score(parent, "predict.gshare", &blocks, Gshare::default());
    score(parent, "predict.local", &blocks, LocalHistory::default());
    score(parent, "predict.statics", &blocks, AlwaysTaken);
    score(parent, "predict.statics", &blocks, AlwaysNotTaken);
    score(parent, "predict.statics", &blocks, BackwardTakenForwardNot);
    score(parent, "predict.statics", &blocks, OpcodeBias::heuristic());
    score(parent, "predict.likely", &blocks, LikelyBit);
    score(
        parent,
        "predict.ctxswitch",
        &blocks,
        ContextSwitched::new(Cbtb::paper(), 1000),
    );

    // Lanes against the same configurations scored one by one.
    let configs = lane_configs();
    let lane_events = (kept * configs.len()) as u64;
    let lanes = {
        let mut s = child(parent, "predict.lanes");
        add_work(&mut s, lane_events);
        let specs: Vec<LaneSpec> = configs.iter().map(|c| LaneSpec::Cbtb(*c)).collect();
        let mut family = LaneFamily::new(&specs);
        for b in &blocks {
            family.eval_block(b);
        }
        family.finish()
    };
    let scalar = {
        let mut s = child(parent, "predict.lanes.scalar");
        add_work(&mut s, lane_events);
        let mut evals: Vec<_> = configs
            .iter()
            .map(|c| Evaluator::new(Cbtb::new(*c)))
            .collect();
        for b in &blocks {
            for e in &mut evals {
                e.branch_block(b);
            }
        }
        evals.into_iter().map(|e| e.stats).collect::<Vec<_>>()
    };
    if lanes != scalar {
        return Err("lane-family stats differ from scalar scoring".to_string());
    }

    {
        let mut s = child(parent, "pipeline.fdip");
        add_work(&mut s, kept as u64);
        let mut sim = FdipSim::new(Cbtb::paper());
        for b in &blocks {
            for ev in b {
                sim.branch(ev);
            }
        }
        std::hint::black_box(sim.counts.events());
    }

    for bench in benches {
        let mut s = child(parent, "experiments.run_benchmark");
        let r = run_benchmark(bench, cfg).map_err(|e| err(bench, &e))?;
        add_work(&mut s, r.stats.insts);
    }
    Ok(cheapest.expect("at least one benchmark probed").0)
}

/// `full_study` on `bench` at one sweep thread and at `ctx.nproc`;
/// returns `serial ÷ (nproc × parallel)` wall time.
///
/// # Errors
/// A pipeline error, or tables that differ between thread counts.
pub fn sweep_efficiency(
    ctx: &Ctx,
    bench: &'static Benchmark,
    cfg: &ExperimentConfig,
) -> Result<f64, String> {
    let link = ctx.link();
    let spec = StudySpec::default();
    let mut walls = Vec::new();
    let mut tables = Vec::new();
    for (name, threads) in [
        ("experiments.full_study.serial", 1),
        ("experiments.full_study.parallel", ctx.nproc),
    ] {
        let cfg = ExperimentConfig {
            sweep_threads: Some(threads),
            ..cfg.clone()
        };
        let _s = child(link.as_ref(), name);
        let (t, r) = crate::harness::time(|| full_study(bench, &cfg, &spec));
        let r = r.map_err(|e| format!("{}: {e}", bench.name))?;
        tables.push(r.iter().map(|t| t.to_text()).collect::<String>());
        walls.push(t);
    }
    if tables[0] != tables[1] {
        return Err(format!(
            "{}: full_study tables differ by thread count",
            bench.name
        ));
    }
    Ok(walls[0] / (ctx.nproc as f64 * walls[1]))
}

/// Total duration (µs), work and count of the spans named `name`.
fn totals(trace: &RequestTrace, name: &str) -> (f64, f64, usize) {
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0, 0), |(d, w, n), s| {
            (d + s.dur_us as f64, w + s.work as f64, n + 1)
        })
}

/// Per-layer metrics derived from the recorded spans.
#[must_use]
pub fn metrics(trace: &RequestTrace) -> BTreeMap<&'static str, f64> {
    let ms_each = |name| {
        let (d, _, n) = totals(trace, name);
        d / 1e3 / n as f64
    };
    let ns_per_work = |name| {
        let (d, w, _) = totals(trace, name);
        d * 1e3 / w
    };
    let mut m = BTreeMap::new();
    m.insert("workloads.inputs_ms", ms_each("workloads.inputs"));
    m.insert("minic.compile_ms", ms_each("minic.compile"));
    m.insert("ir.lower_ms", ms_each("ir.lower"));
    m.insert("profile.ns_per_inst", ns_per_work("profile.profile_module"));
    m.insert("interp.ns_per_inst", ns_per_work("interp.run"));
    m.insert(
        "interp.live_eval_ns_per_inst",
        ns_per_work("interp.live_eval"),
    );
    m.insert("fsem.fs_build_ms", ms_each("fsem.fs_build"));
    m.insert("fsem.expansion_ms", ms_each("fsem.expansion"));
    m.insert(
        "experiments.suite.critical_bench_s",
        trace
            .spans
            .iter()
            .filter(|s| s.name == "experiments.run_benchmark")
            .map(|s| s.dur_us as f64 / 1e6)
            .fold(f64::NAN, f64::max),
    );
    m.insert("trace.capture_ns_per_event", ns_per_work("trace.capture"));
    let (_, events, _) = totals(trace, "trace.capture");
    let bytes: f64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "trace.capture")
        .filter_map(|s| s.arg_value("bytes"))
        .map(|b| b as f64)
        .sum();
    m.insert("trace.bytes_per_event", bytes / events);
    m.insert("trace.decode_ns_per_event", ns_per_work("trace.decode"));
    for (metric, span) in [
        ("predict.sbtb.ns_per_event", "predict.sbtb"),
        ("predict.cbtb.ns_per_event", "predict.cbtb"),
        ("predict.mlbtb.ns_per_event", "predict.mlbtb"),
        ("predict.gshare.ns_per_event", "predict.gshare"),
        ("predict.local.ns_per_event", "predict.local"),
        ("predict.statics.ns_per_event", "predict.statics"),
        ("predict.likely.ns_per_event", "predict.likely"),
        ("predict.ctxswitch.ns_per_event", "predict.ctxswitch"),
        ("predict.lanes.ns_per_event_lane", "predict.lanes"),
        ("pipeline.fdip.ns_per_event", "pipeline.fdip"),
    ] {
        m.insert(metric, ns_per_work(span));
    }
    m.insert(
        "predict.lanes.speedup_vs_scalar",
        totals(trace, "predict.lanes.scalar").0 / totals(trace, "predict.lanes").0,
    );
    m.insert(
        "experiments.sweep.points",
        crate::ablation::study_points(&StudySpec::default()) as f64,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_family_has_distinct_packable_configs() {
        let configs = lane_configs();
        assert_eq!(configs.len(), LANES);
        for (i, a) in configs.iter().enumerate() {
            assert!(LaneSpec::Cbtb(*a).family_key().is_some());
            assert!(configs[i + 1..].iter().all(|b| b != a));
        }
    }
}
