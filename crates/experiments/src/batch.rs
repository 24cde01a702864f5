//! Deferred sweep evaluation: studies enqueue their predictor and
//! return-address-stack configurations into a [`SweepBatch`], then
//! every configuration point is scored off the benchmark's captured
//! trace — the paper's own trace-driven shape (trace the program once,
//! score all schemes off the recording). A whole ablation study set
//! costs one capture plus one decode per work item.
//!
//! ## One executor
//!
//! Scoring is a walk over work items. An item holds any of a chunk of
//! scalar evaluators, packed lane families and the return-address
//! stacks; it decodes the shared, read-only [`TraceBuf`]s through its
//! own [`BlockIter`] and hands every block to each part it holds, so
//! every sweep point observes the complete event sequence in capture
//! order. Each item is recorded as a `score_shard` span over the
//! decoder's `block_replay` span.
//!
//! With one sweep worker resolved
//! ([`ExperimentConfig::resolved_sweep_threads`]) the whole batch is
//! one item, scored on the calling thread in a single decode. With
//! more, the stack set and each lane family become items of their own,
//! the scalar evaluators are chunked, and `std::thread::scope` workers
//! claim items from a shared queue (dynamic load balancing; the claims
//! beyond each worker's first are counted as `stolen_batches`). Results
//! merge back in plan order, so they are **bit-identical at every
//! worker count by construction**, independent of scheduling.
//!
//! ## Lane planning
//!
//! Before scoring, the batch consults every sweep point's
//! [`BranchPredictor::lane_spec`]: compatible fresh configurations
//! (same [`LaneFamilyKey`]) are packed — up to [`MAX_LANES`] at a
//! time — into bit-parallel [`LaneFamily`] work that scores all its
//! lanes in one walk of the event stream, while incompatible or
//! stateful points stay scalar. Families ride the same work queue as
//! scalar chunks (thread parallelism multiplies lane parallelism), and
//! results merge back by flattened plan index, so every table is
//! byte-identical to scoring each point on its own.
//!
//! [`TraceBuf`]: branchlab_trace::TraceBuf

use std::sync::Mutex;
use std::time::Instant;

use branchlab_predict::{
    BranchPredictor, Evaluator, LaneFamily, LaneFamilyKey, LaneSpec, PredStats, ReturnAddressStack,
    MAX_LANES,
};
use branchlab_telemetry::SpanLink;
use branchlab_trace::{BlockIter, CallRet, ExecHooks, TraceBuf};
use branchlab_workloads::Benchmark;

use crate::harness::{ExperimentConfig, ExperimentError};
use crate::trace_replay::{captured_runs, micros_since, note_replay};

/// The `suite.sweep.parallel.*` counters the parallel executor bumps in
/// [`ExperimentConfig::metrics`] on every parallel scoring pass, in
/// export order: passes run, workers spawned, sweep points and work
/// batches scored, batches claimed beyond each worker's first (the
/// dynamic load-balancing traffic), total worker busy time (summed
/// across concurrent workers, so it can exceed elapsed time) and the
/// plan-order merge time.
pub const SWEEP_COUNTERS: [&str; 7] = [
    "suite.sweep.parallel.sweeps",
    "suite.sweep.parallel.workers",
    "suite.sweep.parallel.points",
    "suite.sweep.parallel.batches",
    "suite.sweep.parallel.stolen_batches",
    "suite.sweep.parallel.busy_us",
    "suite.sweep.parallel.merge_us",
];

/// The `suite.sweep.lane.*` counters the lane planner bumps in
/// [`ExperimentConfig::metrics`] once per replay pass, in export
/// order: passes planned, lane families packed, sweep points scored
/// as lanes, points left on the scalar path, and branch events walked
/// by lane kernels (once per family, not once per lane — that
/// amortization *is* the speedup).
pub const LANE_COUNTERS: [&str; 5] = [
    "suite.sweep.lane.passes",
    "suite.sweep.lane.families",
    "suite.sweep.lane.lanes",
    "suite.sweep.lane.scalar_points",
    "suite.sweep.lane.events",
];

/// Handle to one enqueued predictor group (one study's sweep points);
/// redeem with [`SweepResults::stats`].
#[derive(Copy, Clone, Debug)]
pub struct PredTicket(usize);

/// Handle to one enqueued set of return-address stacks; redeem with
/// [`SweepResults::ras`].
#[derive(Copy, Clone, Debug)]
pub struct RasTicket {
    start: usize,
    len: usize,
}

/// A deferred evaluation over one benchmark's event stream.
///
/// Enqueue predictor groups and return-address stacks, then score
/// everything in one pass over the benchmark's captured trace:
///
/// ```
/// use branchlab_experiments::{ExperimentConfig, SweepBatch};
/// use branchlab_predict::{Cbtb, Sbtb};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bench = branchlab_workloads::benchmark("wc").unwrap();
/// let config = ExperimentConfig::test();
///
/// let mut batch = SweepBatch::new(bench, &config);
/// let btbs = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]);
/// let stacks = batch.ras(&[8]);
///
/// let results = batch.run()?;
/// let stats = results.stats(btbs);
/// assert_eq!(stats.len(), 2);
/// assert!(stats[0].accuracy() > 0.5);
/// assert!(results.ras(stacks)[0].returns > 0);
/// # Ok(())
/// # }
/// ```
pub struct SweepBatch<'a> {
    bench: &'a Benchmark,
    config: &'a ExperimentConfig,
    groups: Vec<Vec<Box<dyn BranchPredictor>>>,
    ras: Vec<ReturnAddressStack>,
    trace: Option<SpanLink>,
}

impl<'a> SweepBatch<'a> {
    /// An empty batch over `bench`'s conventional binary.
    #[must_use]
    pub fn new(bench: &'a Benchmark, config: &'a ExperimentConfig) -> Self {
        SweepBatch {
            bench,
            config,
            groups: Vec::new(),
            ras: Vec::new(),
            trace: None,
        }
    }

    /// Record this batch's phases as child spans under `parent` (see
    /// [`branchlab_telemetry::trace`]): `sweep_capture`, one
    /// `score_shard` per work item with its decoder's `block_replay`,
    /// and `sweep_merge`. Off by default, so offline sweeps pay
    /// nothing.
    pub fn set_trace_parent(&mut self, parent: SpanLink) {
        self.trace = Some(parent);
    }

    /// Enqueue one group of predictors (typically one study's sweep
    /// points), scored identically to [`eval_predictors_live`].
    ///
    /// [`eval_predictors_live`]: crate::harness::eval_predictors_live
    pub fn eval(&mut self, predictors: Vec<Box<dyn BranchPredictor>>) -> PredTicket {
        self.groups.push(predictors);
        PredTicket(self.groups.len() - 1)
    }

    /// Enqueue return-address stacks of the given depths (they consume
    /// the trace's call/return events).
    pub fn ras(&mut self, depths: &[usize]) -> RasTicket {
        let start = self.ras.len();
        self.ras
            .extend(depths.iter().map(|&d| ReturnAddressStack::new(d)));
        RasTicket {
            start,
            len: depths.len(),
        }
    }

    /// Score every enqueued evaluation off the benchmark's captured
    /// trace and hand back the results — in one work item on the
    /// calling thread, or sharded across sweep workers (see the module
    /// docs); the results are bit-identical either way.
    ///
    /// # Errors
    /// Returns [`ExperimentError`] on compile/lower/run/replay failure.
    pub fn run(self) -> Result<SweepResults, ExperimentError> {
        let trace = self.trace;
        let runs = {
            let mut span = trace.as_ref().map(|t| t.child("sweep_capture"));
            let runs = captured_runs(self.bench, self.config)?;
            if let Some(s) = span.as_mut() {
                s.add_work(runs.iter().map(TraceBuf::events).sum());
            }
            runs
        };
        let group_sizes: Vec<usize> = self.groups.iter().map(Vec::len).collect();
        let points: Vec<Box<dyn BranchPredictor>> = self.groups.into_iter().flatten().collect();
        let n_points = points.len();
        let (scalars, families) = plan_lanes(points);
        let metrics = &self.config.metrics;
        metrics.counter("suite.sweep.lane.passes").inc();
        metrics
            .counter("suite.sweep.lane.families")
            .add(families.len() as u64);
        metrics
            .counter("suite.sweep.lane.lanes")
            .add(families.iter().map(|f| f.indices.len() as u64).sum());
        metrics
            .counter("suite.sweep.lane.scalar_points")
            .add(scalars.len() as u64);
        // Every family walks the complete stream exactly once.
        metrics
            .counter("suite.sweep.lane.events")
            .add(families.len() as u64 * runs.iter().map(TraceBuf::events).sum::<u64>());
        let (scalar_idx, boxes): (Vec<usize>, Vec<Box<dyn BranchPredictor>>) =
            scalars.into_iter().unzip();
        let evals = boxes.into_iter().map(Evaluator::new).collect();
        let threads = self.config.resolved_sweep_threads();
        let mut items = plan_items(evals, families, self.ras, threads);
        let parallel = items.len() > 1;
        let done = if parallel {
            score_parallel(self.config, &runs, items, threads, trace.as_ref())?
        } else {
            let item = items.pop().unwrap_or_default();
            vec![score_item(self.config, &runs, item, trace.as_ref())?]
        };

        // Merge scalar and lane results back by flattened plan index,
        // so the regrouped tables are independent of how the planner
        // split the points and of which worker scored which item.
        let merge_started = Instant::now();
        let merge_span = trace.as_ref().map(|t| t.child("sweep_merge"));
        let mut out: Vec<Option<PredStats>> = vec![None; n_points];
        let mut ras = Vec::new();
        for item in done {
            for (pos, e) in item.evals.into_iter().enumerate() {
                out[scalar_idx[item.start + pos]] = Some(e.stats);
            }
            for work in item.families {
                for (i, s) in work.indices.into_iter().zip(work.family.finish()) {
                    out[i] = Some(s);
                }
            }
            // The stacks travel as one set, in one item.
            ras.extend(item.stacks);
        }
        let mut stats = out
            .into_iter()
            .map(|s| s.expect("every sweep point was scored"));
        let groups = group_sizes
            .into_iter()
            .map(|n| stats.by_ref().take(n).collect())
            .collect();
        drop(merge_span);
        if parallel {
            metrics
                .counter("suite.sweep.parallel.merge_us")
                .add(micros_since(merge_started));
        }
        Ok(SweepResults { groups, ras })
    }
}

/// Results of a [`SweepBatch`], indexed by the tickets it issued.
pub struct SweepResults {
    groups: Vec<Vec<PredStats>>,
    ras: Vec<ReturnAddressStack>,
}

impl SweepResults {
    /// The scored statistics for one enqueued predictor group, in
    /// enqueue order.
    #[must_use]
    pub fn stats(&self, ticket: PredTicket) -> &[PredStats] {
        &self.groups[ticket.0]
    }

    /// The driven return-address stacks for one enqueued depth set.
    #[must_use]
    pub fn ras(&self, ticket: RasTicket) -> &[ReturnAddressStack] {
        &self.ras[ticket.start..ticket.start + ticket.len]
    }
}

/// One packed lane family plus the flattened plan indices its lanes'
/// results merge back into ([`LaneFamily::finish`] returns stats in
/// lane order, which is exactly `indices` order by construction).
struct LaneFamilyWork {
    indices: Vec<usize>,
    family: LaneFamily,
}

/// Group compatible sweep points into lane families. Points whose
/// [`BranchPredictor::lane_spec`] is `None` (stateful or an unpackable
/// scheme), points with no [`LaneFamilyKey`], and
/// families that end up with a single member stay scalar — the
/// returned `(flattened index, predictor)` list. Bucketing is
/// first-fit in plan order and capped at [`MAX_LANES`] per family
/// (overflow opens another family), so the plan is deterministic.
#[allow(clippy::type_complexity)]
fn plan_lanes(
    points: Vec<Box<dyn BranchPredictor>>,
) -> (Vec<(usize, Box<dyn BranchPredictor>)>, Vec<LaneFamilyWork>) {
    struct Bucket {
        key: LaneFamilyKey,
        indices: Vec<usize>,
        specs: Vec<LaneSpec>,
        boxes: Vec<Box<dyn BranchPredictor>>,
    }
    let mut scalars: Vec<(usize, Box<dyn BranchPredictor>)> = Vec::new();
    let mut buckets: Vec<Bucket> = Vec::new();
    for (i, p) in points.into_iter().enumerate() {
        let keyed = p.lane_spec().and_then(|s| s.family_key().map(|k| (s, k)));
        match keyed {
            Some((spec, key)) => {
                match buckets
                    .iter_mut()
                    .find(|b| b.key == key && b.indices.len() < MAX_LANES)
                {
                    Some(b) => {
                        b.indices.push(i);
                        b.specs.push(spec);
                        b.boxes.push(p);
                    }
                    None => buckets.push(Bucket {
                        key,
                        indices: vec![i],
                        specs: vec![spec],
                        boxes: vec![p],
                    }),
                }
            }
            None => scalars.push((i, p)),
        }
    }
    let mut families = Vec::new();
    for b in buckets {
        if b.indices.len() >= 2 {
            families.push(LaneFamilyWork {
                indices: b.indices,
                family: LaneFamily::new(&b.specs),
            });
        } else {
            // A one-lane family has no amortization to offer; give the
            // point its predictor back.
            scalars.extend(b.indices.into_iter().zip(b.boxes));
        }
    }
    scalars.sort_by_key(|(i, _)| *i);
    (scalars, families)
}

/// The flattened scalar evaluator list the executor shards and
/// reassembles.
type BoxedEvals = Vec<Evaluator<Box<dyn BranchPredictor>>>;

/// One unit of sweep work: whatever part of the plan it holds is
/// scored in one walk of the shared trace through the item's own
/// [`BlockIter`], so items never contend on anything but the queue
/// lock. Branch events never interact with the call/return stream
/// (predictors consume only branches, stacks only calls and returns),
/// so splitting the plan across items cannot change any statistic.
#[derive(Default)]
struct WorkItem {
    /// Flattened scalar index of `evals[0]`, for plan-order reassembly.
    start: usize,
    /// A chunk of the scalar evaluator list.
    evals: BoxedEvals,
    /// Packed lane families — each scores all its lanes in one walk,
    /// so a family is never split.
    families: Vec<LaneFamilyWork>,
    /// The return-address stacks (never split either).
    stacks: Vec<ReturnAddressStack>,
}

impl WorkItem {
    /// Predictor sweep points this item scores (stacks aside).
    fn points(&self) -> usize {
        self.evals.len()
            + self
                .families
                .iter()
                .map(|f| f.family.lanes())
                .sum::<usize>()
    }
}

/// Partition a planned sweep into work items. With one worker the
/// whole plan is one item: one decode feeds everything. With more,
/// the stack set and each lane family are items of their own, and the
/// scalar evaluators are chunked to ~3 items per worker so a slow
/// chunk can be balanced out by the queue without paying a per-point
/// decode.
fn plan_items(
    evals: BoxedEvals,
    families: Vec<LaneFamilyWork>,
    stacks: Vec<ReturnAddressStack>,
    threads: usize,
) -> Vec<WorkItem> {
    if threads <= 1 {
        return vec![WorkItem {
            start: 0,
            evals,
            families,
            stacks,
        }];
    }
    let mut items = Vec::new();
    if !stacks.is_empty() {
        items.push(WorkItem {
            stacks,
            ..WorkItem::default()
        });
    }
    for work in families {
        items.push(WorkItem {
            families: vec![work],
            ..WorkItem::default()
        });
    }
    let chunk = evals.len().div_ceil(threads * 3).max(1);
    let mut rest = evals;
    let mut start = 0;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        items.push(WorkItem {
            start,
            evals: rest,
            ..WorkItem::default()
        });
        start += chunk;
        rest = tail;
    }
    items
}

/// Score one work item over the shared trace, recorded as a
/// `score_shard` span over the decoder's `block_replay`. Every item
/// consumes the complete event stream in capture order, so its
/// statistics are independent of which worker runs it and when. Each
/// evaluator takes a whole decoded block at a time with its tables
/// cache-hot; round-robining tens of predictors per event would
/// thrash L1.
fn score_item(
    config: &ExperimentConfig,
    runs: &[TraceBuf],
    mut item: WorkItem,
    trace: Option<&SpanLink>,
) -> Result<WorkItem, ExperimentError> {
    let started = Instant::now();
    let mut span = trace.map(|t| t.child("score_shard"));
    if let Some(s) = span.as_mut() {
        s.arg("points", (item.points() + item.stacks.len()) as u64);
    }
    let mut iter = BlockIter::new(runs);
    if let Some(s) = span.as_ref() {
        iter.set_trace_parent(&s.link());
    }
    while let Some(block) = iter
        .next_block()
        .map_err(|e| ExperimentError::Trace(e.to_string()))?
    {
        for e in &mut item.evals {
            e.branch_block(block.branches);
        }
        for work in &mut item.families {
            work.family.eval_block(block.branches);
        }
        for &cr in block.callrets {
            for r in &mut item.stacks {
                match cr {
                    CallRet::Call { from, callee } => r.call(from, callee),
                    CallRet::Ret { from, to } => r.ret(from, to),
                }
            }
        }
    }
    if let Some(s) = span.as_mut() {
        s.add_work(iter.delivered());
    }
    note_replay(config, iter.delivered(), started);
    Ok(item)
}

/// The parallel sweep executor: score `items` on `threads` scoped
/// workers claiming from a shared queue, and hand back the scored
/// items in completion order (they carry their own plan positions).
fn score_parallel(
    config: &ExperimentConfig,
    runs: &[TraceBuf],
    items: Vec<WorkItem>,
    threads: usize,
    trace: Option<&SpanLink>,
) -> Result<Vec<WorkItem>, ExperimentError> {
    let total_points: usize = items.iter().map(WorkItem::points).sum();
    let n_batches = items.len() as u64;
    let workers = threads.min(items.len()).max(1);

    let queue = Mutex::new(items);
    let done: Mutex<Vec<WorkItem>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<ExperimentError>> = Mutex::new(None);
    let metrics = &config.metrics;

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let started = Instant::now();
                let mut claims = 0u64;
                loop {
                    if first_error.lock().is_ok_and(|e| e.is_some()) {
                        break;
                    }
                    let item = queue.lock().ok().and_then(|mut q| q.pop());
                    let Some(item) = item else { break };
                    claims += 1;
                    match score_item(config, runs, item, trace) {
                        Ok(result) => {
                            if let Ok(mut d) = done.lock() {
                                d.push(result);
                            }
                        }
                        Err(e) => {
                            if let Ok(mut slot) = first_error.lock() {
                                slot.get_or_insert(e);
                            }
                            break;
                        }
                    }
                }
                metrics
                    .counter("suite.sweep.parallel.stolen_batches")
                    .add(claims.saturating_sub(1));
                metrics
                    .counter("suite.sweep.parallel.busy_us")
                    .add(micros_since(started));
            });
        }
    });

    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        return Err(e);
    }
    metrics.counter("suite.sweep.parallel.sweeps").inc();
    metrics
        .counter("suite.sweep.parallel.workers")
        .add(workers as u64);
    metrics
        .counter("suite.sweep.parallel.points")
        .add(total_points as u64);
    metrics
        .counter("suite.sweep.parallel.batches")
        .add(n_batches);
    Ok(done
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{eval_predictors, eval_predictors_live};
    use branchlab_predict::{AlwaysTaken, Cbtb, Sbtb};
    use branchlab_workloads::benchmark;

    #[test]
    fn batched_stats_match_individual_eval_calls() {
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig::test();
        let mut batch = SweepBatch::new(bench, &cfg);
        let a = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(AlwaysTaken)]);
        let b = batch.eval(vec![Box::new(Cbtb::paper())]);
        let r = batch.ras(&[4, 64]);
        let results = batch.run().unwrap();

        let solo_a = eval_predictors(
            bench,
            &cfg,
            vec![Box::new(Sbtb::paper()), Box::new(AlwaysTaken)],
        )
        .unwrap();
        let solo_b = eval_predictors(bench, &cfg, vec![Box::new(Cbtb::paper())]).unwrap();
        assert_eq!(results.stats(a), solo_a.as_slice());
        assert_eq!(results.stats(b), solo_b.as_slice());
        let ras = results.ras(r);
        assert_eq!(ras.len(), 2);
        assert!(ras[0].returns > 0);
        assert!(ras[1].accuracy() >= ras[0].accuracy());
    }

    #[test]
    fn parallel_replay_is_bit_identical_to_serial() {
        let bench = benchmark("grep").unwrap();
        fn plan<'a>(
            bench: &'a Benchmark,
            cfg: &'a ExperimentConfig,
        ) -> (SweepBatch<'a>, PredTicket, PredTicket, RasTicket) {
            let mut batch = SweepBatch::new(bench, cfg);
            let a = batch.eval(vec![
                Box::new(Sbtb::paper()) as Box<dyn BranchPredictor>,
                Box::new(Cbtb::paper()),
                Box::new(AlwaysTaken),
            ]);
            let b = batch.eval(vec![Box::new(Cbtb::paper()) as Box<dyn BranchPredictor>]);
            let r = batch.ras(&[4, 64]);
            (batch, a, b, r)
        }
        let serial_cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, sa, sb, sr) = plan(bench, &serial_cfg);
        let serial = batch.run().unwrap();
        for threads in [2, 3, 7] {
            let cfg = ExperimentConfig {
                sweep_threads: Some(threads),
                ..ExperimentConfig::test()
            };
            let (batch, pa, pb, pr) = plan(bench, &cfg);
            let parallel = batch.run().unwrap();
            assert_eq!(parallel.stats(pa), serial.stats(sa), "threads={threads}");
            assert_eq!(parallel.stats(pb), serial.stats(sb), "threads={threads}");
            let (ser, par) = (serial.ras(sr), parallel.ras(pr));
            assert_eq!(par.len(), ser.len());
            for (p, s) in par.iter().zip(ser) {
                assert_eq!((p.returns, p.correct), (s.returns, s.correct));
            }
            // The plan is fixed: the two Cbtbs pack into one lane
            // family, and the Sbtb and AlwaysTaken stay scalar in
            // one-point chunks, so the queue holds the RAS set, the
            // family and two scalar chunks.
            let count = |name| cfg.metrics.counter(name).get();
            assert_eq!(count("suite.sweep.parallel.sweeps"), 1, "threads={threads}");
            assert_eq!(count("suite.sweep.parallel.points"), 4, "threads={threads}");
            assert_eq!(
                count("suite.sweep.parallel.batches"),
                4,
                "threads={threads}"
            );
            assert_eq!(
                count("suite.sweep.parallel.workers"),
                threads.min(4) as u64,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn traced_batch_records_phase_and_shard_spans() {
        use branchlab_telemetry::TraceContext;
        let bench = benchmark("wc").unwrap();

        // Parallel path: capture + one span per scoring shard + merge,
        // with the decode loop annotated from the trace crate.
        let cfg = ExperimentConfig {
            sweep_threads: Some(2),
            ..ExperimentConfig::test()
        };
        let ctx = TraceContext::new();
        let root = ctx.root("compute");
        let mut batch = SweepBatch::new(bench, &cfg);
        batch.set_trace_parent(root.link());
        let _ = batch.eval(vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]);
        let _ = batch.ras(&[8]);
        batch.run().unwrap();
        let root_id = root.id();
        drop(root);
        let trace = ctx.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in [
            "sweep_capture",
            "score_shard",
            "sweep_merge",
            "block_replay",
        ] {
            assert!(names.contains(&phase), "missing {phase} in {names:?}");
        }
        let shards: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "score_shard")
            .collect();
        assert!(shards.len() >= 2, "expected ≥2 shards, got {shards:?}");
        assert!(shards.iter().all(|s| s.parent == Some(root_id)));
        assert!(shards.iter().all(|s| s.work > 0), "shards carry event work");
        let points: u64 = shards.iter().filter_map(|s| s.arg_value("points")).sum();
        assert_eq!(points, 3, "2 predictors + 1 RAS across shards");
    }

    #[test]
    fn one_worker_sweep_decodes_the_trace_once() {
        use branchlab_predict::Gshare;
        use branchlab_telemetry::TraceContext;
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let ctx = TraceContext::new();
        let root = ctx.root("compute");
        let mut batch = SweepBatch::new(bench, &cfg);
        batch.set_trace_parent(root.link());
        // Scalar points, a lane family (the two gshares) and stacks.
        let _ = batch.eval(vec![
            Box::new(Sbtb::paper()) as Box<dyn BranchPredictor>,
            Box::new(AlwaysTaken),
            Box::new(Gshare::new(12, 8)),
            Box::new(Gshare::new(10, 4)),
        ]);
        let _ = batch.ras(&[4, 64]);
        batch.run().unwrap();
        drop(root);
        let trace = ctx.finish();

        let count = |name| cfg.metrics.counter(name).get();
        let events: u64 = captured_runs(bench, &cfg)
            .unwrap()
            .iter()
            .map(TraceBuf::events)
            .sum();
        assert_eq!(count("suite.sweep.lane.families"), 1);
        assert_eq!(count("suite.trace.replays"), 1);
        assert_eq!(count("suite.trace.events_replayed"), events);
        assert_eq!(count("suite.sweep.parallel.sweeps"), 0);
        // The parallel path's span shape, with a single shard.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in ["sweep_capture", "sweep_merge"] {
            assert!(names.contains(&phase), "missing {phase} in {names:?}");
        }
        let shards: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "score_shard")
            .collect();
        assert_eq!(shards.len(), 1, "{:?}", trace.spans);
        assert_eq!(shards[0].arg_value("points"), Some(6));
        let decodes: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "block_replay")
            .collect();
        assert_eq!(decodes.len(), 1, "{:?}", trace.spans);
        assert_eq!(decodes[0].parent, Some(shards[0].id));
        assert_eq!(decodes[0].work, events);
    }

    /// A lane-heavy plan: a CBTB counter family, a gshare pair, a
    /// local pair, plus deliberately unpackable points (an Sbtb, a
    /// counter too wide for the planes).
    fn lane_plan<'a>(
        bench: &'a Benchmark,
        cfg: &'a ExperimentConfig,
    ) -> (SweepBatch<'a>, PredTicket, PredTicket) {
        use branchlab_predict::{CbtbConfig, Gshare, LocalHistory};
        let mut batch = SweepBatch::new(bench, cfg);
        let a = batch.eval(vec![
            Box::new(Cbtb::new(CbtbConfig {
                threshold: 1,
                ..CbtbConfig::paper()
            })) as Box<dyn BranchPredictor>,
            Box::new(Sbtb::paper()),
            Box::new(Cbtb::paper()),
            Box::new(Cbtb::new(CbtbConfig {
                counter_bits: 3,
                threshold: 4,
                ..CbtbConfig::paper()
            })),
            Box::new(Cbtb::new(CbtbConfig {
                counter_bits: 7,
                threshold: 64,
                ..CbtbConfig::paper()
            })),
        ]);
        let b = batch.eval(vec![
            Box::new(Gshare::new(12, 8)) as Box<dyn BranchPredictor>,
            Box::new(LocalHistory::new(12, 6)),
            Box::new(Gshare::new(10, 4)),
            Box::new(LocalHistory::new(10, 2)),
        ]);
        (batch, a, b)
    }

    #[test]
    fn lane_scoring_is_bit_identical_to_scalar() {
        // The scalar reference: each group scored event by event by
        // live interpretation. (The every-benchmark × thread-count
        // cross product runs in tests/replay_fidelity.rs.)
        let bench = benchmark("wc").unwrap();
        let cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, la, lb) = lane_plan(bench, &cfg);
        let laned = batch.run().unwrap();
        let scalar_cfg = ExperimentConfig::test();
        let (batch, _, _) = lane_plan(bench, &scalar_cfg);
        for (ticket, group) in [la, lb].into_iter().zip(batch.groups) {
            let scalar = eval_predictors_live(bench, &scalar_cfg, group).unwrap();
            assert_eq!(laned.stats(ticket), scalar.as_slice());
        }
        let count = |name| cfg.metrics.counter(name).get();
        let events: u64 = captured_runs(bench, &cfg)
            .unwrap()
            .iter()
            .map(TraceBuf::events)
            .sum();
        assert_eq!(count("suite.sweep.lane.passes"), 1);
        // One CBTB family (3 paper-geometry lanes), one gshare pair,
        // one local pair; the Sbtb and the 7-bit counter stay scalar.
        assert_eq!(count("suite.sweep.lane.families"), 3);
        assert_eq!(count("suite.sweep.lane.lanes"), 7);
        assert_eq!(count("suite.sweep.lane.scalar_points"), 2);
        assert_eq!(count("suite.sweep.lane.events"), 3 * events);
    }

    #[test]
    fn lane_planner_returns_singletons_to_the_scalar_path() {
        use branchlab_predict::Gshare;
        // One point per family key: nothing to amortize anywhere, so
        // every predictor must come back on the scalar path in order.
        let points: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(Cbtb::paper()),
            Box::new(Gshare::default()),
            Box::new(Sbtb::paper()),
        ];
        let (scalars, families) = plan_lanes(points);
        assert!(families.is_empty());
        let idx: Vec<usize> = scalars.iter().map(|(i, _)| *i).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn lane_planner_packs_compatible_points_and_overflows_at_cap() {
        use branchlab_predict::CbtbConfig;
        // 35 compatible paper-geometry variants (threshold cycled) plus
        // one incompatible geometry: 32 lanes + a 3-lane overflow
        // family + 1 singleton back to scalar.
        let mut points: Vec<Box<dyn BranchPredictor>> = (0..35)
            .map(|i| {
                Box::new(Cbtb::new(CbtbConfig {
                    threshold: 1 + (i % 3),
                    ..CbtbConfig::paper()
                })) as Box<dyn BranchPredictor>
            })
            .collect();
        points.push(Box::new(Cbtb::new(CbtbConfig {
            entries: 64,
            ways: 4,
            ..CbtbConfig::paper()
        })));
        let (scalars, families) = plan_lanes(points);
        assert_eq!(families.len(), 2);
        assert_eq!(families[0].indices.len(), MAX_LANES);
        assert_eq!(families[1].indices.len(), 3);
        assert_eq!(scalars.len(), 1);
        assert_eq!(scalars[0].0, 35);
    }

    #[test]
    fn live_batch_matches_replayed_batch() {
        let bench = benchmark("cmp").unwrap();
        let build = || -> Vec<Box<dyn BranchPredictor>> {
            vec![Box::new(Sbtb::paper()), Box::new(Cbtb::paper())]
        };
        let replay_cfg = ExperimentConfig::test();
        let mut batch = SweepBatch::new(bench, &replay_cfg);
        let t = batch.eval(build());
        let replayed = batch.run().unwrap();

        let live_cfg = ExperimentConfig::test();
        let live = eval_predictors_live(bench, &live_cfg, build()).unwrap();
        assert_eq!(replayed.stats(t), live.as_slice());
        assert_eq!(live_cfg.metrics.counter("suite.trace.replays").get(), 0);
    }
}
