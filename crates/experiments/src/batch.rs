//! Deferred sweep evaluation: studies enqueue their predictor and
//! return-address-stack configurations into a [`SweepBatch`], then one
//! pass over the benchmark's event stream scores every configuration
//! point at once — the paper's own trace-driven shape (trace the
//! program once, score all schemes off the recording).
//!
//! With [`ExperimentConfig::use_trace_replay`] set, the pass replays
//! the cached trace, so a whole ablation study set costs one capture
//! plus one decode per benchmark. With it off, each enqueued group
//! keeps its own live interpreter pass: the reference path that tests
//! hold replay to.
//!
//! ## Parallel scoring
//!
//! With more than one sweep thread resolved
//! ([`ExperimentConfig::resolved_sweep_threads`]), the replay pass
//! shards its sweep points across `std::thread::scope` workers. The
//! captured [`TraceBuf`]s are shared read-only; each work batch (a
//! chunk of predictors, or the return-address-stack set) re-decodes
//! the stream through its own [`BlockIter`], so every sweep point
//! still observes the complete event sequence in capture order — which
//! makes the merged results **bit-identical to the serial path by
//! construction**, independent of worker count and scheduling. Workers
//! claim batches from a shared queue (dynamic load balancing; the
//! claims beyond each worker's first are counted as
//! `stolen_batches`), and results are merged back in plan order.
//!
//! ## Lane planning
//!
//! Before scoring, the replay pass consults every sweep point's
//! [`BranchPredictor::lane_spec`]: compatible fresh configurations
//! (same [`LaneFamilyKey`]) are packed — up to [`MAX_LANES`] at a
//! time — into bit-parallel [`LaneFamily`] work items that score all
//! their lanes in one walk of the event stream, while incompatible or
//! stateful points keep today's scalar path. Families ride the same
//! work queue as scalar chunks (thread parallelism multiplies lane
//! parallelism), and results merge back by flattened plan index, so
//! every table is byte-identical to the scalar path at any thread
//! count. [`ExperimentConfig::use_lane_scoring`] (on by default)
//! gates the planner for baseline measurements.
//!
//! [`TraceBuf`]: branchlab_trace::TraceBuf

use std::sync::Mutex;
use std::time::Instant;

use branchlab_interp::run;
use branchlab_ir::{lower, Addr, FuncId};
use branchlab_predict::{
    BranchPredictor, Evaluator, LaneFamily, LaneFamilyKey, LaneSpec, PredStats, ReturnAddressStack,
    MAX_LANES,
};
use branchlab_telemetry::SpanLink;
use branchlab_trace::{BlockIter, BranchEvent, CallRet, ExecHooks, TraceBuf};
use branchlab_workloads::Benchmark;

use crate::harness::{eval_predictors_live, ExperimentConfig, ExperimentError};
use crate::trace_replay::{captured_runs, micros_since, note_replay, replay_runs_traced};

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

    /// Record this batch's capture/score/merge phases — and each
    /// parallel scoring shard — as child spans under `parent` (see
    /// [`branchlab_telemetry::trace`]). Off by default, so offline
    /// sweeps pay nothing.
    pub fn set_trace_parent(&mut self, parent: SpanLink) {
        self.trace = Some(parent);
    }

    /// The benchmark this batch evaluates.
    #[must_use]
    pub fn bench(&self) -> &'a Benchmark {
        self.bench
    }

    /// The configuration this batch evaluates under.
    #[must_use]
    pub fn config(&self) -> &'a ExperimentConfig {
        self.config
    }

    /// Enqueue one group of predictors (typically one study's sweep
    /// points), scored identically to [`eval_predictors`].
    ///
    /// [`eval_predictors`]: crate::harness::eval_predictors
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

    /// Execute every enqueued evaluation and hand back the results.
    ///
    /// # Errors
    /// Returns [`ExperimentError`] on compile/lower/run/replay failure.
    pub fn run(self) -> Result<SweepResults, ExperimentError> {
        if self.config.use_trace_replay {
            self.run_replay()
        } else {
            self.run_live()
        }
    }

    /// One replay pass feeds every evaluator, lane family, and stack
    /// at once — on one thread, or sharded across sweep workers (see
    /// the module docs); the results are bit-identical either way.
    fn run_replay(self) -> Result<SweepResults, ExperimentError> {
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
        let metrics = &self.config.metrics;
        let (scalars, mut families) = if self.config.use_lane_scoring {
            let (scalars, families) = plan_lanes(points);
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
            (scalars, families)
        } else {
            (points.into_iter().enumerate().collect(), Vec::new())
        };
        let (scalar_idx, boxes): (Vec<usize>, Vec<Box<dyn BranchPredictor>>) =
            scalars.into_iter().unzip();
        let mut evals: BoxedEvals = boxes.into_iter().map(Evaluator::new).collect();
        let mut ras = self.ras;
        let threads = self.config.resolved_sweep_threads();
        let work_items = evals.len() + families.len() + usize::from(!ras.is_empty());
        if threads > 1 && work_items > 1 {
            (evals, families, ras) = score_parallel(
                self.config,
                &runs,
                evals,
                families,
                ras,
                threads,
                trace.as_ref(),
            )?;
        } else {
            let mut span = trace.as_ref().map(|t| t.child("sweep_score"));
            if let Some(s) = span.as_mut() {
                s.arg("points", (n_points + ras.len()) as u64);
                s.add_work(runs.iter().map(TraceBuf::events).sum());
            }
            let mut sink = BatchSink {
                evals: &mut evals,
                families: &mut families,
                ras: &mut ras,
                block: Vec::with_capacity(EVENT_BLOCK),
            };
            let link = span.as_ref().map(branchlab_telemetry::SpanHandle::link);
            let started = Instant::now();
            let events = replay_runs_traced(&runs, &mut sink, link.as_ref())?;
            sink.drain_block();
            note_replay(self.config, events, started);
        }
        // Merge scalar and lane results back by flattened plan index,
        // so the regrouped tables are independent of how the planner
        // split the points.
        let mut out: Vec<Option<PredStats>> = vec![None; n_points];
        for (pos, e) in evals.into_iter().enumerate() {
            out[scalar_idx[pos]] = Some(e.stats);
        }
        for work in families {
            let indices = work.indices;
            for (i, s) in indices.into_iter().zip(work.family.finish()) {
                out[i] = Some(s);
            }
        }
        let mut stats = out
            .into_iter()
            .map(|s| s.expect("every sweep point was scored"));
        let groups = group_sizes
            .into_iter()
            .map(|n| stats.by_ref().take(n).collect())
            .collect();
        Ok(SweepResults { groups, ras })
    }

    /// The live reference path: one interpreter pass per group.
    fn run_live(self) -> Result<SweepResults, ExperimentError> {
        let mut groups = Vec::with_capacity(self.groups.len());
        for preds in self.groups {
            groups.push(eval_predictors_live(self.bench, self.config, preds)?);
        }
        let mut ras = self.ras;
        if !ras.is_empty() {
            let module = self.bench.compile()?;
            let program = lower(&module)?;
            let exec_cfg = self.config.exec_config();
            for r in &mut ras {
                for streams in self.bench.runs(self.config.scale, self.config.seed) {
                    let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
                    run(&program, &exec_cfg, &refs, r)?;
                }
            }
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
/// [`BranchPredictor::lane_spec`] is `None` (stateful, instrumented,
/// or an unpackable scheme), points with no [`LaneFamilyKey`], and
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

/// Branch events buffered per fan-out block. Each evaluator consumes a
/// long run of events with its tables cache-hot — round-robining tens
/// of predictors per event thrashes L1 and costs several times the
/// per-event work of a dedicated live pass.
const EVENT_BLOCK: usize = 16 * 1024;

/// Fans one event stream out to every enqueued sink, block-wise for
/// the branch evaluators.
///
/// Blocking is invisible to the results: each evaluator still sees the
/// exact event sequence in order, and branch events never interact with
/// the call/return stream (predictors consume only `branch`, stacks
/// only `call`/`ret`), so delivering them on different schedules cannot
/// change any statistic.
struct BatchSink<'a> {
    evals: &'a mut [Evaluator<Box<dyn BranchPredictor>>],
    families: &'a mut [LaneFamilyWork],
    ras: &'a mut [ReturnAddressStack],
    block: Vec<BranchEvent>,
}

impl BatchSink<'_> {
    fn drain_block(&mut self) {
        for e in self.evals.iter_mut() {
            e.branch_block(&self.block);
        }
        for f in self.families.iter_mut() {
            f.family.eval_block(&self.block);
        }
        self.block.clear();
    }
}

impl ExecHooks for BatchSink<'_> {
    fn branch(&mut self, ev: &BranchEvent) {
        self.block.push(*ev);
        if self.block.len() == EVENT_BLOCK {
            self.drain_block();
        }
    }

    fn call(&mut self, from: Addr, callee: FuncId) {
        for r in self.ras.iter_mut() {
            r.call(from, callee);
        }
    }

    fn ret(&mut self, from: Addr, to: Addr) {
        for r in self.ras.iter_mut() {
            r.ret(from, to);
        }
    }
}

/// The flattened evaluator list the executor shards and reassembles.
type BoxedEvals = Vec<Evaluator<Box<dyn BranchPredictor>>>;

/// One unit of parallel sweep work. Each item owns its sinks and
/// re-decodes the shared trace through its own [`BlockIter`], so items
/// never contend on anything but the queue lock.
enum WorkItem {
    /// A chunk of the scalar evaluator list, with the index of its
    /// first evaluator for plan-order reassembly.
    Preds { start: usize, evals: BoxedEvals },
    /// One packed lane family — all its lanes score in a single walk
    /// of the stream, so it travels as one indivisible item.
    Lanes { work: LaneFamilyWork },
    /// The full return-address-stack set (stacks consume only the
    /// call/return half of the stream, so they travel as one item).
    Ras { stacks: Vec<ReturnAddressStack> },
}

/// What a worker hands back after scoring an item.
enum DoneItem {
    Preds { start: usize, evals: BoxedEvals },
    Lanes { work: LaneFamilyWork },
    Ras { stacks: Vec<ReturnAddressStack> },
}

/// Score one work item over the shared trace. Every item consumes the
/// complete event stream in capture order, so its statistics are
/// independent of which worker runs it and when.
fn score_item(
    config: &ExperimentConfig,
    runs: &[TraceBuf],
    item: WorkItem,
    trace: Option<&SpanLink>,
) -> Result<DoneItem, ExperimentError> {
    let started = Instant::now();
    let points = match &item {
        WorkItem::Preds { evals, .. } => evals.len(),
        WorkItem::Lanes { work } => work.family.lanes(),
        WorkItem::Ras { stacks } => stacks.len(),
    };
    let mut span = trace.map(|t| t.child("score_shard"));
    if let Some(s) = span.as_mut() {
        s.arg("points", points as u64);
    }
    let mut iter = BlockIter::with_block_events(runs, EVENT_BLOCK);
    if let Some(s) = span.as_ref() {
        iter.set_trace_parent(&s.link());
    }
    let done = match item {
        WorkItem::Preds { start, mut evals } => {
            while let Some(block) = iter
                .next_block()
                .map_err(|e| ExperimentError::Trace(e.to_string()))?
            {
                for e in &mut evals {
                    e.branch_block(block.branches);
                }
            }
            DoneItem::Preds { start, evals }
        }
        WorkItem::Lanes { mut work } => {
            while let Some(block) = iter
                .next_block()
                .map_err(|e| ExperimentError::Trace(e.to_string()))?
            {
                work.family.eval_block(block.branches);
            }
            DoneItem::Lanes { work }
        }
        WorkItem::Ras { mut stacks } => {
            while let Some(block) = iter
                .next_block()
                .map_err(|e| ExperimentError::Trace(e.to_string()))?
            {
                for &cr in block.callrets {
                    for r in &mut stacks {
                        match cr {
                            CallRet::Call { from, callee } => r.call(from, callee),
                            CallRet::Ret { from, to } => r.ret(from, to),
                        }
                    }
                }
            }
            DoneItem::Ras { stacks }
        }
    };
    if let Some(s) = span.as_mut() {
        s.add_work(iter.delivered());
    }
    note_replay(config, iter.delivered(), started);
    Ok(done)
}

/// The parallel sweep executor: shard the scalar evaluators (plus the
/// lane families and the RAS set) into work items, score them on
/// `threads` scoped workers claiming from a shared queue, and merge
/// the results back into the original order.
///
/// Chunking targets ~3 batches per worker so a slow chunk can be
/// balanced out by the queue, without paying a per-point decode.
/// Lane families are already event-walk-sized items and are sharded
/// as-is — thread parallelism multiplies lane parallelism.
#[allow(clippy::type_complexity)]
fn score_parallel(
    config: &ExperimentConfig,
    runs: &[TraceBuf],
    evals: BoxedEvals,
    families: Vec<LaneFamilyWork>,
    ras: Vec<ReturnAddressStack>,
    threads: usize,
    trace: Option<&SpanLink>,
) -> Result<(BoxedEvals, Vec<LaneFamilyWork>, Vec<ReturnAddressStack>), ExperimentError> {
    let n_scalar = evals.len();
    let total_points = n_scalar + families.iter().map(|f| f.indices.len()).sum::<usize>();
    let chunk = n_scalar.div_ceil(threads * 3).max(1);
    let mut queue: Vec<WorkItem> = Vec::new();
    if !ras.is_empty() {
        queue.push(WorkItem::Ras { stacks: ras });
    }
    for work in families {
        queue.push(WorkItem::Lanes { work });
    }
    let mut rest = evals;
    let mut start = 0;
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        queue.push(WorkItem::Preds { start, evals: rest });
        start += chunk;
        rest = tail;
    }
    let n_batches = queue.len() as u64;
    let workers = threads.min(queue.len()).max(1);

    let queue = Mutex::new(queue);
    let done: Mutex<Vec<DoneItem>> = Mutex::new(Vec::new());
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

    let merge_started = Instant::now();
    let _merge_span = trace.map(|t| t.child("sweep_merge"));
    let done = done
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut out_evals: Vec<Option<Evaluator<Box<dyn BranchPredictor>>>> = Vec::new();
    out_evals.resize_with(n_scalar, || None);
    let mut out_families = Vec::new();
    let mut out_ras = Vec::new();
    for item in done {
        match item {
            DoneItem::Preds { start, evals } => {
                for (i, e) in evals.into_iter().enumerate() {
                    out_evals[start + i] = Some(e);
                }
            }
            // Families carry their own flattened plan indices, so
            // completion order is irrelevant to the merged tables.
            DoneItem::Lanes { work } => out_families.push(work),
            DoneItem::Ras { stacks } => out_ras = stacks,
        }
    }
    let out_evals: Vec<_> = out_evals
        .into_iter()
        .map(|e| e.expect("every scored work item was merged"))
        .collect();

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
    metrics
        .counter("suite.sweep.parallel.merge_us")
        .add(micros_since(merge_started));
    Ok((out_evals, out_families, out_ras))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::eval_predictors;
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

        // Serial path: one sweep_score span with per-run replay spans
        // recorded by the trace crate underneath it.
        let cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let ctx = TraceContext::new();
        let root = ctx.root("compute");
        let mut batch = SweepBatch::new(bench, &cfg);
        batch.set_trace_parent(root.link());
        let _ = batch.eval(vec![Box::new(Sbtb::paper())]);
        batch.run().unwrap();
        drop(root);
        let trace = ctx.finish();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"sweep_score"), "{names:?}");
        assert!(names.contains(&"replay_run"), "{names:?}");
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
        let bench = benchmark("wc").unwrap();
        let scalar_cfg = ExperimentConfig {
            use_lane_scoring: false,
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, sa, sb) = lane_plan(bench, &scalar_cfg);
        let scalar = batch.run().unwrap();
        // Serial path here (the parallel × lanes cross product runs in
        // tests/replay_fidelity.rs).
        let cfg = ExperimentConfig {
            sweep_threads: Some(1),
            ..ExperimentConfig::test()
        };
        let (batch, la, lb) = lane_plan(bench, &cfg);
        let laned = batch.run().unwrap();
        assert_eq!(laned.stats(la), scalar.stats(sa));
        assert_eq!(laned.stats(lb), scalar.stats(sb));
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

        let live_cfg = ExperimentConfig {
            use_trace_replay: false,
            ..ExperimentConfig::test()
        };
        let mut batch = SweepBatch::new(bench, &live_cfg);
        let lt = batch.eval(build());
        let live = batch.run().unwrap();
        assert_eq!(live.stats(lt), replayed.stats(t));
    }
}
