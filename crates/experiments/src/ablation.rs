//! Ablation studies beyond the paper's tables: buffer geometry sweeps,
//! counter parameter sweeps, context-switch sensitivity, and the static
//! baselines from the related-work section.
//!
//! Every study is split into a *plan* (build its predictors, to be
//! enqueued into a [`SweepBatch`]) and a *render* (format its rows from
//! the scored statistics), so [`full_study`] can score the whole study
//! set off a single pass over the benchmark's captured trace. The
//! per-study entry points ([`sweep_btb_size`] & co.) remain and simply
//! run a single-study batch. Studies that need the benchmark's profile
//! take it from [`cached_profile`], derived once from the same trace.

use branchlab_fsem::delayed::fill_rates;
use branchlab_ir::Module;
use branchlab_predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig,
    ContextSwitched, ForwardSemantic, Gshare, LocalHistory, OpcodeBias, PredStats,
    ReturnAddressStack, Sbtb, SbtbConfig,
};
use branchlab_profile::Profile;
use branchlab_telemetry::SpanLink;
use branchlab_workloads::Benchmark;

use crate::batch::SweepBatch;
use crate::harness::{ExperimentConfig, ExperimentError};
use crate::render::{pct, rho, Table};
use crate::trace_replay::cached_profile;

/// Sweep SBTB and CBTB total size (fully associative) on one benchmark.
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn sweep_btb_size(
    bench: &Benchmark,
    config: &ExperimentConfig,
    sizes: &[usize],
) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_btb_size(sizes));
    let results = batch.run()?;
    Ok(render_btb_size(bench, sizes, results.stats(ticket)))
}

fn plan_btb_size(sizes: &[usize]) -> Vec<Box<dyn BranchPredictor>> {
    let mut preds: Vec<Box<dyn BranchPredictor>> = Vec::new();
    for &s in sizes {
        preds.push(Box::new(Sbtb::new(SbtbConfig {
            entries: s,
            ways: s,
        })));
        preds.push(Box::new(Cbtb::new(CbtbConfig {
            entries: s,
            ways: s,
            ..CbtbConfig::paper()
        })));
    }
    preds
}

fn render_btb_size(bench: &Benchmark, sizes: &[usize], stats: &[PredStats]) -> Table {
    let mut t = Table::new(
        format!("BTB size sweep ({}, fully associative)", bench.name),
        &["Entries", "rho_SBTB", "A_SBTB", "rho_CBTB", "A_CBTB"],
    );
    for (i, &s) in sizes.iter().enumerate() {
        let sb = &stats[2 * i];
        let cb = &stats[2 * i + 1];
        t.row(vec![
            s.to_string(),
            rho(sb.miss_ratio()),
            pct(sb.accuracy()),
            rho(cb.miss_ratio()),
            pct(cb.accuracy()),
        ]);
    }
    t
}

/// Sweep associativity at fixed capacity (the paper notes full
/// associativity may be infeasible at 256 entries — this quantifies the
/// cost of realistic set-associative designs).
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn sweep_associativity(
    bench: &Benchmark,
    config: &ExperimentConfig,
    entries: usize,
    ways_list: &[usize],
) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_associativity(entries, ways_list));
    let results = batch.run()?;
    Ok(render_associativity(
        bench,
        entries,
        ways_list,
        results.stats(ticket),
    ))
}

fn plan_associativity(entries: usize, ways_list: &[usize]) -> Vec<Box<dyn BranchPredictor>> {
    ways_list
        .iter()
        .map(|&w| {
            Box::new(Cbtb::new(CbtbConfig {
                entries,
                ways: w,
                ..CbtbConfig::paper()
            })) as Box<dyn BranchPredictor>
        })
        .collect()
}

fn render_associativity(
    bench: &Benchmark,
    entries: usize,
    ways_list: &[usize],
    stats: &[PredStats],
) -> Table {
    let mut t = Table::new(
        format!(
            "CBTB associativity sweep ({}, {entries} entries)",
            bench.name
        ),
        &["Ways", "rho_CBTB", "A_CBTB"],
    );
    for (i, &w) in ways_list.iter().enumerate() {
        t.row(vec![
            w.to_string(),
            rho(stats[i].miss_ratio()),
            pct(stats[i].accuracy()),
        ]);
    }
    t
}

/// Sweep counter width and threshold of the CBTB (J. E. Smith observed
/// that wider counters add "inertia" and can *lose* accuracy).
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn sweep_counters(
    bench: &Benchmark,
    config: &ExperimentConfig,
    variants: &[(u8, u8)],
) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_counters(variants));
    let results = batch.run()?;
    Ok(render_counters(bench, variants, results.stats(ticket)))
}

fn plan_counters(variants: &[(u8, u8)]) -> Vec<Box<dyn BranchPredictor>> {
    variants
        .iter()
        .map(|&(bits, threshold)| {
            Box::new(Cbtb::new(CbtbConfig {
                counter_bits: bits,
                threshold,
                ..CbtbConfig::paper()
            })) as Box<dyn BranchPredictor>
        })
        .collect()
}

fn render_counters(bench: &Benchmark, variants: &[(u8, u8)], stats: &[PredStats]) -> Table {
    let mut t = Table::new(
        format!("CBTB counter sweep ({})", bench.name),
        &["Bits", "Threshold", "A_CBTB"],
    );
    for (i, &(bits, thr)) in variants.iter().enumerate() {
        t.row(vec![
            bits.to_string(),
            thr.to_string(),
            pct(stats[i].accuracy()),
        ]);
    }
    t
}

/// Context-switch sensitivity (§3/§4 discussion): flush the hardware
/// buffers every `interval` branches and watch their accuracy fall while
/// the Forward Semantic stays put.
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn context_switch_study(
    bench: &Benchmark,
    config: &ExperimentConfig,
    intervals: &[u64],
) -> Result<Table, ExperimentError> {
    let profile = cached_profile(bench, config)?;
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_context_switch(intervals, &profile));
    let results = batch.run()?;
    Ok(render_context_switch(
        bench,
        intervals,
        results.stats(ticket),
    ))
}

fn plan_context_switch(intervals: &[u64], profile: &Profile) -> Vec<Box<dyn BranchPredictor>> {
    let mut preds: Vec<Box<dyn BranchPredictor>> = Vec::new();
    for &iv in intervals {
        preds.push(Box::new(ContextSwitched::new(Sbtb::paper(), iv)));
        preds.push(Box::new(ContextSwitched::new(Cbtb::paper(), iv)));
        preds.push(Box::new(ContextSwitched::new(
            ForwardSemantic::from_profile(&profile.sites),
            iv,
        )));
    }
    preds
}

fn render_context_switch(bench: &Benchmark, intervals: &[u64], stats: &[PredStats]) -> Table {
    let mut t = Table::new(
        format!("Context-switch sensitivity ({})", bench.name),
        &["Flush interval", "A_SBTB", "A_CBTB", "A_FS"],
    );
    for (i, &iv) in intervals.iter().enumerate() {
        t.row(vec![
            iv.to_string(),
            pct(stats[3 * i].accuracy()),
            pct(stats[3 * i + 1].accuracy()),
            pct(stats[3 * i + 2].accuracy()),
        ]);
    }
    t
}

/// The related-work static baselines on one benchmark: always-taken
/// (the paper cites ≈63–77%), always-not-taken, BTFN (≈76.5% in
/// J. E. Smith's study), and opcode-bias (66.2–86.7% in the surveys).
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn static_baselines(
    bench: &Benchmark,
    config: &ExperimentConfig,
) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_static_baselines());
    let results = batch.run()?;
    Ok(render_static_baselines(bench, results.stats(ticket)))
}

fn plan_static_baselines() -> Vec<Box<dyn BranchPredictor>> {
    vec![
        Box::new(AlwaysTaken),
        Box::new(AlwaysNotTaken),
        Box::new(BackwardTakenForwardNot),
        Box::new(OpcodeBias::heuristic()),
    ]
}

fn render_static_baselines(bench: &Benchmark, stats: &[PredStats]) -> Table {
    let mut t = Table::new(
        format!(
            "Static baselines ({}) — conditional-branch accuracy",
            bench.name
        ),
        &["Scheme", "A (cond)", "A (all)"],
    );
    for (name, s) in ["always-taken", "always-not-taken", "btfn", "opcode-bias"]
        .iter()
        .zip(stats)
    {
        t.row(vec![
            (*name).to_string(),
            pct(s.cond_accuracy()),
            pct(s.accuracy()),
        ]);
    }
    t
}

/// Validate the model's return-handling assumption: a small
/// return-address stack predicts returns near-perfectly, which is why
/// returns are excluded from branch statistics (DESIGN.md).
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn ras_study(
    bench: &Benchmark,
    config: &ExperimentConfig,
    depths: &[usize],
) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.ras(depths);
    let results = batch.run()?;
    Ok(render_ras(bench, depths, results.ras(ticket)))
}

fn render_ras(bench: &Benchmark, depths: &[usize], stacks: &[ReturnAddressStack]) -> Table {
    let mut t = Table::new(
        format!("Return-address stack ({})", bench.name),
        &["Depth", "Returns", "Accuracy", "Overflows"],
    );
    for (&d, ras) in depths.iter().zip(stacks) {
        t.row(vec![
            d.to_string(),
            ras.returns.to_string(),
            pct(ras.accuracy()),
            ras.overflows.to_string(),
        ]);
    }
    t
}

/// Delayed-branch slot filling (McFarling & Hennessy's measurement,
/// reproduced): how often slots 1..=N after a conditional branch can be
/// filled *from above*. On this compare-and-branch IR the rates come
/// out far below their ≈70%/≈25% — the case for target-path filling
/// that the Forward Semantic generalizes.
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn delay_slot_study(
    bench: &Benchmark,
    config: &ExperimentConfig,
    max_slots: usize,
) -> Result<Table, ExperimentError> {
    let module = bench.compile()?;
    let profile = cached_profile(bench, config)?;
    Ok(render_delay_slots(bench, &module, &profile, max_slots))
}

fn render_delay_slots(
    bench: &Benchmark,
    module: &Module,
    profile: &Profile,
    max_slots: usize,
) -> Table {
    let r = fill_rates(module, profile, max_slots);
    let mut t = Table::new(
        format!("Delayed-branch from-above slot filling ({})", bench.name),
        &["Slot", "Static fill", "Dynamic fill"],
    );
    for slot in 1..=max_slots {
        t.row(vec![
            slot.to_string(),
            pct(r.static_rate(slot)),
            pct(r.dynamic_rate(slot)),
        ]);
    }
    t
}

/// Post-1989 headroom: two-level adaptive predictors (the "future work"
/// the paper closes on) against the paper's best schemes.
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn beyond_1989(bench: &Benchmark, config: &ExperimentConfig) -> Result<Table, ExperimentError> {
    let mut batch = SweepBatch::new(bench, config);
    let ticket = batch.eval(plan_beyond_1989());
    let results = batch.run()?;
    Ok(render_beyond_1989(bench, results.stats(ticket)))
}

fn plan_beyond_1989() -> Vec<Box<dyn BranchPredictor>> {
    vec![
        Box::new(Cbtb::paper()),
        Box::new(Gshare::default()),
        Box::new(LocalHistory::default()),
    ]
}

fn render_beyond_1989(bench: &Benchmark, stats: &[PredStats]) -> Table {
    let mut t = Table::new(
        format!(
            "Beyond 1989: two-level adaptive prediction ({})",
            bench.name
        ),
        &["Scheme", "A (cond)", "A (all)"],
    );
    for (name, s) in ["CBTB (paper)", "gshare 12/8", "local 12/6"]
        .iter()
        .zip(stats)
    {
        t.row(vec![
            (*name).to_string(),
            pct(s.cond_accuracy()),
            pct(s.accuracy()),
        ]);
    }
    t
}

/// Parameters for the complete ablation study set; the defaults are the
/// `ablation` binary's configuration.
#[derive(Copy, Clone, Debug)]
pub struct StudySpec<'a> {
    /// Fully-associative BTB sizes for [`sweep_btb_size`].
    pub btb_sizes: &'a [usize],
    /// Capacity held fixed by [`sweep_associativity`].
    pub assoc_entries: usize,
    /// Way counts for [`sweep_associativity`].
    pub assoc_ways: &'a [usize],
    /// `(counter_bits, threshold)` variants for [`sweep_counters`].
    pub counter_variants: &'a [(u8, u8)],
    /// Flush intervals for [`context_switch_study`].
    pub context_intervals: &'a [u64],
    /// Stack depths for [`ras_study`].
    pub ras_depths: &'a [usize],
    /// Slot count for [`delay_slot_study`].
    pub delay_max_slots: usize,
}

impl Default for StudySpec<'_> {
    fn default() -> Self {
        StudySpec {
            btb_sizes: &[16, 64, 256, 1024],
            assoc_entries: 256,
            assoc_ways: &[1, 2, 4, 8, 256],
            counter_variants: &[(1, 1), (2, 2), (3, 4), (4, 8)],
            context_intervals: &[100, 1_000, 10_000, u64::MAX / 2],
            ras_depths: &[4, 16, 64],
            delay_max_slots: 2,
        }
    }
}

/// Run the complete ablation study set on one benchmark, scoring every
/// sweep configuration in a *single* batch over the captured trace
/// (one capture per benchmark, one decode per work item). Tables are
/// returned in the `ablation` binary's print order and are
/// bit-identical to calling each study function on its own.
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn full_study(
    bench: &Benchmark,
    config: &ExperimentConfig,
    spec: &StudySpec<'_>,
) -> Result<Vec<Table>, ExperimentError> {
    full_study_traced(bench, config, spec, None)
}

/// [`full_study`], recorded as a child span of `parent` named after the
/// benchmark, with the batch's capture/score/merge spans under it. With
/// `parent` `None` this is exactly [`full_study`].
///
/// # Errors
/// Returns [`ExperimentError`] on pipeline failure.
pub fn full_study_traced(
    bench: &Benchmark,
    config: &ExperimentConfig,
    spec: &StudySpec<'_>,
    parent: Option<&SpanLink>,
) -> Result<Vec<Table>, ExperimentError> {
    let span = parent.map(|p| p.child(bench.name));
    let profile = cached_profile(bench, config)?;
    let mut batch = SweepBatch::new(bench, config);
    if let Some(s) = &span {
        batch.set_trace_parent(s.link());
    }
    let size = batch.eval(plan_btb_size(spec.btb_sizes));
    let assoc = batch.eval(plan_associativity(spec.assoc_entries, spec.assoc_ways));
    let counters = batch.eval(plan_counters(spec.counter_variants));
    let context = batch.eval(plan_context_switch(spec.context_intervals, &profile));
    let statics = batch.eval(plan_static_baselines());
    let ras = batch.ras(spec.ras_depths);
    let beyond = batch.eval(plan_beyond_1989());
    let results = batch.run()?;
    Ok(vec![
        render_btb_size(bench, spec.btb_sizes, results.stats(size)),
        render_associativity(
            bench,
            spec.assoc_entries,
            spec.assoc_ways,
            results.stats(assoc),
        ),
        render_counters(bench, spec.counter_variants, results.stats(counters)),
        render_context_switch(bench, spec.context_intervals, results.stats(context)),
        render_static_baselines(bench, results.stats(statics)),
        render_ras(bench, spec.ras_depths, results.ras(ras)),
        render_delay_slots(bench, &bench.compile()?, &profile, spec.delay_max_slots),
        render_beyond_1989(bench, results.stats(beyond)),
    ])
}

/// [`full_study`] over a list of benchmarks with capture/score overlap:
/// a producer thread runs the capture+profile pipeline for benchmark
/// *i + 1* (warming the process-wide trace and profile caches) while
/// the current thread scores benchmark *i* off its freshly cached
/// trace. The handoff is a zero-capacity rendezvous channel, so the
/// pipeline is bounded at two slots — one benchmark being captured, one
/// being scored — and never buffers more than one trace ahead.
///
/// Prefetch errors are deliberately swallowed: the scoring side re-runs
/// the failed pipeline stage itself (a cache miss) and reports the
/// error in its own result slot, keeping per-benchmark error
/// attribution identical to the sequential path. Tables are
/// bit-identical to calling [`full_study`] per benchmark in order.
///
/// With a `parent`, each benchmark's study set is recorded under it as
/// in [`full_study_traced`], and each prefetch as a `prefetch` span.
pub fn full_study_suite(
    benches: &[&Benchmark],
    config: &ExperimentConfig,
    spec: &StudySpec<'_>,
    parent: Option<&SpanLink>,
) -> Vec<(&'static str, Result<Vec<Table>, ExperimentError>)> {
    if benches.len() < 2 {
        return benches
            .iter()
            .map(|b| (b.name, full_study_traced(b, config, spec, parent)))
            .collect();
    }
    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = std::sync::mpsc::sync_channel::<()>(0);
        s.spawn(move || {
            for b in benches {
                let span = parent.map(|p| p.child("prefetch"));
                let _ = crate::trace_replay::captured_runs(b, config);
                let _ = cached_profile(b, config);
                // Closed before the rendezvous, which waits for the scorer.
                drop(span);
                if ready_tx.send(()).is_err() {
                    return; // consumer gone; stop prefetching
                }
            }
        });
        benches
            .iter()
            .map(|b| {
                // Wait for this benchmark's prefetch slot; a dead
                // producer only costs the overlap, never the result.
                let _ = ready_rx.recv();
                (b.name, full_study_traced(b, config, spec, parent))
            })
            .collect()
    })
}

/// [`full_study`] without the trace: the same predictor lists scored
/// by [`eval_predictors_live`], the stacks and the profile by their own
/// interpreter passes, rendered through the same functions. The
/// reference the replayed study set is held to.
///
/// [`eval_predictors_live`]: crate::harness::eval_predictors_live
#[cfg(test)]
fn full_study_live(
    bench: &Benchmark,
    config: &ExperimentConfig,
    spec: &StudySpec<'_>,
) -> Result<Vec<Table>, ExperimentError> {
    use crate::harness::eval_predictors_live;
    let module = bench.compile()?;
    let runs = bench.runs(config.scale, config.seed);
    let exec = config.exec_config();
    let profile = branchlab_profile::profile_module_with(&module, &runs, &exec)?;
    let program = branchlab_ir::lower(&module)?;
    let mut stacks: Vec<ReturnAddressStack> = spec
        .ras_depths
        .iter()
        .map(|&d| ReturnAddressStack::new(d))
        .collect();
    for r in &mut stacks {
        for streams in &runs {
            let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
            branchlab_interp::run(&program, &exec, &refs, r)?;
        }
    }
    let live = |preds| eval_predictors_live(bench, config, preds);
    Ok(vec![
        render_btb_size(bench, spec.btb_sizes, &live(plan_btb_size(spec.btb_sizes))?),
        render_associativity(
            bench,
            spec.assoc_entries,
            spec.assoc_ways,
            &live(plan_associativity(spec.assoc_entries, spec.assoc_ways))?,
        ),
        render_counters(
            bench,
            spec.counter_variants,
            &live(plan_counters(spec.counter_variants))?,
        ),
        render_context_switch(
            bench,
            spec.context_intervals,
            &live(plan_context_switch(spec.context_intervals, &profile))?,
        ),
        render_static_baselines(bench, &live(plan_static_baselines())?),
        render_ras(bench, spec.ras_depths, &stacks),
        render_delay_slots(bench, &module, &profile, spec.delay_max_slots),
        render_beyond_1989(bench, &live(plan_beyond_1989())?),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_workloads::benchmark;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::test()
    }

    /// Whole study sets, not only single evaluations: every table
    /// `full_study` renders (BTB size, associativity, counters, context
    /// switches, RAS, delay slots, two-level, opcode bias) must come out
    /// the same from the replayed trace as from live interpretation.
    #[test]
    fn replayed_study_tables_are_byte_identical_to_live() {
        let spec = StudySpec::default();
        let csv = |tables: Vec<Table>| {
            tables
                .iter()
                .map(Table::to_csv)
                .collect::<Vec<_>>()
                .join("\n")
        };
        for name in ["compress", "cccp"] {
            let bench = benchmark(name).unwrap();
            let (replay_cfg, live_cfg) = (cfg(), cfg());
            let replayed = csv(full_study(bench, &replay_cfg, &spec).unwrap());
            let live = csv(full_study_live(bench, &live_cfg, &spec).unwrap());
            assert_eq!(
                replayed, live,
                "{name}: replayed study tables differ from live"
            );
            // Each path really ran: the study set replays, the
            // reference never touches a trace.
            let count = |cfg: &ExperimentConfig, name| cfg.metrics.counter(name).get();
            assert!(count(&replay_cfg, "suite.trace.replays") > 0, "{name}");
            assert_eq!(count(&live_cfg, "suite.trace.replays"), 0, "{name}");
            assert_eq!(count(&live_cfg, "suite.trace.captures"), 0, "{name}");
        }
    }

    #[test]
    fn size_sweep_monotone_miss_ratio() {
        let t = sweep_btb_size(benchmark("compress").unwrap(), &cfg(), &[4, 64, 256]).unwrap();
        assert_eq!(t.rows.len(), 3);
        // CBTB miss ratio must not increase with size.
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let m4 = parse(&t.rows[0][3]);
        let m256 = parse(&t.rows[2][3]);
        assert!(m256 <= m4, "{t:?}");
    }

    #[test]
    fn associativity_sweep_runs() {
        let t = sweep_associativity(benchmark("wc").unwrap(), &cfg(), 64, &[1, 4, 64]).unwrap();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn counter_sweep_includes_paper_point() {
        let t =
            sweep_counters(benchmark("wc").unwrap(), &cfg(), &[(1, 1), (2, 2), (3, 4)]).unwrap();
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[1][0], "2");
    }

    #[test]
    fn context_switches_hurt_hardware_not_software() {
        let t =
            context_switch_study(benchmark("grep").unwrap(), &cfg(), &[50, 1_000_000_000]).unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // FS identical across intervals; SBTB strictly worse when
        // flushed every 50 branches.
        assert_eq!(t.rows[0][3], t.rows[1][3], "{t:?}");
        assert!(parse(&t.rows[0][1]) < parse(&t.rows[1][1]), "{t:?}");
    }

    #[test]
    fn ras_is_near_perfect_at_realistic_depths() {
        let t = ras_study(benchmark("make").unwrap(), &cfg(), &[1, 8, 64]).unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        // make recurses through build(); a 64-deep RAS must be ≥ 99.9%.
        assert!(parse(&t.rows[2][2]) > 99.9, "{t:?}");
        // Accuracy is monotone in depth.
        assert!(parse(&t.rows[0][2]) <= parse(&t.rows[2][2]));
    }

    #[test]
    fn opcode_bias_beats_coin_flip_on_suite_programs() {
        let t = static_baselines(benchmark("wc").unwrap(), &cfg()).unwrap();
        assert_eq!(t.rows.len(), 4);
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let opcode = parse(&t.rows[3][1]);
        assert!(opcode > 40.0, "opcode-bias cond accuracy {opcode}");
    }

    #[test]
    fn delay_slot_fill_rates_are_low_and_monotone() {
        let t = delay_slot_study(benchmark("wc").unwrap(), &cfg(), 2).unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let s1 = parse(&t.rows[0][2]);
        let s2 = parse(&t.rows[1][2]);
        assert!(s2 <= s1, "{t:?}");
        assert!(s1 < 70.0, "from-above filling should be hard here: {s1}%");
    }

    #[test]
    fn two_level_predictors_compete_with_cbtb() {
        let t = beyond_1989(benchmark("compress").unwrap(), &cfg()).unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let cbtb = parse(&t.rows[0][2]);
        let gshare = parse(&t.rows[1][2]);
        assert!(gshare > cbtb - 5.0, "gshare {gshare} vs cbtb {cbtb}");
    }

    #[test]
    fn full_study_suite_matches_sequential_studies() {
        let cfg = cfg();
        let spec = StudySpec {
            btb_sizes: &[16, 64],
            assoc_entries: 64,
            assoc_ways: &[1, 64],
            counter_variants: &[(2, 2)],
            context_intervals: &[1_000],
            ras_depths: &[8],
            delay_max_slots: 1,
        };
        let benches = [benchmark("wc").unwrap(), benchmark("cmp").unwrap()];
        let piped = full_study_suite(&benches, &cfg, &spec, None);
        assert_eq!(piped.len(), 2);
        for (name, result) in piped {
            let solo = full_study(benchmark(name).unwrap(), &cfg, &spec).unwrap();
            let tables = result.unwrap();
            assert_eq!(format!("{tables:?}"), format!("{solo:?}"), "{name}");
        }
    }

    #[test]
    fn static_baselines_sum_to_one_on_conditionals() {
        let t = static_baselines(benchmark("wc").unwrap(), &cfg()).unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let at = parse(&t.rows[0][1]);
        let ant = parse(&t.rows[1][1]);
        assert!((at + ant - 100.0).abs() < 0.2, "{at} + {ant}");
    }
}
