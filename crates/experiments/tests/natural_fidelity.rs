//! Natural-pass fidelity: for every suite benchmark, the statistics
//! `run_benchmark` reports — SBTB, CBTB, the static baselines, the
//! Table 2 mix, the FS likely-bit scoring and the per-site SBTB/CBTB
//! counters — must equal the predict crate's general evaluators driven
//! over the same executions: cold per run over the benchmark's captured
//! traces for the conventional binary, with the `Sbtb` and `Cbtb`
//! engines under the per-site oracle of `natural_prop`, and
//! `LikelyBit` over live runs of the FS binary.

#[path = "../../predict/tests/support/site_oracle.rs"]
mod site_oracle;

use branchlab_experiments::trace_replay::{cached_profile, captured_runs, replay_runs};
use branchlab_experiments::{run_benchmark, BenchResult, ExperimentConfig};
use branchlab_fsem::{fs_program, FsConfig};
use branchlab_interp::{run, ExecConfig};
use branchlab_predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, Cbtb, CbtbConfig, Evaluator, LikelyBit,
    Sbtb, SbtbConfig,
};
use branchlab_trace::{BranchEvent, BranchMix, ExecHooks};
use branchlab_workloads::{Benchmark, SUITE};
use site_oracle::SiteOracle;

/// The scalar engines the natural pass replaced, fed event by event.
struct Oracle {
    mix: BranchMix,
    sbtb: SiteOracle<Sbtb>,
    cbtb: SiteOracle<Cbtb>,
    at: Evaluator<AlwaysTaken>,
    ant: Evaluator<AlwaysNotTaken>,
    btfn: Evaluator<BackwardTakenForwardNot>,
}

impl ExecHooks for Oracle {
    fn branch(&mut self, ev: &BranchEvent) {
        self.mix.branch(ev);
        self.sbtb.branch(ev);
        self.cbtb.branch(ev);
        self.at.branch(ev);
        self.ant.branch(ev);
        self.btfn.branch(ev);
    }
}

fn oracle(bench: &Benchmark, cfg: &ExperimentConfig) -> Oracle {
    let cbtb = CbtbConfig {
        strict_greater: cfg.cbtb_strict,
        ..CbtbConfig::paper()
    };
    let mut oracle = Oracle {
        mix: BranchMix::new(),
        sbtb: SiteOracle::sbtb(SbtbConfig::paper()),
        cbtb: SiteOracle::cbtb(cbtb),
        at: Evaluator::new(AlwaysTaken),
        ant: Evaluator::new(AlwaysNotTaken),
        btfn: Evaluator::new(BackwardTakenForwardNot),
    };
    let runs = captured_runs(bench, cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    for trace in runs.iter() {
        oracle.sbtb.flush();
        oracle.cbtb.flush();
        replay_runs(std::slice::from_ref(trace), &mut oracle)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    }
    oracle
}

/// `LikelyBit` over live runs of the benchmark's FS binary.
fn fs_oracle(bench: &Benchmark, cfg: &ExperimentConfig) -> Evaluator<LikelyBit> {
    let module = bench.compile().expect("suite benchmarks compile");
    let profile = cached_profile(bench, cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let fs_bin = fs_program(&module, &profile, FsConfig::with_slots(cfg.fs_slots))
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let exec = ExecConfig {
        max_insts: cfg.max_insts_per_run,
        memory_words: cfg.memory_words,
        max_call_depth: cfg.max_call_depth,
    };
    let mut eval = Evaluator::new(LikelyBit);
    for streams in bench.runs(cfg.scale, cfg.seed) {
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&fs_bin, &exec, &refs, &mut eval).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    }
    eval
}

fn result(bench: &'static Benchmark, cfg: &ExperimentConfig) -> BenchResult {
    run_benchmark(bench, cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name))
}

#[test]
fn natural_pass_equals_the_scalar_evaluators_for_every_benchmark() {
    let cfg = ExperimentConfig::test();
    for bench in SUITE {
        let name = bench.name;
        let r = result(bench, &cfg);
        let o = oracle(bench, &cfg);
        assert_eq!(r.mix, o.mix, "{name}: mix");
        assert_eq!(r.sbtb, o.sbtb.stats, "{name}: SBTB");
        assert_eq!(r.cbtb, o.cbtb.stats, "{name}: CBTB");
        assert_eq!(r.always_taken, o.at.stats, "{name}: always-taken");
        assert_eq!(r.always_not_taken, o.ant.stats, "{name}: always-not-taken");
        assert_eq!(r.btfn, o.btfn.stats, "{name}: BTFN");
        assert_eq!(r.fs, fs_oracle(bench, &cfg).stats, "{name}: FS");
        assert_eq!(r.sbtb_sites.sites(), &o.sbtb.sites, "{name}: SBTB sites");
        assert_eq!(r.cbtb_sites.sites(), &o.cbtb.sites, "{name}: CBTB sites");
    }
}

#[test]
fn the_smith_counter_reading_is_scored_too() {
    // The harness honours `cbtb_strict = false` (`C ≥ T`) as well.
    let cfg = ExperimentConfig {
        cbtb_strict: false,
        ..ExperimentConfig::test()
    };
    for bench in SUITE.iter().take(3) {
        assert_eq!(
            result(bench, &cfg).cbtb,
            oracle(bench, &cfg).cbtb.stats,
            "{}: CBTB (C ≥ T)",
            bench.name
        );
    }
}
