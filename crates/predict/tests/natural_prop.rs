//! Dense ≡ scalar: the pc-indexed [`NaturalPass`] and [`SiteOutcomes`]
//! must score every random stream exactly as the general engines do —
//! `Evaluator<Sbtb<SiteProbe>>`, `Evaluator<Cbtb<SiteProbe>>`, the
//! static-baseline evaluators and [`BranchMix`] — in every statistic
//! and every per-site counter.
//!
//! Each trial builds a random instruction stream with more than 256
//! branch sites (so the paper's 256-entry buffers evict), drives
//! several runs of random events consistent with it through both sides
//! and flushes both between runs. The events include taken branches
//! that fall through later (SBTB deletions) and indirect jumps whose
//! targets change (aliases); trials alternate the two CBTB threshold
//! readings. Driven by the seeded `branchlab_telemetry::Rng`, like
//! `assoc_prop.rs`.
//!
//! Runs are independent, so passes that each scored some of the runs
//! must merge into exactly the pass that scored them all: the last
//! test splits random multi-run streams across 1–4 passes.

use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId, Inst, Operand};
use branchlab_predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig,
    Evaluator, LikelyBit, NaturalPass, Sbtb, SbtbConfig, SiteOutcomes,
};
use branchlab_telemetry::{ProbeKind, Rng, SiteProbe};
use branchlab_trace::{BranchEvent, BranchKind, BranchMix, ExecHooks};

/// A random binary: mostly branches, some jumps and jump tables, and
/// non-branch filler.
fn random_code(rng: &mut Rng, len: u32) -> Vec<Inst> {
    (0..len)
        .map(|_| match rng.gen_range(0..20u32) {
            0..=10 => Inst::Br {
                cond: Cond::Lt,
                a: Operand::Imm(0),
                b: Operand::Imm(1),
                target: Addr(rng.gen_range(0..len)),
                slots: 0,
                likely: rng.gen_bool(0.5),
            },
            11..=13 => Inst::Jmp {
                target: Addr(rng.gen_range(0..len)),
                slots: 0,
            },
            14..=15 => Inst::JmpTable {
                sel: Operand::Imm(0),
                table: 0,
            },
            _ => Inst::Nop,
        })
        .collect()
}

/// A stream generator over `code`'s branch sites with per-site taken
/// bias and a sliding hot window, so buffers both hit and evict.
struct Stream {
    sites: Vec<u32>,
    bias: Vec<f64>,
}

impl Stream {
    fn new(rng: &mut Rng, code: &[Inst]) -> Self {
        let sites: Vec<u32> = (0..code.len() as u32)
            .filter(|&pc| code[pc as usize].is_branch())
            .collect();
        let bias = sites
            .iter()
            .map(|_| [0.02, 0.5, 0.98][rng.gen_range(0..3usize)])
            .collect();
        Stream { sites, bias }
    }

    fn event(&self, rng: &mut Rng, code: &[Inst], window: usize, width: usize) -> BranchEvent {
        let i = (window + rng.gen_range(0..width)) % self.sites.len();
        let pc = self.sites[i];
        let (kind, taken, target, likely) = match code[pc as usize] {
            Inst::Br { target, likely, .. } => {
                (BranchKind::Cond, rng.gen_bool(self.bias[i]), target, likely)
            }
            Inst::Jmp { target, .. } => (BranchKind::UncondDirect, true, target, false),
            // A handful of run-time targets per table, on both sides
            // of the jump: the buffered target goes stale (aliases).
            Inst::JmpTable { .. } => {
                let target = Addr((pc * 7 + 40 * rng.gen_range(0..3u32)) % code.len() as u32);
                (BranchKind::UncondIndirect, true, target, false)
            }
            _ => unreachable!("sites are branches"),
        };
        BranchEvent {
            pc: Addr(pc),
            kind,
            taken,
            target,
            fallthrough: Addr(pc + 1),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(pc),
            },
            likely,
            cond: (kind == BranchKind::Cond).then_some(Cond::Lt),
        }
    }
}

/// The general engines, fed event by event.
struct Oracle {
    sbtb: Evaluator<Sbtb<SiteProbe>>,
    cbtb: Evaluator<Cbtb<SiteProbe>>,
    at: Evaluator<AlwaysTaken>,
    ant: Evaluator<AlwaysNotTaken>,
    btfn: Evaluator<BackwardTakenForwardNot>,
    likely: Evaluator<LikelyBit>,
    mix: BranchMix,
    /// SBTB entries deleted by a hit that fell through.
    deletions: u64,
}

impl ExecHooks for Oracle {
    fn branch(&mut self, ev: &BranchEvent) {
        let resident = self.sbtb.predictor.len();
        self.sbtb.branch(ev);
        self.deletions += u64::from(self.sbtb.predictor.len() < resident);
        self.cbtb.branch(ev);
        self.at.branch(ev);
        self.ant.branch(ev);
        self.btfn.branch(ev);
        self.likely.branch(ev);
        self.mix.branch(ev);
    }
}

#[test]
fn natural_pass_matches_the_scalar_engines() {
    let (mut evicts, mut aliases, mut deletions) = (0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0xde25e ^ seed);
        let len = rng.gen_range(560..900u32);
        let code = random_code(&mut rng, len);
        let stream = Stream::new(&mut rng, &code);
        assert!(stream.sites.len() > 256, "seed {seed}: too few sites");
        // The paper's geometry, or a small buffer that evicts hard.
        let entries = if seed % 3 == 0 {
            1 << rng.gen_range(1..6u32)
        } else {
            256
        };
        let sbtb_cfg = SbtbConfig {
            entries,
            ways: entries,
        };
        let cbtb_cfg = CbtbConfig {
            entries,
            ways: entries,
            strict_greater: seed % 2 == 0,
            ..CbtbConfig::paper()
        };
        let mut pass = NaturalPass::new(&code, sbtb_cfg, cbtb_cfg);
        let mut fs = SiteOutcomes::new(&code);
        let mut oracle = Oracle {
            sbtb: Evaluator::new(Sbtb::with_sink(sbtb_cfg, SiteProbe::default())),
            cbtb: Evaluator::new(Cbtb::with_sink(cbtb_cfg, SiteProbe::default())),
            at: Evaluator::new(AlwaysTaken),
            ant: Evaluator::new(AlwaysNotTaken),
            btfn: Evaluator::new(BackwardTakenForwardNot),
            likely: Evaluator::new(LikelyBit),
            mix: BranchMix::new(),
            deletions: 0,
        };
        for _run in 0..rng.gen_range(2..5u32) {
            pass.flush();
            oracle.sbtb.predictor.flush();
            oracle.cbtb.predictor.flush();
            let width = rng.gen_range(8..stream.sites.len());
            let mut window = 0;
            for i in 0..rng.gen_range(1000..4000u32) {
                if i % 64 == 0 {
                    window = rng.gen_range(0..stream.sites.len());
                }
                let ev = stream.event(&mut rng, &code, window, width);
                pass.branch(&ev);
                fs.branch(&ev);
                oracle.branch(&ev);
            }
        }

        let ctx = format!("seed {seed} ({entries} entries, strict {})", seed % 2 == 0);
        assert_eq!(pass.sbtb_stats(), oracle.sbtb.stats, "{ctx}: SBTB");
        assert_eq!(pass.cbtb_stats(), oracle.cbtb.stats, "{ctx}: CBTB");
        let outcomes = pass.outcomes();
        assert_eq!(outcomes.always_taken(), oracle.at.stats, "{ctx}: AT");
        assert_eq!(outcomes.always_not_taken(), oracle.ant.stats, "{ctx}: ANT");
        assert_eq!(outcomes.btfn(), oracle.btfn.stats, "{ctx}: BTFN");
        assert_eq!(outcomes.mix(), oracle.mix, "{ctx}: mix");
        assert_eq!(fs.likely_bit(), oracle.likely.stats, "{ctx}: likely bit");
        assert_eq!(
            pass.sbtb_sites().sites(),
            oracle.sbtb.predictor.sink().sites(),
            "{ctx}: SBTB sites"
        );
        assert_eq!(
            pass.cbtb_sites().sites(),
            oracle.cbtb.predictor.sink().sites(),
            "{ctx}: CBTB sites"
        );
        let sinks = [oracle.sbtb.predictor.sink(), oracle.cbtb.predictor.sink()];
        evicts += sinks.iter().map(|s| s.total(ProbeKind::Evict)).sum::<u64>();
        aliases += sinks.iter().map(|s| s.total(ProbeKind::Alias)).sum::<u64>();
        deletions += oracle.deletions;
    }
    // The streams exercised every path the fused body has.
    assert!(evicts > 0 && aliases > 0 && deletions > 0);
}

#[test]
fn paper_geometry_evicts_once_sites_outnumber_entries() {
    // 300 always-taken jumps round-robin through the 256-entry buffers:
    // after the first lap every fill evicts, in both engines alike.
    let code: Vec<Inst> = (0..300)
        .map(|pc| Inst::Jmp {
            target: Addr((pc + 1) % 300),
            slots: 0,
        })
        .collect();
    let mut pass = NaturalPass::new(&code, SbtbConfig::paper(), CbtbConfig::paper());
    let mut sbtb = Evaluator::new(Sbtb::with_sink(SbtbConfig::paper(), SiteProbe::default()));
    for _lap in 0..3 {
        for pc in 0..300u32 {
            let ev = BranchEvent {
                pc: Addr(pc),
                kind: BranchKind::UncondDirect,
                taken: true,
                target: Addr((pc + 1) % 300),
                fallthrough: Addr(pc + 1),
                branch: BranchId {
                    func: FuncId(0),
                    block: BlockId(pc),
                },
                likely: false,
                cond: None,
            };
            pass.branch(&ev);
            sbtb.branch(&ev);
        }
    }
    assert_eq!(pass.sbtb_stats(), sbtb.stats);
    assert_eq!(pass.sbtb_stats().btb_misses, 900);
    assert_eq!(pass.sbtb_sites().sites(), sbtb.predictor.sink().sites());
    assert_eq!(pass.cbtb_sites().total(ProbeKind::Evict), 900 - 256);
}

/// Sorted jump-table transfers, for comparison.
fn jumps(counts: &branchlab_trace::PcCounts) -> Vec<(Addr, Addr, u64)> {
    let mut jumps: Vec<_> = counts.jumps().collect();
    jumps.sort_unstable();
    jumps
}

#[test]
fn merged_passes_equal_one_pass_over_every_run() {
    let mut split_runs = 0;
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0x3e76e ^ seed);
        let len = rng.gen_range(560..900u32);
        let code = random_code(&mut rng, len);
        let stream = Stream::new(&mut rng, &code);
        let entries = if seed % 2 == 0 {
            1 << rng.gen_range(1..6u32)
        } else {
            256
        };
        let sbtb_cfg = SbtbConfig {
            entries,
            ways: entries,
        };
        let cbtb_cfg = CbtbConfig {
            entries,
            ways: entries,
            strict_greater: seed % 3 == 0,
            ..CbtbConfig::paper()
        };
        let new_pass = || NaturalPass::new(&code, sbtb_cfg, cbtb_cfg);
        let mut whole = new_pass();
        let mut whole_fs = SiteOutcomes::new(&code);
        // Each run goes to one of 1–4 parts, in a random assignment.
        let n_parts = rng.gen_range(1..5usize);
        let mut parts: Vec<NaturalPass> = (0..n_parts).map(|_| new_pass()).collect();
        let mut fs_parts: Vec<SiteOutcomes> =
            (0..n_parts).map(|_| SiteOutcomes::new(&code)).collect();
        let runs = rng.gen_range(2..7u32);
        let mut used = vec![false; n_parts];
        for _run in 0..runs {
            let part = rng.gen_range(0..n_parts);
            used[part] = true;
            whole.start_run();
            parts[part].start_run();
            let width = rng.gen_range(8..stream.sites.len());
            let mut window = 0;
            for i in 0..rng.gen_range(500..2000u32) {
                if i % 64 == 0 {
                    window = rng.gen_range(0..stream.sites.len());
                }
                let ev = stream.event(&mut rng, &code, window, width);
                whole.branch(&ev);
                parts[part].branch(&ev);
                whole_fs.branch(&ev);
                fs_parts[part].branch(&ev);
            }
        }
        split_runs += u32::from(used.iter().filter(|&&u| u).count() > 1);

        let mut merged = parts.remove(0);
        for part in &parts {
            merged.merge(part);
        }
        let mut merged_fs = fs_parts.remove(0);
        for part in &fs_parts {
            merged_fs.merge(part);
        }

        let ctx = format!("seed {seed} ({entries} entries, {n_parts} parts, {runs} runs)");
        assert_eq!(merged.sbtb_stats(), whole.sbtb_stats(), "{ctx}: SBTB");
        assert_eq!(merged.cbtb_stats(), whole.cbtb_stats(), "{ctx}: CBTB");
        assert_eq!(
            merged.sbtb_sites().sites(),
            whole.sbtb_sites().sites(),
            "{ctx}"
        );
        assert_eq!(
            merged.cbtb_sites().sites(),
            whole.cbtb_sites().sites(),
            "{ctx}"
        );
        let (m, w) = (merged.outcomes(), whole.outcomes());
        assert_eq!(m.always_taken(), w.always_taken(), "{ctx}: AT");
        assert_eq!(m.always_not_taken(), w.always_not_taken(), "{ctx}: ANT");
        assert_eq!(m.btfn(), w.btfn(), "{ctx}: BTFN");
        assert_eq!(m.mix(), w.mix(), "{ctx}: mix");
        assert_eq!(m.counts().counts(), w.counts().counts(), "{ctx}: counts");
        assert_eq!(jumps(m.counts()), jumps(w.counts()), "{ctx}: jumps");
        assert_eq!(m.counts().runs(), u64::from(runs), "{ctx}: runs");
        assert_eq!(
            merged_fs.likely_bit(),
            whole_fs.likely_bit(),
            "{ctx}: likely"
        );
        assert_eq!(
            merged_fs.counts().counts(),
            whole_fs.counts().counts(),
            "{ctx}: FS counts"
        );
        assert_eq!(jumps(merged_fs.counts()), jumps(whole_fs.counts()), "{ctx}");
    }
    // Most trials really spread their runs over several passes.
    assert!(split_runs >= 8, "only {split_runs} trials split their runs");
}
