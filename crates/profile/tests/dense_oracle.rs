//! The dense [`Profiler`] must build exactly the profile that the
//! straightforward hash-map profiler builds: per-event lookups of the
//! successor's block, the edge and the site. That profiler lives here
//! only, as the oracle, and both run as sinks of the same execution over
//! every suite benchmark and both synthetic benchmarks.

use std::collections::HashMap;

use branchlab_interp::{run, ExecConfig};
use branchlab_ir::{
    lower_with_plan, Addr, BlockId, BranchId, Cond, FuncId, FuncInfo, Inst, InstMeta, LayoutPlan,
    Module, Operand, Program,
};
use branchlab_profile::{Edge, Profile, Profiler};
use branchlab_trace::{BranchEvent, BranchKind, ExecHooks, SiteStats};
use branchlab_workloads::{all_benchmarks, Scale};

/// Reference profiler: one hash lookup per event for the successor
/// block, one for the edge and one for the site. It also counts the
/// event classes the equality must cover.
struct Oracle {
    addr_to_block: HashMap<u32, (FuncId, BlockId)>,
    is_jmp: Vec<bool>,
    profile: Profile,
    coverage: Coverage,
}

#[derive(Default, Debug)]
struct Coverage {
    jump_table_edges: u64,
    fallthroughs_onto_trailing_jmp: u64,
    calls: u64,
}

impl Oracle {
    fn new(program: &Program) -> Self {
        let mut addr_to_block = HashMap::new();
        for (fi, blocks) in program.block_addrs.iter().enumerate() {
            for (bi, addr) in blocks.iter().enumerate() {
                addr_to_block.insert(addr.0, (FuncId(fi as u32), BlockId(bi as u32)));
            }
        }
        Oracle {
            addr_to_block,
            is_jmp: program
                .code
                .iter()
                .map(|i| matches!(i, Inst::Jmp { .. }))
                .collect(),
            profile: Profile {
                func_entries: vec![0; program.funcs.len()],
                ..Profile::default()
            },
            coverage: Coverage::default(),
        }
    }
}

impl ExecHooks for Oracle {
    fn branch(&mut self, ev: &BranchEvent) {
        if ev.kind == BranchKind::Cond {
            self.profile.sites.branch(ev);
        }
        match self.addr_to_block.get(&ev.next_pc().0) {
            Some(&(func, to)) if func == ev.branch.func => {
                let edge = Edge {
                    func,
                    from: ev.branch.block,
                    to,
                };
                *self.profile.edges.entry(edge).or_insert(0) += 1;
                if ev.kind == BranchKind::UncondIndirect {
                    self.coverage.jump_table_edges += 1;
                }
            }
            Some(_) => {}
            None => {
                let next = ev.next_pc().0 as usize;
                if !ev.taken && self.is_jmp.get(next) == Some(&true) {
                    self.coverage.fallthroughs_onto_trailing_jmp += 1;
                }
            }
        }
    }

    fn call(&mut self, _from: Addr, callee: FuncId) {
        self.profile.func_entries[callee.0 as usize] += 1;
        self.coverage.calls += 1;
    }
}

fn sorted_sites(sites: &SiteStats) -> Vec<(u32, u32, u64, u64)> {
    let mut v: Vec<_> = sites
        .iter()
        .map(|(id, c)| (id.func.0, id.block.0, c.taken, c.total))
        .collect();
    v.sort_unstable();
    v
}

/// Profile `module` over `runs` with both profilers in one execution per
/// run, assert the profiles are equal, and return what the run covered.
fn check(name: &str, module: &Module, runs: &[Vec<Vec<u8>>]) -> Coverage {
    let program = lower_with_plan(module, &LayoutPlan::instrumented(module)).unwrap();
    let config = ExecConfig {
        max_insts: 200_000_000,
        ..ExecConfig::default()
    };
    let mut dense = Profiler::new(&program);
    let mut oracle = Oracle::new(&program);
    for streams in runs {
        dense.record_program_entry(module.entry);
        oracle.profile.func_entries[module.entry.0 as usize] += 1;
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&program, &config, &refs, &mut (&mut dense, &mut oracle))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let got = dense.into_profile();
    let want = &oracle.profile;
    assert!(!want.sites.is_empty(), "{name}: no conditional branch ran");
    assert_eq!(
        sorted_sites(&got.sites),
        sorted_sites(&want.sites),
        "{name}: sites"
    );
    assert_eq!(got.edges, want.edges, "{name}: edges");
    assert_eq!(got.func_entries, want.func_entries, "{name}: func_entries");
    oracle.coverage
}

#[test]
fn dense_profiler_matches_hash_map_oracle_on_every_benchmark() {
    let mut total = Coverage::default();
    let mut names = Vec::new();
    for bench in all_benchmarks() {
        let module = bench.compile().unwrap();
        let c = check(bench.name, &module, &bench.runs(Scale::Test, 1989));
        total.jump_table_edges += c.jump_table_edges;
        total.fallthroughs_onto_trailing_jmp += c.fallthroughs_onto_trailing_jmp;
        total.calls += c.calls;
        names.push(bench.name);
    }
    assert!(
        names.contains(&"dispatch") && names.contains(&"router"),
        "{names:?}"
    );
    assert!(total.jump_table_edges > 0, "{total:?}");
    assert!(total.fallthroughs_onto_trailing_jmp > 0, "{total:?}");
    assert!(total.calls > 0, "{total:?}");
}

#[test]
fn dense_profiler_matches_oracle_on_switches_calls_and_trailing_jumps() {
    // A dense switch of seven cases lowers to a jump table; `classify` is called per
    // byte; the `if` without `else` inside the loop ends its block with
    // a conditional branch followed by a trailing jump.
    let module = branchlab_minic::compile(
        r"
        int classify(int c) {
            switch (c & 7) {
                case 0: return 1;
                case 1: return 2;
                case 2: return 3;
                case 3: return 5;
                case 4: return 8;
                case 5: return 13;
                case 6: return 21;
                default: return 0;
            }
        }
        int main() {
            int c; int n = 0;
            while ((c = getc(0)) != -1) {
                n += classify(c);
                if (c == ' ') { n++; }
            }
            return n & 255;
        }
    ",
    )
    .unwrap();
    let input: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
    let c = check(
        "switch",
        &module,
        &[vec![input], vec![b"a b c".to_vec()], vec![]],
    );
    assert!(c.jump_table_edges > 0, "{c:?}");
    assert!(c.fallthroughs_onto_trailing_jmp > 0, "{c:?}");
    assert!(c.calls > 0, "{c:?}");
}

#[test]
fn fall_through_into_the_next_function_is_not_an_edge() {
    // Compiled programs never leave a function except by call or
    // return, so build one by hand: `f` is a single conditional branch
    // back to itself whose fall-through is the first block of `g`.
    let func = |name: &str, entry: u32| FuncInfo {
        name: name.to_string(),
        entry: Addr(entry),
        end: Addr(entry + 1),
        num_regs: 0,
        num_params: 0,
        frame_words: 0,
    };
    let meta = |f: u32| InstMeta {
        func: FuncId(f),
        block: BlockId(0),
        is_slot: false,
    };
    let program = Program {
        code: vec![
            Inst::Br {
                cond: Cond::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: Addr(0),
                slots: 0,
                likely: false,
            },
            Inst::Ret { val: None },
        ],
        meta: vec![meta(0), meta(1)],
        funcs: vec![func("f", 0), func("g", 1)],
        jump_tables: Vec::new(),
        entry: Addr(0),
        globals_words: 0,
        globals_init: Vec::new(),
        block_addrs: vec![vec![Addr(0)], vec![Addr(1)]],
    };
    let mut dense = Profiler::new(&program);
    let mut oracle = Oracle::new(&program);
    for taken in [true, false, true, true, false] {
        let ev = BranchEvent {
            pc: Addr(0),
            kind: BranchKind::Cond,
            taken,
            target: Addr(0),
            fallthrough: Addr(1),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(0),
            },
            likely: false,
            cond: Some(Cond::Eq),
        };
        (&mut dense, &mut oracle).branch(&ev);
    }
    let got = dense.into_profile();
    assert_eq!(sorted_sites(&got.sites), vec![(0, 0, 3, 5)]);
    assert_eq!(
        sorted_sites(&got.sites),
        sorted_sites(&oracle.profile.sites)
    );
    assert_eq!(got.edges, oracle.profile.edges);
    assert_eq!(got.edges.len(), 1);
    assert_eq!(got.edge_weight(FuncId(0), BlockId(0), BlockId(0)), 3);
}
