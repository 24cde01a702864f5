//! The profile derived from the natural binary must equal the profile a
//! probe build records. The probe build is the instrumented layout (no
//! jump elision, so every CFG edge executes as a branch) profiled by the
//! straightforward hash-map profiler: per event, one lookup of the
//! successor's block, one of the edge and one of the site. Both live
//! here only, as the oracle, and run over every suite benchmark and both
//! synthetic benchmarks at two seeds.

use std::collections::HashMap;

use branchlab_interp::{run, ExecConfig};
use branchlab_ir::{
    lower, lower_with_plan, validate_module, Addr, Block, BlockId, Cond, FuncId, Function, Inst,
    LayoutPlan, Module, Op, Operand, Program, Reg, Term,
};
use branchlab_profile::{profile_module_with, Edge, Profile, ProfileError};
use branchlab_trace::{BranchEvent, BranchKind, ExecHooks, PcCounts};
use branchlab_workloads::{all_benchmarks, Scale};

/// Reference profiler over the probe build: one hash lookup per event
/// for the successor block, one for the edge and one for the site. It
/// also counts the event classes the equality must cover.
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
    /// Jumps to the layout-next block: the edges the natural binary
    /// elides and the derivation must recover.
    elided_jump_edges: u64,
    calls: u64,
}

impl Coverage {
    fn add(&mut self, other: &Coverage) {
        self.jump_table_edges += other.jump_table_edges;
        self.fallthroughs_onto_trailing_jmp += other.fallthroughs_onto_trailing_jmp;
        self.elided_jump_edges += other.elided_jump_edges;
        self.calls += other.calls;
    }
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
        if ev.kind == BranchKind::UncondDirect && ev.target == ev.fallthrough {
            self.coverage.elided_jump_edges += 1;
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

fn exec_config() -> ExecConfig {
    ExecConfig {
        max_insts: 200_000_000,
        ..ExecConfig::default()
    }
}

/// The oracle's profile of `module` over `runs`, from the probe build.
fn probe_profile(name: &str, module: &Module, runs: &[Vec<Vec<u8>>]) -> Oracle {
    let probes = LayoutPlan {
        elide_jumps: false,
        ..LayoutPlan::natural(module)
    };
    let program = lower_with_plan(module, &probes).unwrap();
    let mut oracle = Oracle::new(&program);
    for streams in runs {
        oracle.profile.func_entries[module.entry.0 as usize] += 1;
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&program, &exec_config(), &refs, &mut oracle).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    oracle
}

/// Derive `module`'s profile over `runs` from its natural binary, assert
/// it equals the probe build's, and return what the runs covered.
fn check(name: &str, module: &Module, runs: &[Vec<Vec<u8>>]) -> Coverage {
    let derived =
        profile_module_with(module, runs, &exec_config()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let oracle = probe_profile(name, module, runs);
    assert!(
        !oracle.profile.sites.is_empty(),
        "{name}: no conditional branch ran"
    );
    assert_eq!(derived, oracle.profile, "{name}");
    oracle.coverage
}

#[test]
fn derived_profile_matches_the_probe_build_on_every_benchmark() {
    let mut total = Coverage::default();
    let mut names = Vec::new();
    for seed in [1989, 7] {
        for bench in all_benchmarks() {
            let module = bench.compile().unwrap();
            let name = format!("{} seed {seed}", bench.name);
            total.add(&check(&name, &module, &bench.runs(Scale::Test, seed)));
            names.push(bench.name);
        }
    }
    assert_eq!(names.len(), 28, "{names:?}");
    assert!(
        names.contains(&"dispatch") && names.contains(&"router"),
        "{names:?}"
    );
    assert!(total.jump_table_edges > 0, "{total:?}");
    assert!(total.fallthroughs_onto_trailing_jmp > 0, "{total:?}");
    assert!(total.elided_jump_edges > 0, "{total:?}");
    assert!(total.calls > 0, "{total:?}");
}

#[test]
fn derived_profile_matches_the_probe_build_on_switches_calls_and_trailing_jumps() {
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
    assert!(c.elided_jump_edges > 0, "{c:?}");
    assert!(c.calls > 0, "{c:?}");
}

#[test]
fn empty_switch_arms_fold_into_the_next_arm() {
    // `case 1: { }` falls through to `case 2`. Given a block of its own
    // it would share case 2's address in the natural binary, and the
    // table's transfers to the two could not be told apart.
    let module = branchlab_minic::compile(
        r"
        int main() {
            int c; int n = 0;
            while ((c = getc(0)) != -1) {
                switch (c % 8) {
                    case 0: n = n + 1; break;
                    case 1: { }
                    case 2: n = n + 2; break;
                    case 3: n = n + 3; break;
                    case 4: n = n * 2; break;
                    case 5: { { } }
                    case 6: n = n - 1;
                    default: n = n + 7;
                }
            }
            return n & 255;
        }
    ",
    )
    .unwrap();
    let main = module.func(module.entry);
    let Some(Term::Switch { targets, .. }) = main
        .blocks
        .iter()
        .map(|b| &b.term)
        .find(|t| matches!(t, Term::Switch { .. }))
    else {
        panic!("no jump table");
    };
    assert_eq!(targets[1], targets[2], "case 1 folds into case 2");
    assert_eq!(targets[5], targets[6], "case 5 folds into case 6");
    let input: Vec<u8> = (0..=255u8).cycle().take(600).collect();
    let c = check("empty arms", &module, &[vec![input]]);
    assert!(c.jump_table_edges > 0, "{c:?}");
}

#[test]
fn halting_inside_a_callee_leaves_its_callers_block_unfinished() {
    // `g` halts on its sixth call. The call sits in a block whose jump
    // to the next block is elided, and that block is left one time
    // fewer than it was entered: flow conservation alone would give
    // the elided edge one transfer too many.
    let module = branchlab_minic::compile(
        r"
        int g(int x) {
            if (x == 5) { halt(); }
            return x + 1;
        }
        int main() {
            int i; int s = 0;
            for (i = 0; i < 10; i++) {
                if (i % 3 != 1) { s = s + g(i); } else { s = s + 2; }
            }
            return s;
        }
    ",
    )
    .unwrap();
    check("halt in callee", &module, &[vec![], vec![]]);

    // The case is really exercised: some call site with a frame still
    // open at the end sits in a block whose jump was elided.
    let natural = lower(&module).unwrap();
    let mut counts = PcCounts::new(natural.code.len());
    counts.start_run();
    run(&natural, &exec_config(), &[], &mut counts).unwrap();
    let open_in_elided_block = module.funcs.iter().any(|f| {
        f.blocks.iter().enumerate().any(|(i, b)| {
            let elided = b.term == Term::Jmp(BlockId(i as u32 + 1));
            let base = natural.block_addrs[f.id.0 as usize][i].0 as usize;
            elided
                && b.ops.iter().enumerate().any(|(k, op)| {
                    let [returned, called] = counts.counts()[base + k];
                    matches!(op, Op::Call { .. }) && called > returned
                })
        })
    });
    assert!(open_in_elided_block);
}

/// A hand-built function of `blocks`.
fn func(name: &str, id: u32, num_regs: u16, blocks: Vec<(Vec<Op>, Term)>) -> Function {
    Function {
        name: name.to_string(),
        id: FuncId(id),
        num_params: 0,
        num_regs,
        frame_words: 0,
        blocks: blocks
            .into_iter()
            .enumerate()
            .map(|(i, (ops, term))| Block {
                id: BlockId(i as u32),
                ops,
                term,
            })
            .collect(),
    }
}

fn module(funcs: Vec<Function>) -> Module {
    let m = Module {
        funcs,
        globals_words: 0,
        globals_init: Vec::new(),
        entry: FuncId(0),
    };
    validate_module(&m).unwrap();
    m
}

#[test]
fn a_callees_empty_entry_block_shares_its_address_but_not_its_edges() {
    // `g`'s entry block is empty and jumps to block 1, so the natural
    // binary gives both blocks one address, right after `f`'s last
    // instruction. Calls enter block 0, and its elided jump carries
    // every entry on to block 1.
    let r0 = Reg(0);
    let f = func(
        "f",
        0,
        1,
        vec![
            (
                vec![Op::Mov {
                    dst: r0,
                    src: Operand::Imm(3),
                }],
                Term::Jmp(BlockId(1)),
            ),
            (
                vec![
                    Op::Call {
                        func: FuncId(1),
                        args: Vec::new(),
                        dst: None,
                    },
                    Op::Alu {
                        op: branchlab_ir::AluOp::Sub,
                        dst: r0,
                        a: Operand::Reg(r0),
                        b: Operand::Imm(1),
                    },
                ],
                Term::Br {
                    cond: Cond::Ne,
                    a: Operand::Reg(r0),
                    b: Operand::Imm(0),
                    then_: BlockId(1),
                    else_: BlockId(2),
                },
            ),
            (Vec::new(), Term::Ret(None)),
        ],
    );
    let g = func(
        "g",
        1,
        0,
        vec![
            (Vec::new(), Term::Jmp(BlockId(1))),
            (Vec::new(), Term::Ret(None)),
        ],
    );
    let m = module(vec![f, g]);
    let natural = lower(&m).unwrap();
    assert_eq!(natural.block_addrs[1][0], natural.block_addrs[1][1]);
    assert_eq!(natural.block_addrs[1][0], Addr(natural.funcs[0].end.0));
    check("empty callee entry", &m, &[vec![], vec![]]);
    let p = profile_module_with(&m, &[vec![], vec![]], &exec_config()).unwrap();
    assert_eq!(p.func_entries, vec![2, 6]);
    assert_eq!(p.edge_weight(FuncId(1), BlockId(0), BlockId(1)), 6);
    assert_eq!(p.edge_weight(FuncId(0), BlockId(0), BlockId(1)), 2);
    assert_eq!(p.edge_weight(FuncId(0), BlockId(1), BlockId(1)), 4);
    assert_eq!(p.edge_weight(FuncId(0), BlockId(1), BlockId(2)), 2);
    assert_eq!(p.edges.len(), 4);
}

#[test]
fn a_jump_table_with_two_targets_at_one_address_is_an_error() {
    // Hand-built IR that MiniC no longer emits: block 1 is empty and
    // falls through to block 2, and the table targets both, so a
    // transfer to their shared address has no one edge.
    let r0 = Reg(0);
    let main = func(
        "main",
        0,
        1,
        vec![
            (
                vec![Op::In {
                    dst: r0,
                    stream: Operand::Imm(0),
                }],
                Term::Switch {
                    sel: r0,
                    targets: vec![BlockId(1), BlockId(2)],
                    default: BlockId(3),
                },
            ),
            (Vec::new(), Term::Jmp(BlockId(2))),
            (
                vec![Op::Out {
                    src: Operand::Imm(1),
                    stream: Operand::Imm(1),
                }],
                Term::Jmp(BlockId(3)),
            ),
            (Vec::new(), Term::Ret(None)),
        ],
    );
    let m = module(vec![main]);
    let natural = lower(&m).unwrap();
    assert_eq!(natural.block_addrs[0][1], natural.block_addrs[0][2]);
    // Selector 5 takes the default: nothing ambiguous ran.
    assert!(profile_module_with(&m, &[vec![vec![5]]], &exec_config()).is_ok());
    for input in [0u8, 1] {
        match profile_module_with(&m, &[vec![vec![input]]], &exec_config()) {
            Err(ProfileError::AmbiguousJumpTarget { func, pc }) => {
                assert_eq!(func, FuncId(0));
                assert!(matches!(natural.code[pc.0 as usize], Inst::JmpTable { .. }));
            }
            other => panic!("selector {input}: {other:?}"),
        }
    }
}
