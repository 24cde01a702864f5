//! Randomized end-to-end tests: randomly generated MiniC programs
//! must compile, validate, run deterministically, behave identically
//! under the Forward Semantic transformation at any slot depth, and
//! profile from their natural binary exactly as a probe build would.
//!
//! Each test drives a fixed-seed [`Rng`] trial loop, so failures are
//! reproducible by construction (the failing seed is in the panic
//! message).

use std::collections::HashMap;

use branchlab::fsem::{fs_program, FsConfig};
use branchlab::interp::{run, ExecConfig};
use branchlab::ir::{
    lower, lower_with_plan, validate_module, Addr, BlockId, FuncId, LayoutPlan, Module,
};
use branchlab::profile::{profile_module, profile_module_with, Edge, Profile};
use branchlab::telemetry::Rng;
use branchlab::trace::{BranchEvent, BranchKind, ExecHooks};

/// A tiny expression AST rendered to MiniC source. Only bounded
/// constructs are generated, so every program terminates.
#[derive(Clone, Debug)]
enum Expr {
    Const(i8),
    Var(usize),
    Getc,
    /// `h(vN)`: the helper function, which may halt the program.
    Call(usize),
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

#[derive(Clone, Debug)]
enum Stmt {
    Assign(usize, Expr),
    Putc(Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (tN = 0; tN < bound; tN++) { body }` with a fresh variable.
    Loop(u8, Vec<Stmt>),
    Switch(Expr, Vec<(i8, Vec<Stmt>)>),
    /// `switch ((e) % (n + 1))` over dense cases `0..n` (n ≥ 6, so it
    /// lowers to a jump table): each arm is `{ }` (falls through) or a
    /// body that may end in `break`.
    Table(Expr, Vec<TableArm>),
}

#[derive(Clone, Debug)]
enum TableArm {
    Empty,
    Body(Vec<Stmt>, bool),
}

const NVARS: usize = 4;

const OPS: [&str; 11] = ["+", "-", "*", "/", "%", "<", "==", "&", "^", "&&", "||"];

fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        match rng.gen_range(0..4u32) {
            0 => Expr::Const(rng.gen_range(i8::MIN..=i8::MAX)),
            1 => Expr::Var(rng.gen_range(0..NVARS)),
            2 => Expr::Getc,
            _ => Expr::Call(rng.gen_range(0..NVARS)),
        }
    } else if rng.gen_bool(0.2) {
        Expr::Not(Box::new(random_expr(rng, depth - 1)))
    } else {
        let op = OPS[rng.gen_range(0..OPS.len())];
        let a = random_expr(rng, depth - 1);
        let b = random_expr(rng, depth - 1);
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
}

fn random_block(rng: &mut Rng, depth: u32) -> Vec<Stmt> {
    let len = rng.gen_range(0..3usize);
    (0..len).map(|_| random_stmt(rng, depth)).collect()
}

fn random_stmt(rng: &mut Rng, depth: u32) -> Stmt {
    if depth == 0 || rng.gen_bool(0.5) {
        if rng.gen_bool(0.6) {
            Stmt::Assign(rng.gen_range(0..NVARS), random_expr(rng, 3))
        } else {
            Stmt::Putc(random_expr(rng, 3))
        }
    } else {
        match rng.gen_range(0..4u32) {
            0 => {
                let cond = random_expr(rng, 3);
                let then = random_block(rng, depth - 1);
                let alt = random_block(rng, depth - 1);
                Stmt::If(cond, then, alt)
            }
            1 => {
                let bound = rng.gen_range(1u8..6);
                Stmt::Loop(bound, random_block(rng, depth - 1))
            }
            2 => {
                let scrut = random_expr(rng, 3);
                let narms = rng.gen_range(1..4usize);
                let mut arms: Vec<(i8, Vec<Stmt>)> = (0..narms)
                    .map(|_| {
                        let v = rng.gen_range(i8::MIN..=i8::MAX);
                        (v, random_block(rng, depth - 1))
                    })
                    .collect();
                arms.sort_by_key(|(v, _)| *v);
                arms.dedup_by_key(|(v, _)| *v);
                Stmt::Switch(scrut, arms)
            }
            _ => {
                let scrut = random_expr(rng, 2);
                let narms = rng.gen_range(6..10usize);
                let arms = (0..narms)
                    .map(|_| {
                        if rng.gen_bool(0.25) {
                            TableArm::Empty
                        } else {
                            TableArm::Body(random_block(rng, depth - 1), rng.gen_bool(0.7))
                        }
                    })
                    .collect();
                Stmt::Table(scrut, arms)
            }
        }
    }
}

fn random_stmts(rng: &mut Rng) -> Vec<Stmt> {
    let len = rng.gen_range(0..6usize);
    (0..len).map(|_| random_stmt(rng, 3)).collect()
}

fn random_input(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
}

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(c) => out.push_str(&c.to_string()),
        Expr::Var(v) => out.push_str(&format!("v{v}")),
        Expr::Getc => out.push_str("getc(0)"),
        Expr::Call(v) => out.push_str(&format!("h(v{v})")),
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            out.push_str(&format!(" {op} "));
            render_expr(b, out);
            out.push(')');
        }
        Expr::Not(e) => {
            out.push_str("!(");
            render_expr(e, out);
            out.push(')');
        }
    }
}

fn render_stmts(stmts: &[Stmt], out: &mut String, fresh: &mut usize) {
    for s in stmts {
        match s {
            Stmt::Assign(v, e) => {
                out.push_str(&format!("v{v} = "));
                render_expr(e, out);
                out.push_str(";\n");
            }
            Stmt::Putc(e) => {
                out.push_str("putc(1, ");
                render_expr(e, out);
                out.push_str(");\n");
            }
            Stmt::If(c, t, e) => {
                out.push_str("if (");
                render_expr(c, out);
                out.push_str(") {\n");
                render_stmts(t, out, fresh);
                out.push_str("} else {\n");
                render_stmts(e, out, fresh);
                out.push_str("}\n");
            }
            Stmt::Loop(n, body) => {
                let i = *fresh;
                *fresh += 1;
                out.push_str(&format!(
                    "int t{i};\nfor (t{i} = 0; t{i} < {n}; t{i}++) {{\n"
                ));
                render_stmts(body, out, fresh);
                out.push_str("}\n");
            }
            Stmt::Switch(scrut, arms) => {
                out.push_str("switch (");
                render_expr(scrut, out);
                out.push_str(") {\n");
                for (v, body) in arms {
                    out.push_str(&format!("case {v}:\n"));
                    render_stmts(body, out, fresh);
                    out.push_str("break;\n");
                }
                out.push_str("default: v0 = v0 + 1;\n}\n");
            }
            Stmt::Table(scrut, arms) => {
                out.push_str("switch ((");
                render_expr(scrut, out);
                out.push_str(&format!(") % {}) {{\n", arms.len() + 1));
                for (v, arm) in arms.iter().enumerate() {
                    out.push_str(&format!("case {v}:\n"));
                    match arm {
                        TableArm::Empty => out.push_str("{ }\n"),
                        TableArm::Body(body, brk) => {
                            render_stmts(body, out, fresh);
                            if *brk {
                                out.push_str("break;\n");
                            }
                        }
                    }
                }
                out.push_str("default: v1 = v1 ^ 5;\n}\n");
            }
        }
    }
}

/// The helper every `Expr::Call` calls: a jump table with empty arms,
/// and a `halt()` that fires for a few arguments, ending the program
/// with its caller's frames still open.
const HELPER: &str = "int h(int x) {
int r = x;
switch (x % 7) {
case 0: r = r + 3; break;
case 1: { }
case 2: r = r * 2; break;
case 3: r = r - 5;
case 4: r = r ^ 9; break;
case 5: { }
case 6: r = r + 1; break;
default: r = 0 - r;
}
if (r % 13 == 6) { halt(); }
return r & 255;
}
";

fn render_program(stmts: &[Stmt]) -> String {
    let mut src = String::from(HELPER);
    src.push_str("int main() {\n");
    for v in 0..NVARS {
        src.push_str(&format!("int v{v} = {};\n", v * 3));
    }
    let mut fresh = 0;
    render_stmts(stmts, &mut src, &mut fresh);
    src.push_str("return (v0 ^ v1) + (v2 ^ v3);\n}\n");
    src
}

fn exec_cfg() -> ExecConfig {
    ExecConfig {
        max_insts: 5_000_000,
        ..ExecConfig::default()
    }
}

#[test]
fn generated_programs_compile_and_validate() {
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let src = render_program(&random_stmts(&mut rng));
        let module = branchlab::minic::compile(&src).unwrap_or_else(|e| {
            panic!("seed {seed}: generated program failed to compile: {e}\n{src}")
        });
        assert!(
            validate_module(&module).is_ok(),
            "seed {seed}: module invalid\n{src}"
        );
        assert!(
            lower(&module).is_ok(),
            "seed {seed}: lowering failed\n{src}"
        );
    }
}

#[test]
fn interpreter_is_deterministic() {
    for seed in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0xd373_7213 ^ seed);
        let module = branchlab::minic::compile(&render_program(&random_stmts(&mut rng))).unwrap();
        let program = lower(&module).unwrap();
        let input = random_input(&mut rng, 64);
        let a = run(&program, &exec_cfg(), &[&input], &mut ()).unwrap();
        let b = run(&program, &exec_cfg(), &[&input], &mut ()).unwrap();
        assert_eq!(a.exit_value, b.exit_value, "seed {seed}");
        assert_eq!(a.outputs, b.outputs, "seed {seed}");
        assert_eq!(a.stats, b.stats, "seed {seed}");
    }
}

#[test]
fn fs_transform_preserves_semantics_of_arbitrary_programs() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xf5ea_0a11u64.wrapping_add(seed));
        let stmts = random_stmts(&mut rng);
        let input = random_input(&mut rng, 64);
        let other = random_input(&mut rng, 64);
        let slots = rng.gen_range(0u16..6);
        let module = branchlab::minic::compile(&render_program(&stmts)).unwrap();
        let conventional = lower(&module).unwrap();
        // Profile on `input`, evaluate on both `input` and `other`.
        let profile = profile_module(&module, &[vec![input.clone()]]).unwrap();
        let forward = fs_program(
            &module,
            &profile,
            FsConfig {
                slots,
                slot_jumps: slots > 0,
            },
        )
        .unwrap();
        for data in [&input, &other] {
            let a = run(&conventional, &exec_cfg(), &[data], &mut ()).unwrap();
            let b = run(&forward, &exec_cfg(), &[data], &mut ()).unwrap();
            assert_eq!(a.exit_value, b.exit_value, "seed {seed}, slots {slots}");
            assert_eq!(a.outputs, b.outputs, "seed {seed}, slots {slots}");
        }
    }
}

/// Reference profiler over the probe build (no jump elision): per
/// event, the successor's block by address, the edge and the site.
struct Oracle {
    addr_to_block: HashMap<u32, (FuncId, BlockId)>,
    profile: Profile,
}

impl ExecHooks for Oracle {
    fn branch(&mut self, ev: &BranchEvent) {
        if ev.kind == BranchKind::Cond {
            self.profile.sites.branch(ev);
        }
        if let Some(&(func, to)) = self.addr_to_block.get(&ev.next_pc().0) {
            if func == ev.branch.func {
                let from = ev.branch.block;
                *self
                    .profile
                    .edges
                    .entry(Edge { func, from, to })
                    .or_insert(0) += 1;
            }
        }
    }

    fn call(&mut self, _from: Addr, callee: FuncId) {
        self.profile.func_entries[callee.0 as usize] += 1;
    }
}

fn probe_profile(module: &Module, runs: &[Vec<Vec<u8>>]) -> Profile {
    let probes = LayoutPlan {
        elide_jumps: false,
        ..LayoutPlan::natural(module)
    };
    let program = lower_with_plan(module, &probes).unwrap();
    let mut oracle = Oracle {
        addr_to_block: HashMap::new(),
        profile: Profile {
            func_entries: vec![0; module.funcs.len()],
            ..Profile::default()
        },
    };
    for (fi, blocks) in program.block_addrs.iter().enumerate() {
        for (bi, addr) in blocks.iter().enumerate() {
            let block = (FuncId(fi as u32), BlockId(bi as u32));
            assert!(oracle.addr_to_block.insert(addr.0, block).is_none());
        }
    }
    for streams in runs {
        oracle.profile.func_entries[module.entry.0 as usize] += 1;
        let refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&program, &exec_cfg(), &refs, &mut oracle).unwrap();
    }
    oracle.profile
}

/// Calls not yet returned from: nonzero at the end of a run that
/// halted inside `h`.
struct OpenFrames(u64);

impl ExecHooks for OpenFrames {
    fn call(&mut self, _from: Addr, _callee: FuncId) {
        self.0 += 1;
    }

    fn ret(&mut self, _from: Addr, _to: Addr) {
        self.0 -= 1;
    }
}

#[test]
fn derived_profile_equals_the_probe_build_on_arbitrary_programs() {
    let (mut tables, mut halted) = (0, 0);
    for seed in 0..240u64 {
        let mut rng = Rng::seed_from_u64(0x9b0f_11e5 ^ seed);
        let src = render_program(&random_stmts(&mut rng));
        let module = branchlab::minic::compile(&src).unwrap();
        let runs = vec![
            vec![random_input(&mut rng, 64)],
            vec![random_input(&mut rng, 64)],
        ];
        let derived = profile_module_with(&module, &runs, &exec_cfg())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        assert_eq!(derived, probe_profile(&module, &runs), "seed {seed}\n{src}");
        tables += usize::from(src.contains("switch (("));
        let program = lower(&module).unwrap();
        for r in &runs {
            let mut open = OpenFrames(0);
            run(&program, &exec_cfg(), &[&r[0]], &mut open).unwrap();
            halted += usize::from(open.0 > 0);
        }
    }
    // The generator reaches the cases the derivation must get right.
    assert!(tables >= 40, "{tables} programs with a table switch");
    assert!(halted >= 5, "{halted} runs ended in halt() inside h");
}
