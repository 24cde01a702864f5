//! # branchlab-interp
//!
//! Interpreter for `branchlab-ir` linear programs.
//!
//! Executes laid-out code with a flat word memory (globals + frame
//! stack), per-activation register files, up to eight byte-oriented input
//! and output streams, and an instruction-fuel limit. Every executed
//! control transfer is reported to an [`ExecHooks`] implementation —
//! this event stream is what drives the branch predictors, the profiler,
//! and the pipeline simulator.
//!
//! Calls and returns are *not* reported as branch events: the machine
//! model (per DESIGN.md) handles returns with a return-address stack in
//! the fetch unit and treats calls as perfectly-predicted transfers, so
//! they are excluded from the paper's branch statistics.
//!
//! ```
//! use branchlab_interp::{run, ExecConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = branchlab_minic::compile(
//!     "int main() { int c; while ((c = getc(0)) != -1) { putc(1, c + 1); } return 0; }",
//! )?;
//! let program = branchlab_ir::lower(&module)?;
//! let out = run(&program, &ExecConfig::default(), &[b"abc"], &mut ())?;
//! assert_eq!(out.outputs[1], b"bcd");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use branchlab_ir::{Addr, FuncId, Inst, Operand, Program, Reg};
pub use branchlab_trace::{BranchEvent, BranchKind, ExecHooks};

/// Maximum number of I/O streams.
pub const NUM_STREAMS: usize = 8;

/// Execution limits and memory sizing.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Total data memory in words (globals at the bottom, then the frame
    /// stack growing upward).
    pub memory_words: usize,
    /// Instruction budget; execution stops with [`ExecError::OutOfFuel`]
    /// when exceeded.
    pub max_insts: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            memory_words: 1 << 22,
            max_insts: u64::MAX,
            max_call_depth: 100_000,
        }
    }
}

/// Dynamic instruction counts for one run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total executed instructions.
    pub insts: u64,
    /// All branches (conditional + unconditional, excl. calls/returns).
    pub branches: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Taken conditional branches.
    pub taken_cond: u64,
    /// Unconditional direct branches (known target).
    pub uncond_direct: u64,
    /// Unconditional indirect branches (unknown target).
    pub uncond_indirect: u64,
    /// Call instructions executed.
    pub calls: u64,
}

impl ExecStats {
    /// Fraction of dynamic instructions that are branches (the paper's
    /// *Control* column of Table 1).
    #[must_use]
    pub fn control_fraction(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.branches as f64 / self.insts as f64
        }
    }

    /// Accumulate another run's statistics (multi-run profiling).
    pub fn merge(&mut self, other: &ExecStats) {
        self.insts += other.insts;
        self.branches += other.branches;
        self.cond_branches += other.cond_branches;
        self.taken_cond += other.taken_cond;
        self.uncond_direct += other.uncond_direct;
        self.uncond_indirect += other.uncond_indirect;
        self.calls += other.calls;
    }

    /// Add these counts to `prefix.*` counters in a metrics registry.
    /// The interpreter's hot loop is never instrumented directly; runs
    /// export their totals here after the fact.
    pub fn export(&self, registry: &branchlab_telemetry::MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("insts", self.insts),
            ("branches", self.branches),
            ("cond_branches", self.cond_branches),
            ("taken_cond", self.taken_cond),
            ("uncond_direct", self.uncond_direct),
            ("uncond_indirect", self.uncond_indirect),
            ("calls", self.calls),
        ] {
            registry.counter(&format!("{prefix}.{name}")).add(value);
        }
    }
}

/// Result of a completed execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// `main`'s return value (0 after an explicit `halt`).
    pub exit_value: i64,
    /// Bytes written to each output stream.
    pub outputs: Vec<Vec<u8>>,
    /// Dynamic instruction statistics.
    pub stats: ExecStats,
}

/// A runtime error. Each is a deterministic function of
/// `(program, inputs, config)`: the same execution raises it again.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described in variant docs
pub enum ExecError {
    /// The instruction budget was exhausted.
    OutOfFuel { at: Addr },
    /// A load or store touched memory outside `0..memory_words`.
    MemoryFault { at: Addr, addr: i64 },
    /// The frame stack outgrew data memory.
    StackOverflow { at: Addr },
    /// Call depth exceeded the configured maximum.
    CallDepthExceeded { at: Addr },
    /// Control reached an address outside the program.
    PcOutOfRange { pc: u32 },
    /// The globals do not fit in the configured memory.
    MemoryTooSmall { need: usize, have: usize },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OutOfFuel { at } => write!(f, "out of fuel at {at}"),
            ExecError::MemoryFault { at, addr } => {
                write!(f, "memory fault at {at}: address {addr}")
            }
            ExecError::StackOverflow { at } => write!(f, "stack overflow at {at}"),
            ExecError::CallDepthExceeded { at } => write!(f, "call depth exceeded at {at}"),
            ExecError::PcOutOfRange { pc } => write!(f, "pc @{pc} out of range"),
            ExecError::MemoryTooSmall { need, have } => {
                write!(f, "memory too small: need {need} words, have {have}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A caller's state parked while a callee runs. The *current* frame's
/// registers live in a local of [`run`]'s hot loop, so per-instruction
/// register access never goes through the frame stack.
struct Suspended {
    regs: Vec<i64>,
    ret_pc: u32,
    ret_dst: Option<Reg>,
    saved_fp: i64,
    saved_sp: i64,
}

/// Execute a program to completion.
///
/// `inputs` supplies the byte contents of input streams `0..inputs.len()`
/// (reads past the end, or from unsupplied streams, yield −1).
///
/// # Errors
/// Returns [`ExecError`] on memory faults, fuel exhaustion, stack
/// overflow, or control escaping the program.
///
/// # Panics
/// Panics if `program` is malformed (e.g. dangling function indices);
/// programs produced by `branchlab-minic` + `branchlab-ir` lowering are
/// always well-formed.
pub fn run<H: ExecHooks>(
    program: &Program,
    config: &ExecConfig,
    inputs: &[&[u8]],
    hooks: &mut H,
) -> Result<Outcome, ExecError> {
    let globals = program.globals_words as usize;
    if globals > config.memory_words {
        return Err(ExecError::MemoryTooSmall {
            need: globals,
            have: config.memory_words,
        });
    }
    let mut mem = vec![0i64; config.memory_words];
    mem[..program.globals_init.len()].copy_from_slice(&program.globals_init);

    let entry_fn = program
        .meta
        .get(program.entry.0 as usize)
        .map(|m| m.func)
        .unwrap_or(FuncId(0));
    let entry_info = &program.funcs[entry_fn.0 as usize];
    let fp0 = globals as i64;
    let sp0 = fp0 + i64::from(entry_info.frame_words);
    if sp0 > config.memory_words as i64 {
        return Err(ExecError::StackOverflow { at: program.entry });
    }

    // The current activation's registers live in this local; suspended
    // callers are parked on `stack`. Keeping `regs` out of the frame
    // vector removes a bounds-checked `last_mut()` from every operand
    // access in the loop below.
    let mut regs = vec![0i64; entry_info.num_regs as usize];
    let mut stack: Vec<Suspended> = Vec::new();
    let mut fp = fp0;
    let mut sp = sp0;
    let mut pc = program.entry.0;

    let mut in_pos = [0usize; NUM_STREAMS];
    // Output volume tracks input volume for stream-processing programs;
    // pre-sizing (bounded) avoids repeated regrowth in `putc` loops.
    let out_cap = inputs
        .iter()
        .map(|data| data.len())
        .sum::<usize>()
        .clamp(64, 1 << 16);
    let mut outputs: Vec<Vec<u8>> = (0..NUM_STREAMS)
        .map(|_| Vec::with_capacity(out_cap))
        .collect();
    let mut stats = ExecStats::default();
    let code = &program.code;
    let meta = &program.meta;

    macro_rules! val {
        ($op:expr) => {
            match $op {
                Operand::Reg(r) => regs[r.0 as usize],
                Operand::Imm(v) => v,
            }
        };
    }

    let exit_value = loop {
        if stats.insts >= config.max_insts {
            return Err(ExecError::OutOfFuel { at: Addr(pc) });
        }
        let Some(inst) = code.get(pc as usize) else {
            return Err(ExecError::PcOutOfRange { pc });
        };
        stats.insts += 1;

        match inst {
            Inst::Alu { op, dst, a, b } => {
                let (a, b) = (val!(*a), val!(*b));
                regs[dst.0 as usize] = op.eval(a, b);
                pc += 1;
            }
            Inst::Cmp { cond, dst, a, b } => {
                let (a, b) = (val!(*a), val!(*b));
                regs[dst.0 as usize] = i64::from(cond.eval(a, b));
                pc += 1;
            }
            Inst::Mov { dst, src } => {
                let v = val!(*src);
                regs[dst.0 as usize] = v;
                pc += 1;
            }
            Inst::Ld { dst, base, offset } => {
                let addr = val!(*base).wrapping_add(*offset);
                let Some(&v) = usize::try_from(addr).ok().and_then(|a| mem.get(a)) else {
                    return Err(ExecError::MemoryFault { at: Addr(pc), addr });
                };
                regs[dst.0 as usize] = v;
                pc += 1;
            }
            Inst::St { src, base, offset } => {
                let v = val!(*src);
                let addr = val!(*base).wrapping_add(*offset);
                let Some(slot) = usize::try_from(addr).ok().and_then(|a| mem.get_mut(a)) else {
                    return Err(ExecError::MemoryFault { at: Addr(pc), addr });
                };
                *slot = v;
                pc += 1;
            }
            Inst::FrameAddr { dst, offset } => {
                regs[dst.0 as usize] = fp.wrapping_add(*offset);
                pc += 1;
            }
            Inst::In { dst, stream } => {
                let s = (val!(*stream) as usize) & (NUM_STREAMS - 1);
                let byte = inputs
                    .get(s)
                    .and_then(|data| data.get(in_pos[s]))
                    .copied()
                    .map_or(-1, i64::from);
                if byte >= 0 {
                    in_pos[s] += 1;
                }
                regs[dst.0 as usize] = byte;
                pc += 1;
            }
            Inst::Out { src, stream } => {
                let v = val!(*src);
                let s = (val!(*stream) as usize) & (NUM_STREAMS - 1);
                outputs[s].push(v as u8);
                pc += 1;
            }
            Inst::Br {
                cond,
                a,
                b,
                target,
                slots,
                likely,
            } => {
                let (a, b) = (val!(*a), val!(*b));
                let taken = cond.eval(a, b);
                let fallthrough = Addr(pc + 1 + u32::from(*slots));
                stats.branches += 1;
                stats.cond_branches += 1;
                stats.taken_cond += u64::from(taken);
                hooks.branch(&BranchEvent {
                    pc: Addr(pc),
                    kind: BranchKind::Cond,
                    taken,
                    target: *target,
                    fallthrough,
                    branch: meta[pc as usize].branch_id(),
                    likely: *likely,
                    cond: Some(*cond),
                });
                pc = if taken { target.0 } else { fallthrough.0 };
            }
            Inst::Jmp { target, slots } => {
                stats.branches += 1;
                stats.uncond_direct += 1;
                hooks.branch(&BranchEvent {
                    pc: Addr(pc),
                    kind: BranchKind::UncondDirect,
                    taken: true,
                    target: *target,
                    fallthrough: Addr(pc + 1 + u32::from(*slots)),
                    branch: meta[pc as usize].branch_id(),
                    likely: false,
                    cond: None,
                });
                pc = target.0;
            }
            Inst::JmpTable { sel, table } => {
                let sel = val!(*sel);
                let target = program.jump_tables[*table as usize].resolve(sel);
                stats.branches += 1;
                stats.uncond_indirect += 1;
                hooks.branch(&BranchEvent {
                    pc: Addr(pc),
                    kind: BranchKind::UncondIndirect,
                    taken: true,
                    target,
                    fallthrough: Addr(pc + 1),
                    branch: meta[pc as usize].branch_id(),
                    likely: false,
                    cond: None,
                });
                pc = target.0;
            }
            Inst::Call { func, args, dst } => {
                // `stack` holds suspended callers only, so current depth
                // is `stack.len() + 1` (the original frame-vector length).
                if stack.len() + 1 >= config.max_call_depth {
                    return Err(ExecError::CallDepthExceeded { at: Addr(pc) });
                }
                stats.calls += 1;
                hooks.call(Addr(pc), *func);
                let info = &program.funcs[func.0 as usize];
                let mut callee_regs = vec![0i64; info.num_regs as usize];
                for (i, r) in args.iter().enumerate() {
                    callee_regs[i] = regs[r.0 as usize];
                }
                let new_fp = sp;
                let new_sp = sp + i64::from(info.frame_words);
                if new_sp > config.memory_words as i64 {
                    return Err(ExecError::StackOverflow { at: Addr(pc) });
                }
                stack.push(Suspended {
                    regs: std::mem::replace(&mut regs, callee_regs),
                    ret_pc: pc + 1,
                    ret_dst: *dst,
                    saved_fp: fp,
                    saved_sp: sp,
                });
                fp = new_fp;
                sp = new_sp;
                pc = info.entry.0;
            }
            Inst::Ret { val } => {
                let v = match val {
                    Some(op) => val!(*op),
                    None => 0,
                };
                let Some(caller) = stack.pop() else {
                    // `main` returned: the machine halts; this is program
                    // termination, not a control transfer, so no ret hook.
                    break v;
                };
                fp = caller.saved_fp;
                sp = caller.saved_sp;
                hooks.ret(Addr(pc), Addr(caller.ret_pc));
                regs = caller.regs;
                if let Some(dst) = caller.ret_dst {
                    regs[dst.0 as usize] = v;
                }
                pc = caller.ret_pc;
            }
            Inst::Nop => pc += 1,
            Inst::Halt => break 0,
        }
    };

    Ok(Outcome {
        exit_value,
        outputs,
        stats,
    })
}

/// Convenience: execute with default limits and no hooks.
///
/// # Errors
/// Same as [`run`].
pub fn run_simple(program: &Program, inputs: &[&[u8]]) -> Result<Outcome, ExecError> {
    run(program, &ExecConfig::default(), inputs, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_ir::lower;
    use branchlab_minic::compile;

    fn exec(src: &str, inputs: &[&[u8]]) -> Outcome {
        let m = compile(src).unwrap();
        let p = lower(&m).unwrap();
        run_simple(&p, inputs).unwrap()
    }

    #[test]
    fn returns_exit_value() {
        assert_eq!(exec("int main() { return 7; }", &[]).exit_value, 7);
    }

    #[test]
    fn arithmetic_and_locals() {
        let out = exec(
            "int main() { int x = 10; int y = 3; return x / y * 100 + x % y; }",
            &[],
        );
        assert_eq!(out.exit_value, 301);
    }

    #[test]
    fn loops_accumulate() {
        let out = exec(
            "int main() { int i; int s = 0; for (i = 1; i <= 100; i++) { s += i; } return s; }",
            &[],
        );
        assert_eq!(out.exit_value, 5050);
    }

    #[test]
    fn while_and_break_continue() {
        let src = r"
            int main() {
                int i = 0; int s = 0;
                while (1) {
                    i++;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    s += i;
                }
                return s; // 1+3+5+7+9
            }
        ";
        assert_eq!(exec(src, &[]).exit_value, 25);
    }

    #[test]
    fn recursion_fib() {
        let src = r"
            int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            int main() { return fib(15); }
        ";
        assert_eq!(exec(src, &[]).exit_value, 610);
    }

    #[test]
    fn globals_and_arrays() {
        let src = r"
            int g = 5;
            int table[4] = {10, 20, 30};
            int main() {
                int buf[8];
                buf[3] = table[1] + g;
                g = buf[3];
                table[3] = 2;
                return g * table[3];
            }
        ";
        assert_eq!(exec(src, &[]).exit_value, 50);
    }

    #[test]
    fn io_echo_shifts_bytes() {
        let out = exec(
            "int main() { int c; while ((c = getc(0)) != -1) { putc(1, c + 1); } return 0; }",
            &[b"abc"],
        );
        assert_eq!(out.outputs[1], b"bcd");
    }

    #[test]
    fn multiple_input_streams() {
        let src = r"
            int main() {
                int a; int b;
                while ((a = getc(0)) != -1 && (b = getc(1)) != -1) {
                    if (a != b) { return 1; }
                }
                return 0;
            }
        ";
        let m = compile(src).unwrap();
        let p = lower(&m).unwrap();
        assert_eq!(run_simple(&p, &[b"same", b"same"]).unwrap().exit_value, 0);
        assert_eq!(run_simple(&p, &[b"same", b"s0me"]).unwrap().exit_value, 1);
    }

    #[test]
    fn switch_fall_through_executes() {
        let src = r"
            int main() {
                int x = 0;
                switch (getc(0)) {
                    case 'a': x += 1;
                    case 'b': x += 10; break;
                    case 'c': x += 100; break;
                    default: x += 1000;
                }
                return x;
            }
        ";
        let m = compile(src).unwrap();
        let p = lower(&m).unwrap();
        assert_eq!(run_simple(&p, &[b"a"]).unwrap().exit_value, 11);
        assert_eq!(run_simple(&p, &[b"b"]).unwrap().exit_value, 10);
        assert_eq!(run_simple(&p, &[b"c"]).unwrap().exit_value, 100);
        assert_eq!(run_simple(&p, &[b"z"]).unwrap().exit_value, 1000);
    }

    #[test]
    fn string_literals_are_readable() {
        let src = r#"
            int main() {
                int s = "hey";
                int i = 0;
                while (s[i] != 0) { putc(1, s[i]); i++; }
                return i;
            }
        "#;
        let out = exec(src, &[]);
        assert_eq!(out.outputs[1], b"hey");
        assert_eq!(out.exit_value, 3);
    }

    #[test]
    fn stats_count_instructions_and_branches() {
        let out = exec(
            "int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }",
            &[],
        );
        assert!(out.stats.insts > 30, "{:?}", out.stats);
        // 11 condition evaluations (10 enter + 1 exit).
        assert_eq!(out.stats.cond_branches, 11);
        assert!(out.stats.branches >= out.stats.cond_branches);
        assert!(out.stats.control_fraction() > 0.1);
    }

    #[test]
    fn branch_events_are_consistent() {
        struct Check {
            n: u64,
        }
        impl ExecHooks for Check {
            fn branch(&mut self, ev: &BranchEvent) {
                self.n += 1;
                assert_eq!(
                    ev.next_pc(),
                    if ev.taken { ev.target } else { ev.fallthrough }
                );
                if ev.kind != BranchKind::Cond {
                    assert!(ev.taken);
                }
            }
        }
        let m = compile(
            "int main() { int i; int s = 0; for (i = 0; i < 5; i++) { s += getc(0); } return s; }",
        )
        .unwrap();
        let p = lower(&m).unwrap();
        let mut check = Check { n: 0 };
        let out = run(&p, &ExecConfig::default(), &[b"abcde"], &mut check).unwrap();
        assert_eq!(check.n, out.stats.branches);
    }

    #[test]
    fn paired_hooks_both_observe() {
        #[derive(Default)]
        struct Count(u64);
        impl ExecHooks for Count {
            fn branch(&mut self, _: &BranchEvent) {
                self.0 += 1;
            }
        }
        let m = compile("int main() { int i; for (i = 0; i < 3; i++) { } return 0; }").unwrap();
        let p = lower(&m).unwrap();
        let mut a = Count::default();
        let mut b = Count::default();
        run(&p, &ExecConfig::default(), &[], &mut (&mut a, &mut b)).unwrap();
        assert!(a.0 > 0);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn out_of_fuel_stops_infinite_loop() {
        let m = compile("int main() { while (1) { } return 0; }").unwrap();
        let p = lower(&m).unwrap();
        let cfg = ExecConfig {
            max_insts: 1000,
            ..ExecConfig::default()
        };
        assert!(matches!(
            run(&p, &cfg, &[], &mut ()),
            Err(ExecError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn memory_fault_on_wild_store() {
        let m = compile("int a[4]; int main() { a[-5000000] = 1; return 0; }").unwrap();
        let p = lower(&m).unwrap();
        assert!(matches!(
            run_simple(&p, &[]),
            Err(ExecError::MemoryFault { .. })
        ));
    }

    #[test]
    fn deep_recursion_hits_depth_limit() {
        let src = "int f(int n) { return f(n + 1); } int main() { return f(0); }";
        let m = compile(src).unwrap();
        let p = lower(&m).unwrap();
        let cfg = ExecConfig {
            max_call_depth: 64,
            ..ExecConfig::default()
        };
        assert!(matches!(
            run(&p, &cfg, &[], &mut ()),
            Err(ExecError::CallDepthExceeded { .. })
        ));
    }

    #[test]
    fn frame_arrays_are_isolated_per_activation() {
        let src = r"
            int f(int n) {
                int buf[4];
                buf[0] = n;
                if (n > 0) { f(n - 1); }
                return buf[0]; // must still be n after the recursive call
            }
            int main() { return f(3); }
        ";
        assert_eq!(exec(src, &[]).exit_value, 3);
    }

    #[test]
    fn halt_stops_with_zero() {
        let out = exec("int main() { putc(0, 'x'); halt(); }", &[]);
        assert_eq!(out.exit_value, 0);
        assert_eq!(out.outputs[0], b"x");
    }

    #[test]
    fn logical_operators_short_circuit() {
        let src = r"
            int main() {
                int c = 0;
                if (0 && (c = getc(0)) != -1) { return 99; }
                if (1 || (c = getc(0)) != -1) { return c; }
                return -2;
            }
        ";
        // Stream has one byte; both conditions must avoid reading it.
        assert_eq!(exec(src, &[b"a"]).exit_value, 0);
    }

    #[test]
    fn determinism_same_input_same_everything() {
        let src = r"
            int main() {
                int c; int h = 0;
                while ((c = getc(0)) != -1) { h = h * 31 + c; putc(1, h & 127); }
                return h & 0xffff;
            }
        ";
        let m = compile(src).unwrap();
        let p = lower(&m).unwrap();
        let a = run_simple(&p, &[b"determinism"]).unwrap();
        let b = run_simple(&p, &[b"determinism"]).unwrap();
        assert_eq!(a.exit_value, b.exit_value);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }
}
