//! IR code generation (with integrated semantic checking) for MiniC.

use std::collections::HashMap;
use std::fmt;

use branchlab_ir::{AluOp, BlockId, Cond, FuncId, FunctionBuilder, Module, Op, Operand, Reg, Term};

use crate::ast::{BinOp, Expr, Func, Item, Stmt, StmtKind, SwitchArm, UnOp};
use crate::parser::ParseError;
use crate::token::Pos;

/// Maximum span (max − min + 1) of `switch` case labels; wider switches
/// would create unreasonable jump tables.
const MAX_SWITCH_SPAN: i64 = 4096;

/// Jump-table heuristics, mirroring late-1980s compilers: a `switch`
/// becomes an indirect jump through a table only when it has at least
/// this many cases…
const MIN_TABLE_CASES: usize = 6;
/// …and the table is at least this dense (cases / span); sparse or tiny
/// switches lower to a compare chain instead.
const MIN_TABLE_DENSITY: f64 = 0.5;

/// A compilation error (lexical, syntactic, or semantic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Source position, when known.
    pub pos: Option<Pos>,
    /// Description.
    pub msg: String,
}

impl CompileError {
    fn at(pos: Pos, msg: impl Into<String>) -> Self {
        CompileError {
            pos: Some(pos),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "compile error at {p}: {}", self.msg),
            None => write!(f, "compile error: {}", self.msg),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError {
            pos: Some(e.pos),
            msg: e.msg,
        }
    }
}

/// How a name is bound.
#[derive(Clone, Debug)]
enum Binding {
    /// Local scalar living in a register.
    Local(Reg),
    /// Local array at a frame offset.
    LocalArray { offset: i64 },
    /// Global scalar at a data address.
    GlobalScalar { addr: u32 },
    /// Global array starting at a data address.
    GlobalArray { addr: u32 },
}

/// Compile MiniC source text to a validated IR module.
///
/// # Errors
/// Returns [`CompileError`] on any lexical, syntax, or semantic error
/// (undeclared names, arity mismatches, missing `main`, …).
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let items = crate::parser::parse(src)?;
    let mut cx = ModuleCx::default();

    // Pass 1: globals and function signatures.
    let mut funcs_ast: Vec<&Func> = Vec::new();
    for item in &items {
        match item {
            Item::GlobalScalar { name, init, pos } => {
                let addr = cx.alloc_data(&[*init]);
                cx.bind_global(name, Binding::GlobalScalar { addr }, *pos)?;
            }
            Item::GlobalArray {
                name,
                size,
                init,
                pos,
            } => {
                let mut words = init.clone();
                words.resize(*size, 0);
                let addr = cx.alloc_data(&words);
                cx.bind_global(name, Binding::GlobalArray { addr }, *pos)?;
            }
            Item::Func(f) => {
                if is_builtin(&f.name) {
                    return Err(CompileError::at(
                        f.pos,
                        format!("`{}` is a builtin and cannot be redefined", f.name),
                    ));
                }
                if cx.funcs.contains_key(&f.name) {
                    return Err(CompileError::at(
                        f.pos,
                        format!("function `{}` defined twice", f.name),
                    ));
                }
                let id = FuncId(funcs_ast.len() as u32);
                cx.funcs.insert(f.name.clone(), (id, f.params.len()));
                funcs_ast.push(f);
            }
        }
    }

    let Some(&(entry, main_params)) = cx.funcs.get("main") else {
        return Err(CompileError {
            pos: None,
            msg: "no `main` function".into(),
        });
    };
    if main_params != 0 {
        return Err(CompileError {
            pos: None,
            msg: "`main` must take no parameters".into(),
        });
    }

    // Pass 2: function bodies.
    let mut funcs = Vec::with_capacity(funcs_ast.len());
    for (i, f) in funcs_ast.iter().enumerate() {
        funcs.push(gen_function(&mut cx, f, FuncId(i as u32))?);
    }

    let module = Module {
        funcs,
        globals_words: cx.data.len() as u32,
        globals_init: cx.data,
        entry,
    };
    branchlab_ir::validate_module(&module).map_err(|e| CompileError {
        pos: None,
        msg: format!("internal codegen bug: {e}"),
    })?;
    Ok(module)
}

fn is_builtin(name: &str) -> bool {
    matches!(name, "getc" | "putc" | "halt")
}

#[derive(Default)]
struct ModuleCx {
    globals: HashMap<String, Binding>,
    data: Vec<i64>,
    strings: HashMap<Vec<u8>, u32>,
    funcs: HashMap<String, (FuncId, usize)>,
}

impl ModuleCx {
    fn alloc_data(&mut self, words: &[i64]) -> u32 {
        let addr = self.data.len() as u32;
        self.data.extend_from_slice(words);
        addr
    }

    fn bind_global(&mut self, name: &str, b: Binding, pos: Pos) -> Result<(), CompileError> {
        if self.globals.insert(name.to_string(), b).is_some() {
            return Err(CompileError::at(
                pos,
                format!("global `{name}` defined twice"),
            ));
        }
        Ok(())
    }

    fn intern_string(&mut self, s: &[u8]) -> u32 {
        if let Some(&addr) = self.strings.get(s) {
            return addr;
        }
        let words: Vec<i64> = s
            .iter()
            .map(|&b| i64::from(b))
            .chain(std::iter::once(0))
            .collect();
        let addr = self.alloc_data(&words);
        self.strings.insert(s.to_vec(), addr);
        addr
    }
}

struct FuncCx<'m> {
    cx: &'m mut ModuleCx,
    fb: FunctionBuilder,
    scopes: Vec<HashMap<String, Binding>>,
    breaks: Vec<BlockId>,
    continues: Vec<BlockId>,
}

fn gen_function(
    cx: &mut ModuleCx,
    f: &Func,
    id: FuncId,
) -> Result<branchlab_ir::Function, CompileError> {
    let nparams = u16::try_from(f.params.len())
        .map_err(|_| CompileError::at(f.pos, "too many parameters"))?;
    let mut fcx = FuncCx {
        cx,
        fb: FunctionBuilder::new(f.name.clone(), id, nparams),
        scopes: vec![HashMap::new()],
        breaks: Vec::new(),
        continues: Vec::new(),
    };
    for (i, p) in f.params.iter().enumerate() {
        fcx.declare(p, Binding::Local(Reg(i as u16)), f.pos)?;
    }
    fcx.gen_stmts(&f.body)?;
    Ok(fcx.fb.finish())
}

impl FuncCx<'_> {
    fn declare(&mut self, name: &str, b: Binding, pos: Pos) -> Result<(), CompileError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.insert(name.to_string(), b).is_some() {
            return Err(CompileError::at(
                pos,
                format!("`{name}` declared twice in this scope"),
            ));
        }
        Ok(())
    }

    fn lookup(&self, name: &str, pos: Pos) -> Result<Binding, CompileError> {
        for scope in self.scopes.iter().rev() {
            if let Some(b) = scope.get(name) {
                return Ok(b.clone());
            }
        }
        self.cx
            .globals
            .get(name)
            .cloned()
            .ok_or_else(|| CompileError::at(pos, format!("undeclared variable `{name}`")))
    }

    /// Ensure the current insertion point is an open block (after a
    /// `break`/`return`, further statements are dead but still compiled).
    fn ensure_open(&mut self) {
        if self.fb.current_sealed() {
            let dead = self.fb.new_block();
            self.fb.switch_to(dead);
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_reg(&mut self, op: Operand) -> Reg {
        match op {
            Operand::Reg(r) => r,
            Operand::Imm(_) => {
                let r = self.fb.new_reg();
                self.fb.push(Op::Mov { dst: r, src: op });
                r
            }
        }
    }

    // ---- statements ----

    fn gen_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.ensure_open();
            self.gen_stmt(s)?;
        }
        Ok(())
    }

    fn gen_scoped(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        let r = self.gen_stmts(stmts);
        self.scopes.pop();
        r
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match &s.kind {
            StmtKind::DeclScalar { name, init } => {
                let value = match init {
                    Some(e) => self.gen_expr(e)?,
                    None => Operand::Imm(0),
                };
                let r = self.fb.new_reg();
                self.fb.push(Op::Mov { dst: r, src: value });
                self.declare(name, Binding::Local(r), s.pos)?;
            }
            StmtKind::DeclArray { name, size } => {
                let words =
                    u32::try_from(*size).map_err(|_| CompileError::at(s.pos, "array too large"))?;
                let offset = self.fb.alloc_frame(words);
                self.declare(name, Binding::LocalArray { offset }, s.pos)?;
            }
            StmtKind::AssignVar { name, value } => {
                let v = self.gen_expr(value)?;
                match self.lookup(name, s.pos)? {
                    Binding::Local(r) => self.fb.push(Op::Mov { dst: r, src: v }),
                    Binding::GlobalScalar { addr } => self.fb.push(Op::St {
                        src: v,
                        base: Operand::Imm(i64::from(addr)),
                        offset: 0,
                    }),
                    Binding::LocalArray { .. } | Binding::GlobalArray { .. } => {
                        return Err(CompileError::at(
                            s.pos,
                            format!("cannot assign to array `{name}` without an index"),
                        ))
                    }
                }
            }
            StmtKind::AssignIndex { base, index, value } => {
                let b = self.gen_expr(base)?;
                let i = self.gen_expr(index)?;
                let v = self.gen_expr(value)?;
                let (base_op, offset) = self.address_of(b, i);
                self.fb.push(Op::St {
                    src: v,
                    base: base_op,
                    offset,
                });
            }
            StmtKind::If { cond, then_, else_ } => {
                let then_bb = self.fb.new_block();
                let join = self.fb.new_block();
                let else_bb = if else_.is_empty() {
                    join
                } else {
                    self.fb.new_block()
                };
                self.gen_cond(cond, then_bb, else_bb)?;
                self.fb.switch_to(then_bb);
                self.gen_scoped(then_)?;
                self.fb.jump_if_open(join);
                if !else_.is_empty() {
                    self.fb.switch_to(else_bb);
                    self.gen_scoped(else_)?;
                    self.fb.jump_if_open(join);
                }
                self.fb.switch_to(join);
            }
            StmtKind::While { cond, body } => {
                let cond_bb = self.fb.new_block();
                let body_bb = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.terminate(Term::Jmp(cond_bb));
                self.fb.switch_to(cond_bb);
                self.gen_cond(cond, body_bb, exit)?;
                self.fb.switch_to(body_bb);
                self.breaks.push(exit);
                self.continues.push(cond_bb);
                self.gen_scoped(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.fb.jump_if_open(cond_bb);
                self.fb.switch_to(exit);
            }
            StmtKind::DoWhile { body, cond } => {
                let body_bb = self.fb.new_block();
                let cond_bb = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.terminate(Term::Jmp(body_bb));
                self.fb.switch_to(body_bb);
                self.breaks.push(exit);
                self.continues.push(cond_bb);
                self.gen_scoped(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.fb.jump_if_open(cond_bb);
                self.fb.switch_to(cond_bb);
                self.gen_cond(cond, body_bb, exit)?;
                self.fb.switch_to(exit);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.gen_stmt(i)?;
                }
                let cond_bb = self.fb.new_block();
                let body_bb = self.fb.new_block();
                let step_bb = self.fb.new_block();
                let exit = self.fb.new_block();
                self.fb.terminate(Term::Jmp(cond_bb));
                self.fb.switch_to(cond_bb);
                match cond {
                    Some(c) => self.gen_cond(c, body_bb, exit)?,
                    None => self.fb.terminate(Term::Jmp(body_bb)),
                }
                self.fb.switch_to(body_bb);
                self.breaks.push(exit);
                self.continues.push(step_bb);
                self.gen_scoped(body)?;
                self.breaks.pop();
                self.continues.pop();
                self.fb.jump_if_open(step_bb);
                self.fb.switch_to(step_bb);
                if let Some(st) = step {
                    self.gen_stmt(st)?;
                }
                self.fb.jump_if_open(cond_bb);
                self.scopes.pop();
                self.fb.switch_to(exit);
            }
            StmtKind::Switch { scrutinee, arms } => self.gen_switch(s.pos, scrutinee, arms)?,
            StmtKind::Break => {
                let Some(&target) = self.breaks.last() else {
                    return Err(CompileError::at(s.pos, "`break` outside loop or switch"));
                };
                self.fb.terminate(Term::Jmp(target));
            }
            StmtKind::Continue => {
                let Some(&target) = self.continues.last() else {
                    return Err(CompileError::at(s.pos, "`continue` outside loop"));
                };
                self.fb.terminate(Term::Jmp(target));
            }
            StmtKind::Return(v) => {
                let op = match v {
                    Some(e) => Some(self.gen_expr(e)?),
                    None => None,
                };
                self.fb.terminate(Term::Ret(op));
            }
            StmtKind::Expr(e) => {
                if let Expr::Call(name, args, pos) = e {
                    if name == "halt" {
                        if !args.is_empty() {
                            return Err(CompileError::at(*pos, "halt() takes no arguments"));
                        }
                        self.fb.terminate(Term::Halt);
                        return Ok(());
                    }
                }
                self.gen_expr(e)?;
            }
            StmtKind::Block(stmts) => self.gen_scoped(stmts)?,
        }
        Ok(())
    }

    fn gen_switch(
        &mut self,
        pos: Pos,
        scrutinee: &Expr,
        arms: &[SwitchArm],
    ) -> Result<(), CompileError> {
        let scrut = self.gen_expr(scrutinee)?;
        let scrut = self.to_reg(scrut);
        let end = self.fb.new_block();

        // One block per arm, in source order (for fall-through). An arm
        // whose body is empty gets none: it falls straight through, so
        // its labels go to the next arm's block (or `end`). Left as an
        // empty block it would share the next arm's address, and a jump
        // table's transfers to the two could not be told apart.
        let own_blocks: Vec<Option<BlockId>> = arms
            .iter()
            .map(|arm| (!arm.stmts.iter().all(is_empty_block)).then(|| self.fb.new_block()))
            .collect();
        let mut arm_blocks = vec![end; arms.len() + 1];
        for i in (0..arms.len()).rev() {
            arm_blocks[i] = own_blocks[i].unwrap_or(arm_blocks[i + 1]);
        }

        let mut cases: Vec<(i64, BlockId)> = Vec::new();
        let mut default_block: Option<BlockId> = None;
        for (arm, &bb) in arms.iter().zip(&arm_blocks) {
            for label in &arm.labels {
                match label {
                    Some(v) => {
                        if cases.iter().any(|&(cv, _)| cv == *v) {
                            return Err(CompileError::at(pos, format!("duplicate case {v}")));
                        }
                        cases.push((*v, bb));
                    }
                    None => {
                        if default_block.is_some() {
                            return Err(CompileError::at(pos, "duplicate default"));
                        }
                        default_block = Some(bb);
                    }
                }
            }
        }
        let default = default_block.unwrap_or(end);

        if cases.is_empty() {
            self.fb.terminate(Term::Jmp(default));
        } else if !table_worthy(&cases) {
            // Compare chain: one conditional branch per case value, the
            // lowering a 1980s compiler used for small/sparse switches.
            for (i, &(v, bb)) in cases.iter().enumerate() {
                if i + 1 < cases.len() {
                    let next_test = self.fb.new_block();
                    self.fb.terminate(Term::Br {
                        cond: Cond::Eq,
                        a: scrut.into(),
                        b: Operand::Imm(v),
                        then_: bb,
                        else_: next_test,
                    });
                    self.fb.switch_to(next_test);
                } else {
                    self.fb.terminate(Term::Br {
                        cond: Cond::Eq,
                        a: scrut.into(),
                        b: Operand::Imm(v),
                        then_: bb,
                        else_: default,
                    });
                }
            }
        } else {
            let min = cases.iter().map(|&(v, _)| v).min().expect("nonempty");
            let max = cases.iter().map(|&(v, _)| v).max().expect("nonempty");
            let span = max
                .checked_sub(min)
                .and_then(|d| d.checked_add(1))
                .ok_or_else(|| CompileError::at(pos, "switch case range overflows"))?;
            if span > MAX_SWITCH_SPAN {
                return Err(CompileError::at(
                    pos,
                    format!("switch spans {span} values (max {MAX_SWITCH_SPAN})"),
                ));
            }
            let sel = if min == 0 {
                scrut
            } else {
                let r = self.fb.new_reg();
                self.fb.push(Op::Alu {
                    op: AluOp::Sub,
                    dst: r,
                    a: scrut.into(),
                    b: Operand::Imm(min),
                });
                r
            };
            let mut targets = vec![default; span as usize];
            for &(v, bb) in &cases {
                targets[(v - min) as usize] = bb;
            }
            self.fb.terminate(Term::Switch {
                sel,
                targets,
                default,
            });
        }

        // Arms with C fall-through; `break` exits to `end`.
        self.breaks.push(end);
        for (i, (arm, own)) in arms.iter().zip(&own_blocks).enumerate() {
            let Some(bb) = *own else { continue };
            self.fb.switch_to(bb);
            self.gen_scoped(&arm.stmts)?;
            self.fb.jump_if_open(arm_blocks[i + 1]);
        }
        self.breaks.pop();
        self.fb.switch_to(end);
        Ok(())
    }

    // ---- expressions ----

    /// Combine a base operand and index operand into (base, offset) for a
    /// load/store, materializing an add when the index is dynamic.
    fn address_of(&mut self, base: Operand, index: Operand) -> (Operand, i64) {
        match (base, index) {
            (b, Operand::Imm(i)) => (b, i),
            (Operand::Imm(b), i) => (i, b),
            (b, i) => {
                let r = self.fb.new_reg();
                self.fb.push(Op::Alu {
                    op: AluOp::Add,
                    dst: r,
                    a: b,
                    b: i,
                });
                (Operand::Reg(r), 0)
            }
        }
    }

    fn gen_expr(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        match e {
            Expr::Num(n) => Ok(Operand::Imm(*n)),
            Expr::Str(s) => Ok(Operand::Imm(i64::from(self.cx.intern_string(s)))),
            Expr::Var(name, pos) => match self.lookup(name, *pos)? {
                Binding::Local(r) => Ok(Operand::Reg(r)),
                Binding::GlobalScalar { addr } => {
                    let r = self.fb.new_reg();
                    self.fb.push(Op::Ld {
                        dst: r,
                        base: Operand::Imm(i64::from(addr)),
                        offset: 0,
                    });
                    Ok(Operand::Reg(r))
                }
                Binding::GlobalArray { addr } => Ok(Operand::Imm(i64::from(addr))),
                Binding::LocalArray { offset } => {
                    let r = self.fb.new_reg();
                    self.fb.push(Op::FrameAddr { dst: r, offset });
                    Ok(Operand::Reg(r))
                }
            },
            Expr::Index(b, i) => {
                let base = self.gen_expr(b)?;
                let idx = self.gen_expr(i)?;
                let (base_op, offset) = self.address_of(base, idx);
                let r = self.fb.new_reg();
                self.fb.push(Op::Ld {
                    dst: r,
                    base: base_op,
                    offset,
                });
                Ok(Operand::Reg(r))
            }
            Expr::Unary(op, inner) => {
                let v = self.gen_expr(inner)?;
                if let Operand::Imm(n) = v {
                    return Ok(Operand::Imm(match op {
                        UnOp::Neg => n.wrapping_neg(),
                        UnOp::Not => i64::from(n == 0),
                        UnOp::BitNot => !n,
                    }));
                }
                let r = self.fb.new_reg();
                match op {
                    UnOp::Neg => self.fb.push(Op::Alu {
                        op: AluOp::Sub,
                        dst: r,
                        a: Operand::Imm(0),
                        b: v,
                    }),
                    UnOp::Not => self.fb.push(Op::Cmp {
                        cond: Cond::Eq,
                        dst: r,
                        a: v,
                        b: Operand::Imm(0),
                    }),
                    UnOp::BitNot => self.fb.push(Op::Alu {
                        op: AluOp::Xor,
                        dst: r,
                        a: v,
                        b: Operand::Imm(-1),
                    }),
                }
                Ok(Operand::Reg(r))
            }
            Expr::Binary(op, a, b) => self.gen_binary(*op, a, b),
            Expr::Call(name, args, pos) => self.gen_call(name, args, *pos),
            Expr::Assign(target, value) => self.gen_assign_expr(target, value),
        }
    }

    /// Assignment in expression position; evaluates to the stored value.
    fn gen_assign_expr(&mut self, target: &Expr, value: &Expr) -> Result<Operand, CompileError> {
        let v = self.gen_expr(value)?;
        match target {
            Expr::Var(name, pos) => match self.lookup(name, *pos)? {
                Binding::Local(r) => {
                    self.fb.push(Op::Mov { dst: r, src: v });
                    Ok(Operand::Reg(r))
                }
                Binding::GlobalScalar { addr } => {
                    self.fb.push(Op::St {
                        src: v,
                        base: Operand::Imm(i64::from(addr)),
                        offset: 0,
                    });
                    Ok(v)
                }
                Binding::LocalArray { .. } | Binding::GlobalArray { .. } => Err(CompileError::at(
                    *pos,
                    format!("cannot assign to array `{name}`"),
                )),
            },
            Expr::Index(b, i) => {
                let base = self.gen_expr(b)?;
                let idx = self.gen_expr(i)?;
                let (base_op, offset) = self.address_of(base, idx);
                self.fb.push(Op::St {
                    src: v,
                    base: base_op,
                    offset,
                });
                Ok(v)
            }
            other => Err(CompileError {
                pos: other.pos(),
                msg: "invalid assignment target".into(),
            }),
        }
    }

    fn gen_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Operand, CompileError> {
        if matches!(op, BinOp::LAnd | BinOp::LOr) {
            return self.gen_logical(op, a, b);
        }
        let va = self.gen_expr(a)?;
        let vb = self.gen_expr(b)?;
        // Constant folding.
        if let (Operand::Imm(x), Operand::Imm(y)) = (va, vb) {
            return Ok(Operand::Imm(fold(op, x, y)));
        }
        let r = self.fb.new_reg();
        match bin_to_alu(op) {
            Some(alu) => self.fb.push(Op::Alu {
                op: alu,
                dst: r,
                a: va,
                b: vb,
            }),
            None => {
                let cond = bin_to_cond(op).expect("non-alu binop is a comparison");
                self.fb.push(Op::Cmp {
                    cond,
                    dst: r,
                    a: va,
                    b: vb,
                });
            }
        }
        Ok(Operand::Reg(r))
    }

    /// Short-circuit `&&` / `||` in value position: produces 0 or 1.
    fn gen_logical(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Operand, CompileError> {
        let r = self.fb.new_reg();
        let rhs_bb = self.fb.new_block();
        let short_bb = self.fb.new_block();
        let end = self.fb.new_block();
        match op {
            BinOp::LAnd => self.gen_cond(a, rhs_bb, short_bb)?,
            BinOp::LOr => self.gen_cond(a, short_bb, rhs_bb)?,
            _ => unreachable!("gen_logical only handles && and ||"),
        }
        self.fb.switch_to(rhs_bb);
        let vb = self.gen_expr(b)?;
        self.fb.push(Op::Cmp {
            cond: Cond::Ne,
            dst: r,
            a: vb,
            b: Operand::Imm(0),
        });
        self.fb.terminate(Term::Jmp(end));
        self.fb.switch_to(short_bb);
        let short_val = i64::from(op == BinOp::LOr);
        self.fb.push(Op::Mov {
            dst: r,
            src: Operand::Imm(short_val),
        });
        self.fb.terminate(Term::Jmp(end));
        self.fb.switch_to(end);
        Ok(Operand::Reg(r))
    }

    fn gen_call(&mut self, name: &str, args: &[Expr], pos: Pos) -> Result<Operand, CompileError> {
        match name {
            "getc" => {
                let [stream] = args else {
                    return Err(CompileError::at(pos, "getc(stream) takes one argument"));
                };
                let stream = self.stream_operand(stream, pos)?;
                let r = self.fb.new_reg();
                self.fb.push(Op::In { dst: r, stream });
                Ok(Operand::Reg(r))
            }
            "putc" => {
                let [stream, value] = args else {
                    return Err(CompileError::at(
                        pos,
                        "putc(stream, byte) takes two arguments",
                    ));
                };
                let stream = self.stream_operand(stream, pos)?;
                let v = self.gen_expr(value)?;
                self.fb.push(Op::Out { src: v, stream });
                Ok(Operand::Imm(0))
            }
            "halt" => Err(CompileError::at(
                pos,
                "halt() is a statement, not an expression",
            )),
            _ => {
                let Some(&(id, nparams)) = self.cx.funcs.get(name) else {
                    return Err(CompileError::at(pos, format!("unknown function `{name}`")));
                };
                if args.len() != nparams {
                    return Err(CompileError::at(
                        pos,
                        format!("`{name}` expects {nparams} arguments, got {}", args.len()),
                    ));
                }
                let mut arg_regs = Vec::with_capacity(args.len());
                for a in args {
                    let v = self.gen_expr(a)?;
                    arg_regs.push(self.to_reg(v));
                }
                let r = self.fb.new_reg();
                self.fb.push(Op::Call {
                    func: id,
                    args: arg_regs,
                    dst: Some(r),
                });
                Ok(Operand::Reg(r))
            }
        }
    }

    /// Streams are ordinary expressions (masked to 0..8 at run time),
    /// but constant streams outside the valid range are compile errors.
    fn stream_operand(&mut self, e: &Expr, pos: Pos) -> Result<Operand, CompileError> {
        match self.gen_expr(e)? {
            Operand::Imm(n) if !(0..=7).contains(&n) => {
                Err(CompileError::at(pos, "stream must be in 0..=7"))
            }
            op => Ok(op),
        }
    }

    /// Generate a conditional jump on `e` to `then_bb` (nonzero) or
    /// `else_bb` (zero), folding comparisons into compare-and-branch and
    /// short-circuiting `&&`/`||`/`!`.
    fn gen_cond(
        &mut self,
        e: &Expr,
        then_bb: BlockId,
        else_bb: BlockId,
    ) -> Result<(), CompileError> {
        match e {
            Expr::Binary(op, a, b) if op.is_comparison() => {
                let va = self.gen_expr(a)?;
                let vb = self.gen_expr(b)?;
                if let (Operand::Imm(x), Operand::Imm(y)) = (va, vb) {
                    let cond = bin_to_cond(*op).expect("comparison");
                    let t = if cond.eval(x, y) { then_bb } else { else_bb };
                    self.fb.terminate(Term::Jmp(t));
                    return Ok(());
                }
                self.fb.terminate(Term::Br {
                    cond: bin_to_cond(*op).expect("comparison"),
                    a: va,
                    b: vb,
                    then_: then_bb,
                    else_: else_bb,
                });
                Ok(())
            }
            Expr::Binary(BinOp::LAnd, a, b) => {
                let mid = self.fb.new_block();
                self.gen_cond(a, mid, else_bb)?;
                self.fb.switch_to(mid);
                self.gen_cond(b, then_bb, else_bb)
            }
            Expr::Binary(BinOp::LOr, a, b) => {
                let mid = self.fb.new_block();
                self.gen_cond(a, then_bb, mid)?;
                self.fb.switch_to(mid);
                self.gen_cond(b, then_bb, else_bb)
            }
            Expr::Unary(UnOp::Not, inner) => self.gen_cond(inner, else_bb, then_bb),
            Expr::Num(n) => {
                let t = if *n != 0 { then_bb } else { else_bb };
                self.fb.terminate(Term::Jmp(t));
                Ok(())
            }
            _ => {
                let v = self.gen_expr(e)?;
                if let Operand::Imm(n) = v {
                    let t = if n != 0 { then_bb } else { else_bb };
                    self.fb.terminate(Term::Jmp(t));
                    return Ok(());
                }
                self.fb.terminate(Term::Br {
                    cond: Cond::Ne,
                    a: v,
                    b: Operand::Imm(0),
                    then_: then_bb,
                    else_: else_bb,
                });
                Ok(())
            }
        }
    }
}

/// `{ }`, `{ { } }`, …: a statement that generates no code.
fn is_empty_block(s: &Stmt) -> bool {
    matches!(&s.kind, StmtKind::Block(stmts) if stmts.iter().all(is_empty_block))
}

/// Should this case set use a jump table (vs a compare chain)?
fn table_worthy(cases: &[(i64, BlockId)]) -> bool {
    if cases.len() < MIN_TABLE_CASES {
        return false;
    }
    let min = cases.iter().map(|&(v, _)| v).min().expect("nonempty");
    let max = cases.iter().map(|&(v, _)| v).max().expect("nonempty");
    let span = (max - min + 1) as f64;
    cases.len() as f64 / span >= MIN_TABLE_DENSITY
}

fn bin_to_alu(op: BinOp) -> Option<AluOp> {
    Some(match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::BitAnd => AluOp::And,
        BinOp::BitOr => AluOp::Or,
        BinOp::BitXor => AluOp::Xor,
        BinOp::Shl => AluOp::Shl,
        BinOp::Shr => AluOp::Shr,
        _ => return None,
    })
}

fn bin_to_cond(op: BinOp) -> Option<Cond> {
    Some(match op {
        BinOp::Eq => Cond::Eq,
        BinOp::Ne => Cond::Ne,
        BinOp::Lt => Cond::Lt,
        BinOp::Le => Cond::Le,
        BinOp::Gt => Cond::Gt,
        BinOp::Ge => Cond::Ge,
        _ => return None,
    })
}

fn fold(op: BinOp, x: i64, y: i64) -> i64 {
    match bin_to_alu(op) {
        Some(alu) => alu.eval(x, y),
        None => match bin_to_cond(op) {
            Some(c) => i64::from(c.eval(x, y)),
            None => unreachable!("logical ops handled before folding"),
        },
    }
}
