//! Control-flow-graph form of the IR: what the MiniC compiler produces and
//! what the profiler and the Forward Semantic passes analyze.

use crate::types::{AluOp, BlockId, BranchId, Cond, FuncId, Operand, Reg};

/// A whole compiled program in CFG form.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Number of words of global data (globals live at addresses
    /// `0..globals_words` in the flat data memory).
    pub globals_words: u32,
    /// Initial values for global data memory. May be shorter than
    /// `globals_words`; the remainder is zero-initialized.
    pub globals_init: Vec<i64>,
    /// The function where execution starts.
    pub entry: FuncId,
}

impl Module {
    /// Look up a function.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Find a function by name.
    #[must_use]
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Iterate over all conditional-branch sites in the module.
    pub fn cond_branches(&self) -> impl Iterator<Item = BranchId> + '_ {
        self.funcs.iter().flat_map(|f| {
            f.blocks.iter().filter_map(move |b| match b.term {
                Term::Br { .. } => Some(BranchId {
                    func: f.id,
                    block: b.id,
                }),
                _ => None,
            })
        })
    }
}

/// One function in CFG form. Block 0 is the entry block.
#[derive(Clone, Debug)]
pub struct Function {
    /// Human-readable name (unique within a module).
    pub name: String,
    /// This function's index in [`Module::funcs`].
    pub id: FuncId,
    /// Number of parameters; arguments arrive in registers `r0..rN`.
    pub num_params: u16,
    /// Size of the register file for this function.
    pub num_regs: u16,
    /// Words of stack frame needed for local arrays
    /// (addressed via [`Op::FrameAddr`]).
    pub frame_words: u32,
    /// Basic blocks, indexed by [`BlockId`]. `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Look up a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Successor blocks of `id`, in (then, else) / switch-table order.
    #[must_use]
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).term.successors()
    }

    /// Predecessor map: for each block, the blocks that can branch to it.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in b.term.successors() {
                preds[s.0 as usize].push(b.id);
            }
        }
        preds
    }
}

/// A basic block: straight-line ops followed by exactly one terminator.
#[derive(Clone, Debug)]
pub struct Block {
    /// This block's index in [`Function::blocks`].
    pub id: BlockId,
    /// Straight-line (non-control) instructions.
    pub ops: Vec<Op>,
    /// The control-flow terminator.
    pub term: Term,
}

/// A non-control instruction.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields are described in variant docs
pub enum Op {
    /// `dst = a <op> b`
    Alu {
        op: AluOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = (a <cond> b) ? 1 : 0`
    Cmp {
        cond: Cond,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = src`
    Mov { dst: Reg, src: Operand },
    /// `dst = memory[base + offset]`
    Ld {
        dst: Reg,
        base: Operand,
        offset: i64,
    },
    /// `memory[base + offset] = src`
    St {
        src: Operand,
        base: Operand,
        offset: i64,
    },
    /// `dst = frame_pointer + offset` — address of a local array slot.
    FrameAddr { dst: Reg, offset: i64 },
    /// `dst = next byte of input stream` (−1 at end); the stream
    /// index is evaluated at run time and masked to `0..8`.
    In { dst: Reg, stream: Operand },
    /// Append the low byte of `src` to an output stream.
    Out { src: Operand, stream: Operand },
    /// Call `func` with arguments; the return value (if the callee returns
    /// one and `dst` is set) lands in `dst`.
    Call {
        func: FuncId,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    /// No operation.
    Nop,
}

/// A block terminator.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields are described in variant docs
pub enum Term {
    /// Conditional branch: if `a <cond> b` go to `then_`, else `else_`.
    Br {
        cond: Cond,
        a: Operand,
        b: Operand,
        then_: BlockId,
        else_: BlockId,
    },
    /// Unconditional direct jump (known target).
    Jmp(BlockId),
    /// Indexed indirect jump (the paper's *unknown target* unconditional
    /// branch): go to `targets[sel]`, or `default` when `sel` is out of
    /// range. MiniC `switch` lowers to this.
    Switch {
        sel: Reg,
        targets: Vec<BlockId>,
        default: BlockId,
    },
    /// Return to the caller with an optional value.
    Ret(Option<Operand>),
    /// Stop the machine (only valid in the entry function).
    Halt,
}

impl Term {
    /// Successor blocks in deterministic order. `Br` yields
    /// `[then, else]`; `Switch` yields the table then the default.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br { then_, else_, .. } => vec![*then_, *else_],
            Term::Jmp(t) => vec![*t],
            Term::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v.dedup();
                v
            }
            Term::Ret(_) | Term::Halt => Vec::new(),
        }
    }

    /// Is this terminator a branch for the purposes of the paper's
    /// statistics (conditional or unconditional, excluding returns)?
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Term::Br { .. } | Term::Jmp(_) | Term::Switch { .. })
    }
}

/// Incremental builder for a [`Function`]. MiniC codegen drives this.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    id: FuncId,
    num_params: u16,
    next_reg: u16,
    frame_words: u32,
    blocks: Vec<Block>,
    /// Blocks whose terminator has not been set yet (placeholder `Halt`).
    sealed: Vec<bool>,
    current: BlockId,
}

impl FunctionBuilder {
    /// Start building a function. Parameters occupy `r0..num_params`.
    #[must_use]
    pub fn new(name: impl Into<String>, id: FuncId, num_params: u16) -> Self {
        let entry = Block {
            id: BlockId(0),
            ops: Vec::new(),
            term: Term::Halt,
        };
        FunctionBuilder {
            name: name.into(),
            id,
            num_params,
            next_reg: num_params,
            frame_words: 0,
            blocks: vec![entry],
            sealed: vec![false],
            current: BlockId(0),
        }
    }

    /// Allocate a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("function uses more than 65535 registers");
        r
    }

    /// Reserve `words` of frame space, returning its offset.
    pub fn alloc_frame(&mut self, words: u32) -> i64 {
        let off = self.frame_words;
        self.frame_words += words;
        i64::from(off)
    }

    /// Create a new, empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(Block {
            id,
            ops: Vec::new(),
            term: Term::Halt,
        });
        self.sealed.push(false);
        id
    }

    /// Switch the insertion point to `b`.
    ///
    /// # Panics
    /// Panics if `b`'s terminator was already set.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(!self.sealed[b.0 as usize], "block {b} already terminated");
        self.current = b;
    }

    /// Whether the current block has been terminated.
    #[must_use]
    pub fn current_sealed(&self) -> bool {
        self.sealed[self.current.0 as usize]
    }

    /// Append an op to the current block.
    ///
    /// # Panics
    /// Panics if the current block is already terminated.
    pub fn push(&mut self, op: Op) {
        assert!(
            !self.current_sealed(),
            "push after terminator in {}",
            self.current
        );
        self.blocks[self.current.0 as usize].ops.push(op);
    }

    /// Terminate the current block.
    ///
    /// # Panics
    /// Panics if it is already terminated.
    pub fn terminate(&mut self, term: Term) {
        assert!(
            !self.current_sealed(),
            "double terminator in {}",
            self.current
        );
        self.blocks[self.current.0 as usize].term = term;
        self.sealed[self.current.0 as usize] = true;
    }

    /// Terminate with a jump unless the block already ended (convenience
    /// for fallthrough-style codegen).
    pub fn jump_if_open(&mut self, target: BlockId) {
        if !self.current_sealed() {
            self.terminate(Term::Jmp(target));
        }
    }

    /// Finish the function. Unterminated blocks become `Ret(None)` so the
    /// result is always structurally valid.
    #[must_use]
    pub fn finish(mut self) -> Function {
        for (i, b) in self.blocks.iter_mut().enumerate() {
            if !self.sealed[i] {
                b.term = Term::Ret(None);
            }
        }
        Function {
            name: self.name,
            id: self.id,
            num_params: self.num_params,
            num_regs: self.next_reg.max(self.num_params).max(1),
            frame_words: self.frame_words,
            blocks: self.blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{AluOp, Cond};

    fn tiny_function() -> Function {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 1);
        let r = fb.new_reg();
        let then_b = fb.new_block();
        let else_b = fb.new_block();
        fb.push(Op::Alu {
            op: AluOp::Add,
            dst: r,
            a: Reg(0).into(),
            b: 1i64.into(),
        });
        fb.terminate(Term::Br {
            cond: Cond::Lt,
            a: r.into(),
            b: 10i64.into(),
            then_: then_b,
            else_: else_b,
        });
        fb.switch_to(then_b);
        fb.terminate(Term::Ret(Some(r.into())));
        fb.switch_to(else_b);
        fb.terminate(Term::Ret(Some(0i64.into())));
        fb.finish()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let f = tiny_function();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.num_params, 1);
        assert!(f.num_regs >= 2);
        assert_eq!(f.blocks[0].ops.len(), 1);
        assert_eq!(f.successors(BlockId(0)), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn predecessors_inverts_successors() {
        let f = tiny_function();
        let preds = f.predecessors();
        assert_eq!(preds[0], Vec::<BlockId>::new());
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[2], vec![BlockId(0)]);
    }

    #[test]
    #[should_panic(expected = "double terminator")]
    fn double_terminate_panics() {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 0);
        fb.terminate(Term::Ret(None));
        fb.terminate(Term::Ret(None));
    }

    #[test]
    #[should_panic(expected = "push after terminator")]
    fn push_after_terminator_panics() {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 0);
        fb.terminate(Term::Ret(None));
        fb.push(Op::Nop);
    }

    #[test]
    fn unterminated_blocks_get_ret() {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 0);
        let b = fb.new_block();
        fb.terminate(Term::Jmp(b));
        // b left open on purpose.
        let f = fb.finish();
        assert_eq!(f.blocks[1].term, Term::Ret(None));
    }

    #[test]
    fn switch_successors_dedup_default() {
        let t = Term::Switch {
            sel: Reg(0),
            targets: vec![BlockId(1), BlockId(2), BlockId(2)],
            default: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn term_branch_classification() {
        assert!(Term::Jmp(BlockId(0)).is_branch());
        assert!(!Term::Ret(None).is_branch());
        assert!(!Term::Halt.is_branch());
    }

    #[test]
    fn module_cond_branches_enumerates_brs() {
        let f = tiny_function();
        let m = Module {
            funcs: vec![f],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        };
        let sites: Vec<_> = m.cond_branches().collect();
        assert_eq!(
            sites,
            vec![BranchId {
                func: FuncId(0),
                block: BlockId(0)
            }]
        );
    }

    #[test]
    fn jump_if_open_is_idempotent_after_seal() {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 0);
        let b = fb.new_block();
        fb.terminate(Term::Ret(None));
        fb.switch_to(b);
        fb.jump_if_open(BlockId(0));
        fb.jump_if_open(BlockId(0)); // no-op: already sealed
        let f = fb.finish();
        assert_eq!(f.blocks[1].term, Term::Jmp(BlockId(0)));
    }

    #[test]
    fn alloc_frame_accumulates() {
        let mut fb = FunctionBuilder::new("t", FuncId(0), 0);
        assert_eq!(fb.alloc_frame(10), 0);
        assert_eq!(fb.alloc_frame(5), 10);
        fb.terminate(Term::Ret(None));
        assert_eq!(fb.finish().frame_words, 15);
    }
}
