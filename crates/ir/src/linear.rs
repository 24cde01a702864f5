//! Linear (laid-out) code: the form the interpreter executes, the branch
//! target buffers observe, and the pipeline fetches.

use crate::types::{Addr, AluOp, BlockId, BranchId, Cond, FuncId, Operand, Reg};

/// One laid-out instruction. Addresses are word-granular; every
/// instruction occupies one word, matching the paper's one-instruction-
/// per-fetch pipeline model.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant fields are described in variant docs
pub enum Inst {
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
    /// `dst = frame_pointer + offset`
    FrameAddr { dst: Reg, offset: i64 },
    /// `dst = next input byte` (−1 at end of stream).
    In { dst: Reg, stream: Operand },
    /// Emit the low byte of `src` on an output stream.
    Out { src: Operand, stream: Operand },
    /// Conditional compare-and-branch. When taken, control moves to
    /// `target`; otherwise it falls through to `pc + 1 + slots`
    /// (forward slots sit between the branch and its fall-through path).
    /// `likely` is the Forward Semantic's compiler prediction bit.
    Br {
        cond: Cond,
        a: Operand,
        b: Operand,
        target: Addr,
        slots: u16,
        likely: bool,
    },
    /// Unconditional direct jump (known target).
    Jmp { target: Addr, slots: u16 },
    /// Indexed indirect jump through `table` — the *unknown target*
    /// unconditional branch class of the paper.
    JmpTable { sel: Operand, table: u32 },
    /// Call a function by index; arguments are copied into the callee's
    /// `r0..`, the return value (if any) lands in `dst`.
    Call {
        func: FuncId,
        args: Box<[Reg]>,
        dst: Option<Reg>,
    },
    /// Return to the caller.
    Ret { val: Option<Operand> },
    /// No operation (also used as forward-slot padding).
    Nop,
    /// Stop the machine.
    Halt,
}

impl Inst {
    /// Is this a branch for the paper's statistics (conditional or
    /// unconditional jump, excluding calls/returns)?
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::Jmp { .. } | Inst::JmpTable { .. }
        )
    }

    /// Is this a conditional branch?
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Br { .. })
    }
}

/// Side metadata for an instruction (parallel to [`Program::code`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InstMeta {
    /// Function that owns this instruction.
    pub func: FuncId,
    /// Source basic block.
    pub block: BlockId,
    /// True for forward-slot instructions inserted by the Forward
    /// Semantic transformation (copies of the target path, never executed
    /// architecturally).
    pub is_slot: bool,
}

impl InstMeta {
    /// The layout-stable branch identity of this instruction (meaningful
    /// when the instruction is a block terminator branch).
    #[must_use]
    pub fn branch_id(&self) -> BranchId {
        BranchId {
            func: self.func,
            block: self.block,
        }
    }
}

/// Per-function information carried into linear form.
#[derive(Clone, Debug)]
pub struct FuncInfo {
    /// Function name.
    pub name: String,
    /// Address of the first instruction.
    pub entry: Addr,
    /// One past the last instruction.
    pub end: Addr,
    /// Register file size.
    pub num_regs: u16,
    /// Number of parameters.
    pub num_params: u16,
    /// Stack frame size in words.
    pub frame_words: u32,
}

/// A jump table for [`Inst::JmpTable`].
#[derive(Clone, Debug)]
pub struct JumpTable {
    /// Resolved target addresses for in-range selectors.
    pub targets: Box<[Addr]>,
    /// Target when the selector is out of range.
    pub default: Addr,
}

impl JumpTable {
    /// Resolve a selector value to a target address.
    #[must_use]
    pub fn resolve(&self, sel: i64) -> Addr {
        usize::try_from(sel)
            .ok()
            .and_then(|i| self.targets.get(i).copied())
            .unwrap_or(self.default)
    }
}

/// A fully laid-out program.
#[derive(Clone, Debug)]
pub struct Program {
    /// The instruction stream.
    pub code: Vec<Inst>,
    /// Per-instruction metadata, parallel to `code`.
    pub meta: Vec<InstMeta>,
    /// Function table, indexed by [`FuncId`].
    pub funcs: Vec<FuncInfo>,
    /// Jump tables referenced by [`Inst::JmpTable`].
    pub jump_tables: Vec<JumpTable>,
    /// Address where execution starts (entry function's entry).
    pub entry: Addr,
    /// Words of global data memory.
    pub globals_words: u32,
    /// Initial values for global data memory (zero-padded to
    /// `globals_words` by the interpreter).
    pub globals_init: Vec<i64>,
    /// `block_addrs[f][b]` = address of the first instruction of block `b`
    /// of function `f` in this layout.
    pub block_addrs: Vec<Vec<Addr>>,
}

impl Program {
    /// Instruction at `pc`.
    ///
    /// # Panics
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn inst(&self, pc: Addr) -> &Inst {
        &self.code[pc.0 as usize]
    }

    /// Total static code size in instructions (including forward slots).
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Static code size excluding forward-slot instructions — the
    /// "original" size used as the denominator in the paper's Table 5.
    #[must_use]
    pub fn len_without_slots(&self) -> usize {
        self.meta.iter().filter(|m| !m.is_slot).count()
    }

    /// Number of forward-slot instructions inserted by the Forward
    /// Semantic transformation.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.meta.iter().filter(|m| m.is_slot).count()
    }

    /// Addresses of all static branch sites (conditional and
    /// unconditional), in address order.
    #[must_use]
    pub fn branch_sites(&self) -> Vec<Addr> {
        self.code
            .iter()
            .enumerate()
            .filter(|(i, inst)| inst.is_branch() && !self.meta[*i].is_slot)
            .map(|(i, _)| Addr(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_table_resolution() {
        let t = JumpTable {
            targets: vec![Addr(10), Addr(20)].into_boxed_slice(),
            default: Addr(99),
        };
        assert_eq!(t.resolve(0), Addr(10));
        assert_eq!(t.resolve(1), Addr(20));
        assert_eq!(t.resolve(2), Addr(99));
        assert_eq!(t.resolve(-1), Addr(99));
        assert_eq!(t.resolve(i64::MAX), Addr(99));
    }

    #[test]
    fn inst_branch_classification() {
        let br = Inst::Br {
            cond: Cond::Eq,
            a: Operand::Imm(0),
            b: Operand::Imm(0),
            target: Addr(0),
            slots: 0,
            likely: false,
        };
        assert!(br.is_branch());
        assert!(br.is_cond_branch());
        assert!(Inst::Jmp {
            target: Addr(0),
            slots: 0
        }
        .is_branch());
        assert!(!Inst::Jmp {
            target: Addr(0),
            slots: 0
        }
        .is_cond_branch());
        assert!(Inst::JmpTable {
            sel: Operand::Imm(0),
            table: 0
        }
        .is_branch());
        assert!(!Inst::Nop.is_branch());
        assert!(!Inst::Ret { val: None }.is_branch());
        let call = Inst::Call {
            func: FuncId(0),
            args: Box::new([]),
            dst: None,
        };
        assert!(!call.is_branch());
    }

    #[test]
    fn meta_branch_id() {
        let m = InstMeta {
            func: FuncId(2),
            block: BlockId(3),
            is_slot: false,
        };
        assert_eq!(
            m.branch_id(),
            BranchId {
                func: FuncId(2),
                block: BlockId(3)
            }
        );
    }
}
