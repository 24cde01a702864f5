//! Lowering from CFG form to linear code under a [`LayoutPlan`].
//!
//! The plan controls block order (natural or trace order), the compiler's
//! likely bits, and how many forward slots to reserve after each
//! predicted-taken branch — i.e. everything the Forward Semantic
//! transformation decides. The default plan reproduces a conventional
//! layout with no slots.

use std::collections::HashMap;

use crate::cfg::{Module, Op, Term};
use crate::linear::{FuncInfo, Inst, InstMeta, JumpTable, Program};
use crate::types::{Addr, BlockId, BranchId, FuncId, Operand};

/// A complete layout decision for a module.
#[derive(Clone, Debug)]
pub struct LayoutPlan {
    /// Block emission order per function (must be a permutation of the
    /// function's blocks).
    pub order: Vec<Vec<BlockId>>,
    /// Likely bit per conditional branch: `Some(true)` means the *then*
    /// edge is predicted, `Some(false)` the *else* edge, `None` no
    /// prediction (treated as fall-through predicted / branch not-taken).
    pub then_likely: Vec<Vec<Option<bool>>>,
    /// Forward slots (k + ℓ in the paper) reserved after each
    /// predicted-taken branch. Zero disables slot insertion.
    pub slots: u16,
    /// Whether unconditional direct jumps also receive forward slots
    /// (they are "predicted taken" trivially).
    pub slot_jumps: bool,
    /// Whether unconditional jumps to the adjacent block are elided
    /// (normal codegen). With `false` every CFG edge produces a branch
    /// event — the analogue of the paper's basic-block probes. No
    /// pipeline builds that: the profile is derived from the natural
    /// binary, and the probe build survives only as the test oracle that
    /// derivation must match (`crates/profile/tests/dense_oracle.rs`).
    pub elide_jumps: bool,
    /// Per-function, per-block "hot" flags: only jumps in hot (profiled
    /// as executed) blocks receive forward slots — cold code is never
    /// predicted taken, so the paper reserves no slots there.
    pub hot: Vec<Vec<bool>>,
}

impl LayoutPlan {
    /// The conventional layout: blocks in creation order, no likely bits,
    /// no forward slots. This is what the SBTB/CBTB machines run.
    #[must_use]
    pub fn natural(module: &Module) -> Self {
        LayoutPlan {
            order: module
                .funcs
                .iter()
                .map(|f| (0..f.blocks.len() as u32).map(BlockId).collect())
                .collect(),
            then_likely: module
                .funcs
                .iter()
                .map(|f| vec![None; f.blocks.len()])
                .collect(),
            slots: 0,
            slot_jumps: false,
            elide_jumps: true,
            hot: module
                .funcs
                .iter()
                .map(|f| vec![true; f.blocks.len()])
                .collect(),
        }
    }

    /// Set the likely bit for one branch site.
    pub fn set_likely(&mut self, site: BranchId, then_likely: bool) {
        self.then_likely[site.func.0 as usize][site.block.0 as usize] = Some(then_likely);
    }
}

/// Errors detected while lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are described in variant docs
pub enum LowerError {
    /// The plan's block order for a function is not a permutation.
    BadOrder { func: FuncId, detail: String },
    /// The plan's shape does not match the module.
    PlanShape { detail: String },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::BadOrder { func, detail } => {
                write!(f, "bad block order for {func}: {detail}")
            }
            LowerError::PlanShape { detail } => write!(f, "plan shape mismatch: {detail}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower a module with the conventional layout (no slots, no likely bits).
///
/// # Errors
/// Returns an error if the module is malformed in a way lowering detects;
/// run [`crate::validate::validate_module`] first for precise diagnostics.
pub fn lower(module: &Module) -> Result<Program, LowerError> {
    lower_with_plan(module, &LayoutPlan::natural(module))
}

struct Fixup {
    inst: usize,
    func: FuncId,
    target: BlockId,
}

/// Lower a module under an explicit layout plan.
///
/// # Errors
/// Returns [`LowerError`] if the plan does not match the module (wrong
/// function count, non-permutation block order).
pub fn lower_with_plan(module: &Module, plan: &LayoutPlan) -> Result<Program, LowerError> {
    if plan.order.len() != module.funcs.len() || plan.then_likely.len() != module.funcs.len() {
        return Err(LowerError::PlanShape {
            detail: format!(
                "plan covers {} functions, module has {}",
                plan.order.len(),
                module.funcs.len()
            ),
        });
    }

    let mut code: Vec<Inst> = Vec::new();
    let mut meta: Vec<InstMeta> = Vec::new();
    let mut block_addrs: Vec<Vec<Addr>> = Vec::with_capacity(module.funcs.len());
    let mut fixups: Vec<Fixup> = Vec::new();
    let mut table_fixups: Vec<(usize, FuncId, Vec<BlockId>, BlockId)> = Vec::new();
    let mut jump_tables: Vec<JumpTable> = Vec::new();
    let mut funcs: Vec<FuncInfo> = Vec::with_capacity(module.funcs.len());

    for (fi, f) in module.funcs.iter().enumerate() {
        let order = &plan.order[fi];
        check_permutation(f.id, order, f.blocks.len())?;
        if plan.then_likely[fi].len() != f.blocks.len() {
            return Err(LowerError::PlanShape {
                detail: format!("then_likely[{fi}] has wrong length"),
            });
        }

        let func_start = Addr(code.len() as u32);
        let mut addrs = vec![Addr(0); f.blocks.len()];
        // Map each block to its successor in the layout (same function).
        let next_in_layout: HashMap<BlockId, BlockId> =
            order.windows(2).map(|w| (w[0], w[1])).collect();

        for &bid in order {
            let block = f.block(bid);
            addrs[bid.0 as usize] = Addr(code.len() as u32);
            let m = InstMeta {
                func: f.id,
                block: bid,
                is_slot: false,
            };
            let slot_m = InstMeta {
                func: f.id,
                block: bid,
                is_slot: true,
            };

            for op in &block.ops {
                code.push(lower_op(op));
                meta.push(m);
            }

            let next = next_in_layout.get(&bid).copied();
            match &block.term {
                Term::Br {
                    cond,
                    a,
                    b,
                    then_,
                    else_,
                } => {
                    let tl = plan.then_likely[fi][bid.0 as usize];
                    let (emit_cond, emit_target, likely) = if Some(*else_) == next {
                        (*cond, *then_, tl == Some(true))
                    } else if Some(*then_) == next {
                        (cond.invert(), *else_, tl == Some(false))
                    } else {
                        (*cond, *then_, tl == Some(true))
                    };
                    let slots = if likely { plan.slots } else { 0 };
                    fixups.push(Fixup {
                        inst: code.len(),
                        func: f.id,
                        target: emit_target,
                    });
                    code.push(Inst::Br {
                        cond: emit_cond,
                        a: *a,
                        b: *b,
                        target: Addr(0),
                        slots,
                        likely,
                    });
                    meta.push(m);
                    for _ in 0..slots {
                        code.push(Inst::Nop);
                        meta.push(slot_m);
                    }
                    // If neither successor is adjacent, the else edge
                    // needs an explicit jump after the fall-through point.
                    if Some(*else_) != next && Some(*then_) != next {
                        let hot = plan.hot[fi][bid.0 as usize];
                        let jslots = if plan.slot_jumps && hot {
                            plan.slots
                        } else {
                            0
                        };
                        fixups.push(Fixup {
                            inst: code.len(),
                            func: f.id,
                            target: *else_,
                        });
                        code.push(Inst::Jmp {
                            target: Addr(0),
                            slots: jslots,
                        });
                        meta.push(m);
                        for _ in 0..jslots {
                            code.push(Inst::Nop);
                            meta.push(slot_m);
                        }
                    }
                }
                Term::Jmp(t) => {
                    if Some(*t) != next || !plan.elide_jumps {
                        let hot = plan.hot[fi][bid.0 as usize];
                        let jslots = if plan.slot_jumps && hot {
                            plan.slots
                        } else {
                            0
                        };
                        fixups.push(Fixup {
                            inst: code.len(),
                            func: f.id,
                            target: *t,
                        });
                        code.push(Inst::Jmp {
                            target: Addr(0),
                            slots: jslots,
                        });
                        meta.push(m);
                        for _ in 0..jslots {
                            code.push(Inst::Nop);
                            meta.push(slot_m);
                        }
                    }
                }
                Term::Switch {
                    sel,
                    targets,
                    default,
                } => {
                    table_fixups.push((jump_tables.len(), f.id, targets.clone(), *default));
                    code.push(Inst::JmpTable {
                        sel: Operand::Reg(*sel),
                        table: jump_tables.len() as u32,
                    });
                    jump_tables.push(JumpTable {
                        targets: Box::new([]),
                        default: Addr(0),
                    });
                    meta.push(m);
                }
                Term::Ret(v) => {
                    code.push(Inst::Ret { val: *v });
                    meta.push(m);
                }
                Term::Halt => {
                    code.push(Inst::Halt);
                    meta.push(m);
                }
            }
        }

        funcs.push(FuncInfo {
            name: f.name.clone(),
            entry: func_start, // patched below to block 0's address
            end: Addr(code.len() as u32),
            num_regs: f.num_regs,
            num_params: f.num_params,
            frame_words: f.frame_words,
        });
        block_addrs.push(addrs);
    }

    // Function entry is its block 0, wherever the layout put it.
    for (fi, info) in funcs.iter_mut().enumerate() {
        info.entry = block_addrs[fi][0];
    }

    // Resolve branch targets.
    for fx in &fixups {
        let addr = block_addrs[fx.func.0 as usize][fx.target.0 as usize];
        match &mut code[fx.inst] {
            Inst::Br { target, .. } | Inst::Jmp { target, .. } => *target = addr,
            other => unreachable!("fixup on non-branch {other:?}"),
        }
    }
    for (ti, func, targets, default) in table_fixups {
        let resolve = |b: BlockId| block_addrs[func.0 as usize][b.0 as usize];
        jump_tables[ti] = JumpTable {
            targets: targets.iter().copied().map(resolve).collect(),
            default: resolve(default),
        };
    }

    // Fill forward slots with copies of the target path, in address order
    // (the paper's algorithm: copy the next k+ℓ instructions of the
    // target trace; pad with NOPs where the target path runs out).
    if plan.slots > 0 {
        fill_slots(&mut code, &meta, &funcs);
    }

    let entry = funcs[module.entry.0 as usize].entry;
    Ok(Program {
        code,
        meta,
        funcs,
        jump_tables,
        entry,
        globals_words: module.globals_words,
        globals_init: module.globals_init.clone(),
        block_addrs,
    })
}

fn check_permutation(func: FuncId, order: &[BlockId], n: usize) -> Result<(), LowerError> {
    if order.len() != n {
        return Err(LowerError::BadOrder {
            func,
            detail: format!("order lists {} blocks, function has {n}", order.len()),
        });
    }
    let mut seen = vec![false; n];
    for b in order {
        let i = b.0 as usize;
        if i >= n || seen[i] {
            return Err(LowerError::BadOrder {
                func,
                detail: format!("block {b} repeated or out of range"),
            });
        }
        seen[i] = true;
    }
    Ok(())
}

fn lower_op(op: &Op) -> Inst {
    match op {
        Op::Alu { op, dst, a, b } => Inst::Alu {
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
        },
        Op::Cmp { cond, dst, a, b } => Inst::Cmp {
            cond: *cond,
            dst: *dst,
            a: *a,
            b: *b,
        },
        Op::Mov { dst, src } => Inst::Mov {
            dst: *dst,
            src: *src,
        },
        Op::Ld { dst, base, offset } => Inst::Ld {
            dst: *dst,
            base: *base,
            offset: *offset,
        },
        Op::St { src, base, offset } => Inst::St {
            src: *src,
            base: *base,
            offset: *offset,
        },
        Op::FrameAddr { dst, offset } => Inst::FrameAddr {
            dst: *dst,
            offset: *offset,
        },
        Op::In { dst, stream } => Inst::In {
            dst: *dst,
            stream: *stream,
        },
        Op::Out { src, stream } => Inst::Out {
            src: *src,
            stream: *stream,
        },
        Op::Call { func, args, dst } => Inst::Call {
            func: *func,
            args: args.clone().into_boxed_slice(),
            dst: *dst,
        },
        Op::Nop => Inst::Nop,
    }
}

/// Replace slot placeholder NOPs with copies of the instructions that
/// follow the branch target in the final layout (NOP-padded at function
/// end). Copies are never executed — branch semantics skip them — but
/// they occupy real addresses, so code-size and fetch-stream effects are
/// faithful.
fn fill_slots(code: &mut [Inst], meta: &[InstMeta], funcs: &[FuncInfo]) {
    for i in 0..code.len() {
        if meta[i].is_slot {
            // Copies of branches inside already-filled slots are
            // decorative; they have no slot placeholders of their own.
            continue;
        }
        let (target, slots) = match &code[i] {
            Inst::Br { target, slots, .. } if *slots > 0 => (*target, *slots),
            Inst::Jmp { target, slots } if *slots > 0 => (*target, *slots),
            _ => continue,
        };
        let func = meta[i].func;
        let fend = funcs[func.0 as usize].end.0 as usize;
        for j in 0..slots as usize {
            let slot_pos = i + 1 + j;
            let src_pos = target.0 as usize + j;
            debug_assert!(
                meta[slot_pos].is_slot,
                "slot placeholder expected at {slot_pos}"
            );
            code[slot_pos] = if src_pos < fend {
                code[src_pos].clone()
            } else {
                Inst::Nop
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{FunctionBuilder, Op};
    use crate::types::{AluOp, Cond, Reg};

    /// main: r1 = 0; loop: r1 += 1; if r1 < 3 goto loop; halt
    fn loop_module() -> Module {
        let mut fb = FunctionBuilder::new("main", FuncId(0), 0);
        let r = fb.new_reg();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.push(Op::Mov {
            dst: r,
            src: 0i64.into(),
        });
        fb.terminate(Term::Jmp(body));
        fb.switch_to(body);
        fb.push(Op::Alu {
            op: AluOp::Add,
            dst: r,
            a: r.into(),
            b: 1i64.into(),
        });
        fb.terminate(Term::Br {
            cond: Cond::Lt,
            a: r.into(),
            b: 3i64.into(),
            then_: body,
            else_: exit,
        });
        fb.switch_to(exit);
        fb.terminate(Term::Halt);
        let f = fb.finish();
        Module {
            funcs: vec![f],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        }
    }

    #[test]
    fn natural_lowering_elides_adjacent_jumps() {
        let m = loop_module();
        let p = lower(&m).unwrap();
        // mov, (jmp elided: body adjacent), add, br, halt
        assert_eq!(p.code.len(), 4);
        assert!(matches!(p.code[0], Inst::Mov { .. }));
        assert!(matches!(p.code[1], Inst::Alu { .. }));
        match &p.code[2] {
            Inst::Br {
                target,
                slots,
                likely,
                ..
            } => {
                assert_eq!(*target, Addr(1));
                assert_eq!(*slots, 0);
                assert!(!likely);
            }
            other => panic!("expected Br, got {other:?}"),
        }
        assert!(matches!(p.code[3], Inst::Halt));
        assert_eq!(p.entry, Addr(0));
    }

    #[test]
    fn branch_condition_inverted_when_then_is_adjacent() {
        // if r0 == 0 then next-block else far-block, with then adjacent.
        let mut fb = FunctionBuilder::new("main", FuncId(0), 1);
        let then_b = fb.new_block();
        let else_b = fb.new_block();
        fb.terminate(Term::Br {
            cond: Cond::Eq,
            a: Reg(0).into(),
            b: 0i64.into(),
            then_: then_b,
            else_: else_b,
        });
        fb.switch_to(then_b);
        fb.terminate(Term::Halt);
        fb.switch_to(else_b);
        fb.terminate(Term::Halt);
        let m = Module {
            funcs: vec![fb.finish()],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        };
        let p = lower(&m).unwrap();
        match &p.code[0] {
            Inst::Br { cond, target, .. } => {
                assert_eq!(*cond, Cond::Ne); // inverted
                assert_eq!(*target, p.block_addrs[0][2]);
            }
            other => panic!("expected Br, got {other:?}"),
        }
    }

    #[test]
    fn non_adjacent_branch_gets_trailing_jump() {
        // Layout: block0 (Br then=2 else=1), then put block2 right after 0
        // so neither successor of... actually order [0, 1, 2] with
        // then_=2: else_=1 adjacent, no extra jump. Force order [0, 2, 1]:
        // then_=2 adjacent → inverted branch; no extra jump either.
        // To force the two-instruction form use order [0,1,2] with
        // then_=1? that's adjacent too. Use a 4-block diamond.
        let mut fb = FunctionBuilder::new("main", FuncId(0), 1);
        let a = fb.new_block();
        let b = fb.new_block();
        let join = fb.new_block();
        fb.terminate(Term::Br {
            cond: Cond::Eq,
            a: Reg(0).into(),
            b: 0i64.into(),
            then_: a,
            else_: b,
        });
        fb.switch_to(a);
        fb.terminate(Term::Jmp(join));
        fb.switch_to(b);
        fb.terminate(Term::Jmp(join));
        fb.switch_to(join);
        fb.terminate(Term::Halt);
        let m = Module {
            funcs: vec![fb.finish()],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        };
        // Order that makes neither Br successor adjacent: [0, 3, 1, 2]
        let mut plan = LayoutPlan::natural(&m);
        plan.order[0] = vec![BlockId(0), BlockId(3), BlockId(1), BlockId(2)];
        let p = lower_with_plan(&m, &plan).unwrap();
        assert!(matches!(p.code[0], Inst::Br { .. }));
        assert!(matches!(p.code[1], Inst::Jmp { .. })); // explicit else jump
    }

    #[test]
    fn likely_branch_reserves_and_fills_slots() {
        let m = loop_module();
        let mut plan = LayoutPlan::natural(&m);
        // The loop back-edge branch lives in block 1; its then edge
        // (back to body) is likely.
        plan.set_likely(
            BranchId {
                func: FuncId(0),
                block: BlockId(1),
            },
            true,
        );
        plan.slots = 2;
        let p = lower_with_plan(&m, &plan).unwrap();
        // mov, add, br(+2 slots), slot, slot, halt
        assert_eq!(p.code.len(), 6);
        match &p.code[2] {
            Inst::Br {
                slots,
                likely,
                target,
                ..
            } => {
                assert_eq!(*slots, 2);
                assert!(*likely);
                assert_eq!(*target, Addr(1));
            }
            other => panic!("expected Br, got {other:?}"),
        }
        assert!(p.meta[3].is_slot && p.meta[4].is_slot);
        // Slots hold copies of the target path: add, br.
        assert!(matches!(p.code[3], Inst::Alu { .. }));
        assert!(matches!(p.code[4], Inst::Br { .. }));
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.len_without_slots(), 4);
    }

    #[test]
    fn slots_pad_with_nops_at_function_end() {
        // Branch whose target path has only one instruction before the
        // function ends.
        let mut fb = FunctionBuilder::new("main", FuncId(0), 1);
        let exit = fb.new_block();
        let other = fb.new_block();
        fb.terminate(Term::Br {
            cond: Cond::Eq,
            a: Reg(0).into(),
            b: 0i64.into(),
            then_: exit,
            else_: other,
        });
        fb.switch_to(other);
        fb.terminate(Term::Halt);
        fb.switch_to(exit);
        fb.terminate(Term::Halt);
        let m = Module {
            funcs: vec![fb.finish()],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        };
        // Layout [0, 2, 1]: then_=1(exit) laid out... order: block0, block2, block1.
        // Br then_=1, else_=2; next after 0 is 2 → else adjacent → Br(cond, then=1).
        let mut plan = LayoutPlan::natural(&m);
        plan.order[0] = vec![BlockId(0), BlockId(2), BlockId(1)];
        plan.set_likely(
            BranchId {
                func: FuncId(0),
                block: BlockId(0),
            },
            true,
        );
        plan.slots = 3;
        let p = lower_with_plan(&m, &plan).unwrap();
        // br(+3 slots), slot(halt copy), slot(nop pad), slot(nop pad), halt(other), halt(exit)
        assert_eq!(p.code.len(), 6);
        assert!(matches!(p.code[1], Inst::Halt)); // copy of exit's halt
        assert!(matches!(p.code[2], Inst::Nop));
        assert!(matches!(p.code[3], Inst::Nop));
    }

    #[test]
    fn bad_order_rejected() {
        let m = loop_module();
        let mut plan = LayoutPlan::natural(&m);
        plan.order[0] = vec![BlockId(0), BlockId(0), BlockId(1)];
        assert!(matches!(
            lower_with_plan(&m, &plan),
            Err(LowerError::BadOrder { .. })
        ));
        plan.order[0] = vec![BlockId(0)];
        assert!(matches!(
            lower_with_plan(&m, &plan),
            Err(LowerError::BadOrder { .. })
        ));
    }

    #[test]
    fn switch_lowering_builds_jump_table() {
        let mut fb = FunctionBuilder::new("main", FuncId(0), 1);
        let c0 = fb.new_block();
        let c1 = fb.new_block();
        let dfl = fb.new_block();
        fb.terminate(Term::Switch {
            sel: Reg(0),
            targets: vec![c0, c1],
            default: dfl,
        });
        for b in [c0, c1, dfl] {
            fb.switch_to(b);
            fb.terminate(Term::Halt);
        }
        let m = Module {
            funcs: vec![fb.finish()],
            globals_words: 0,
            globals_init: Vec::new(),
            entry: FuncId(0),
        };
        let p = lower(&m).unwrap();
        assert!(matches!(p.code[0], Inst::JmpTable { .. }));
        assert_eq!(p.jump_tables.len(), 1);
        let t = &p.jump_tables[0];
        assert_eq!(t.targets.len(), 2);
        assert_eq!(t.resolve(0), p.block_addrs[0][1]);
        assert_eq!(t.resolve(1), p.block_addrs[0][2]);
        assert_eq!(t.resolve(7), p.block_addrs[0][3]);
    }

    #[test]
    fn entry_points_at_block_zero_even_when_reordered() {
        let m = loop_module();
        let mut plan = LayoutPlan::natural(&m);
        plan.order[0] = vec![BlockId(1), BlockId(0), BlockId(2)];
        let p = lower_with_plan(&m, &plan).unwrap();
        assert_eq!(p.entry, p.block_addrs[0][0]);
        assert_ne!(p.entry, Addr(0));
    }
}
