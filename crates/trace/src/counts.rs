//! Per-pc execution counts over one binary.
//!
//! The experiment's natural pass counts every branch, call and return
//! of the conventional binary into one [`PcCounts`]; the static
//! schemes are scored from it and the Forward Semantic profile is
//! derived from it, so one run of the binary serves both.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use branchlab_ir::{Addr, FuncId};

use crate::event::{BranchEvent, BranchKind, ExecHooks};

/// Dense per-pc counts of one binary's branches, calls and returns,
/// plus its jump-table transfers and runs.
///
/// `counts()[pc]` is `[not taken, taken]` for a branch at `pc` and
/// `[returned, called]` for a call: every return lands on `call pc + 1`,
/// so a call site's two counts differ only by the frames a `Halt`
/// inside a callee left open. A function's entries are the calls of
/// its call sites, plus one per run for the program's entry function.
///
/// ```
/// use branchlab_trace::PcCounts;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = branchlab_minic::compile(
///     "int f(int x) { return x + 1; } int main() { return f(f(1)); }",
/// )?;
/// let program = branchlab_ir::lower(&module)?;
/// let mut counts = PcCounts::new(program.code.len());
/// counts.start_run();
/// branchlab_interp::run(&program, &Default::default(), &[], &mut counts)?;
/// let calls: Vec<[u64; 2]> = program
///     .code
///     .iter()
///     .zip(counts.counts())
///     .filter(|(inst, _)| matches!(inst, branchlab_ir::Inst::Call { .. }))
///     .map(|(_, &c)| c)
///     .collect();
/// assert_eq!(calls, [[1, 1], [1, 1]]);
/// assert_eq!(counts.runs(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PcCounts {
    counts: Vec<[u64; 2]>,
    /// Jump-table transfers: `(pc, target)` → count.
    jumps: HashMap<(u32, u32), u64, BuildKeyHasher>,
    runs: u64,
}

impl PcCounts {
    /// Empty counts for a binary of `pcs` instructions.
    #[must_use]
    pub fn new(pcs: usize) -> Self {
        PcCounts {
            counts: vec![[0; 2]; pcs],
            jumps: HashMap::default(),
            runs: 0,
        }
    }

    /// Begin one program invocation.
    pub fn start_run(&mut self) {
        self.runs += 1;
    }

    #[inline]
    fn record(&mut self, pc: u32, taken: bool) {
        self.counts[pc as usize][usize::from(taken)] += 1;
    }

    /// The per-pc table: `[not taken, taken]` per branch, `[returned,
    /// called]` per call, zero elsewhere.
    #[must_use]
    pub fn counts(&self) -> &[[u64; 2]] {
        &self.counts
    }

    /// Jump-table transfers as `(pc, target, count)`, in unspecified
    /// order.
    pub fn jumps(&self) -> impl Iterator<Item = (Addr, Addr, u64)> + '_ {
        self.jumps
            .iter()
            .map(|(&(pc, target), &n)| (Addr(pc), Addr(target), n))
    }

    /// Program invocations counted.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Add `other`'s counts, jump-table transfers and runs to these.
    /// Counts are plain tallies, so counting some runs here and the
    /// rest in `other` and merging equals counting every run in one.
    ///
    /// # Panics
    /// Panics if the two count different binaries (table lengths differ).
    pub fn merge(&mut self, other: &PcCounts) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merged counts must cover one binary"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            mine[0] += theirs[0];
            mine[1] += theirs[1];
        }
        for (&key, &n) in &other.jumps {
            *self.jumps.entry(key).or_insert(0) += n;
        }
        self.runs += other.runs;
    }
}

impl ExecHooks for PcCounts {
    #[inline]
    fn branch(&mut self, ev: &BranchEvent) {
        self.record(ev.pc.0, ev.taken);
        if ev.kind == BranchKind::UncondIndirect {
            *self.jumps.entry((ev.pc.0, ev.target.0)).or_insert(0) += 1;
        }
    }

    fn call(&mut self, from: Addr, _callee: FuncId) {
        self.record(from.0, true);
    }

    fn ret(&mut self, _from: Addr, to: Addr) {
        self.record(to.0 - 1, false);
    }
}

/// Multiply-xorshift hasher for the jump-table map's small integer keys
/// — `SipHash`'s keyed setup costs more than the whole probe.
#[derive(Clone, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        let x = (self.0 ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

#[derive(Clone, Debug, Default)]
struct BuildKeyHasher;

impl BuildHasher for BuildKeyHasher {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_ir::{BlockId, BranchId};

    fn indirect(pc: u32, target: u32) -> BranchEvent {
        BranchEvent {
            pc: Addr(pc),
            kind: BranchKind::UncondIndirect,
            taken: true,
            target: Addr(target),
            fallthrough: Addr(pc + 1),
            branch: BranchId {
                func: FuncId(0),
                block: BlockId(0),
            },
            likely: false,
            cond: None,
        }
    }

    #[test]
    fn calls_returns_and_jump_tables_share_the_pc_table() {
        let mut c = PcCounts::new(8);
        c.start_run();
        c.call(Addr(2), FuncId(3));
        c.ret(Addr(7), Addr(3));
        c.call(Addr(2), FuncId(3)); // never returns
        c.branch(&indirect(5, 1));
        c.branch(&indirect(5, 1));
        c.branch(&indirect(5, 4));
        assert_eq!(c.counts()[2], [1, 2]);
        assert_eq!(c.counts()[5], [0, 3]);
        assert_eq!(c.runs(), 1);
        let mut jumps: Vec<_> = c.jumps().collect();
        jumps.sort_unstable();
        assert_eq!(jumps, vec![(Addr(5), Addr(1), 2), (Addr(5), Addr(4), 1)]);
    }

    #[test]
    fn merge_adds_counts_jumps_and_runs() {
        let mut a = PcCounts::new(8);
        a.start_run();
        a.branch(&indirect(5, 1));
        let mut b = PcCounts::new(8);
        b.start_run();
        b.start_run();
        b.branch(&indirect(5, 1));
        b.branch(&indirect(5, 4));
        b.call(Addr(2), FuncId(3));
        a.merge(&b);
        assert_eq!(a.counts()[5], [0, 3]);
        assert_eq!(a.counts()[2], [0, 1]);
        assert_eq!(a.runs(), 3);
        let mut jumps: Vec<_> = a.jumps().collect();
        jumps.sort_unstable();
        assert_eq!(jumps, vec![(Addr(5), Addr(1), 2), (Addr(5), Addr(4), 1)]);
    }
}
