//! # branchlab-profile
//!
//! Profiling infrastructure: the software half of the paper's Forward
//! Semantic pipeline. A module is lowered with an *instrumented* layout
//! (no jump elision — the analogue of the paper's basic-block probes),
//! executed over one or more representative inputs, and the resulting
//! [`Profile`] records per-site taken/total counts, CFG edge weights,
//! and function entry counts. Trace selection (`branchlab-fsem`) and
//! likely-bit derivation both consume this.
//!
//! ```
//! use branchlab_profile::profile_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = branchlab_minic::compile(r"
//!     int main() {
//!         int c; int n = 0;
//!         while ((c = getc(0)) != -1) { if (c == ' ') { n++; } }
//!         return n;
//!     }
//! ")?;
//! let profile = branchlab_profile::profile_module(&module, &[vec![b"a b c".to_vec()]])?;
//! assert!(profile.sites.len() >= 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use branchlab_interp::{run, ExecConfig, ExecError};
use branchlab_ir::{
    lower_with_plan, Addr, BlockId, BranchId, FuncId, Inst, LayoutPlan, LowerError, Module, Program,
};
use branchlab_trace::{BranchEvent, BranchKind, ExecHooks, SiteCounts, SiteStats};

/// A CFG edge within one function.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Function containing the edge.
    pub func: FuncId,
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
}

/// Aggregated profile data over one or more runs.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-branch-site taken/total counts.
    pub sites: SiteStats,
    /// Execution counts of CFG edges.
    pub edges: HashMap<Edge, u64>,
    /// Entry counts per function (calls, plus one for the entry
    /// function per run).
    pub func_entries: Vec<u64>,
}

impl Profile {
    /// Weight of an edge (0 if never executed).
    #[must_use]
    pub fn edge_weight(&self, func: FuncId, from: BlockId, to: BlockId) -> u64 {
        self.edges
            .get(&Edge { func, from, to })
            .copied()
            .unwrap_or(0)
    }

    /// Entry count of a function.
    #[must_use]
    pub fn func_entry(&self, func: FuncId) -> u64 {
        self.func_entries.get(func.0 as usize).copied().unwrap_or(0)
    }

    /// Block execution weights by flow conservation: a block's weight is
    /// the sum of its incoming edge weights, plus the function entry
    /// count for block 0.
    #[must_use]
    pub fn block_weights(&self, module: &Module) -> Vec<Vec<u64>> {
        let mut w: Vec<Vec<u64>> = module
            .funcs
            .iter()
            .map(|f| vec![0u64; f.blocks.len()])
            .collect();
        for (fi, weights) in w.iter_mut().enumerate() {
            weights[0] = self.func_entry(FuncId(fi as u32));
        }
        for (edge, count) in &self.edges {
            w[edge.func.0 as usize][edge.to.0 as usize] += count;
        }
        w
    }

    /// Merge another profile (e.g. from a different input) into this one.
    pub fn merge(&mut self, other: &Profile) {
        self.sites.merge(&other.sites);
        for (e, c) in &other.edges {
            *self.edges.entry(*e).or_insert(0) += c;
        }
        if self.func_entries.len() < other.func_entries.len() {
            self.func_entries.resize(other.func_entries.len(), 0);
        }
        for (i, c) in other.func_entries.iter().enumerate() {
            self.func_entries[i] += c;
        }
    }
}

/// Live profiler: an [`ExecHooks`] sink that maps branch events back to
/// CFG blocks of the instrumented program it was built for.
///
/// Every branch event lands in a dense per-address counter: the
/// successors of a `Br` or `Jmp` are fixed by the instruction, so its
/// taken and fall-through counts determine its site counts and both of
/// its edges. Only jump-table dispatch (whose target varies) keeps a
/// small map. [`Profiler::into_profile`] resolves the counts to sites
/// and CFG edges once, at the end.
#[derive(Clone, Debug)]
pub struct Profiler {
    /// `block_at[a]`: the block whose first instruction is at `a`, or
    /// `None` inside a block.
    block_at: Vec<Option<(FuncId, BlockId)>>,
    /// Every `Br` and `Jmp` of the program, in address order.
    branches: Vec<DirectBranch>,
    /// `outcomes[pc]`: `[not taken, taken]` executions of the `Br` or
    /// `Jmp` at `pc`.
    outcomes: Vec<[u64; 2]>,
    /// Jump-table transfers: `(pc, next_pc)` → the dispatching block
    /// and the transfer count.
    jumps: HashMap<(u32, u32), (BranchId, u64), BuildKeyHasher>,
    func_entries: Vec<u64>,
}

/// The static shape of one direct branch.
#[derive(Copy, Clone, Debug)]
struct DirectBranch {
    pc: u32,
    from: BranchId,
    cond: bool,
    target: Addr,
    fallthrough: Addr,
}

impl Profiler {
    /// Create a profiler for `program` (which should be lowered with
    /// [`LayoutPlan::instrumented`] so all edges are observable).
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let len = program
            .block_addrs
            .iter()
            .flatten()
            .map(|a| a.0 as usize + 1)
            .max();
        let mut block_at = vec![None; len.unwrap_or(0)];
        for (fi, blocks) in program.block_addrs.iter().enumerate() {
            for (bi, addr) in blocks.iter().enumerate() {
                // If several blocks start at one address, the last
                // one listed wins.
                block_at[addr.0 as usize] = Some((FuncId(fi as u32), BlockId(bi as u32)));
            }
        }
        let branches = program
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, inst)| {
                let (cond, target, slots) = match *inst {
                    Inst::Br { target, slots, .. } => (true, target, slots),
                    Inst::Jmp { target, slots } => (false, target, slots),
                    _ => return None,
                };
                let pc = pc as u32;
                Some(DirectBranch {
                    pc,
                    from: program.meta[pc as usize].branch_id(),
                    cond,
                    target,
                    fallthrough: Addr(pc + 1 + u32::from(slots)),
                })
            })
            .collect();
        Profiler {
            block_at,
            branches,
            outcomes: vec![[0; 2]; program.code.len()],
            jumps: HashMap::default(),
            func_entries: vec![0; program.funcs.len()],
        }
    }

    /// Record one entry of the program's entry function (call once per
    /// run).
    pub fn record_program_entry(&mut self, entry: FuncId) {
        self.func_entries[entry.0 as usize] += 1;
    }

    /// Extract the accumulated profile.
    #[must_use]
    pub fn into_profile(self) -> Profile {
        let mut profile = Profile {
            func_entries: self.func_entries,
            ..Profile::default()
        };
        // A transfer is an edge only when it lands on the first
        // instruction of a block of the same function: a not-taken
        // fallthrough onto a trailing `Jmp` of the same block is not a
        // block boundary (the `Jmp`'s own count records the real edge).
        let mut add_edge = |from: BranchId, next_pc: Addr, count: u64| {
            if count == 0 {
                return;
            }
            if let Some(&Some((func, to))) = self.block_at.get(next_pc.0 as usize) {
                if func == from.func {
                    let edge = Edge {
                        func,
                        from: from.block,
                        to,
                    };
                    *profile.edges.entry(edge).or_insert(0) += count;
                }
            }
        };
        for b in &self.branches {
            let [not_taken, taken] = self.outcomes[b.pc as usize];
            add_edge(b.from, b.target, taken);
            add_edge(b.from, b.fallthrough, not_taken);
            // Only conditional branches contribute to per-site bias: a
            // block may also own a trailing unconditional jump, which
            // must not skew its likely bit.
            if b.cond {
                let total = taken + not_taken;
                profile.sites.add(b.from, SiteCounts { taken, total });
            }
        }
        for (&(_, next_pc), &(from, count)) in &self.jumps {
            add_edge(from, Addr(next_pc), count);
        }
        profile
    }
}

impl ExecHooks for Profiler {
    fn branch(&mut self, ev: &BranchEvent) {
        if ev.kind == BranchKind::UncondIndirect {
            self.jumps
                .entry((ev.pc.0, ev.target.0))
                .or_insert((ev.branch, 0))
                .1 += 1;
        } else {
            self.outcomes[ev.pc.0 as usize][usize::from(ev.taken)] += 1;
        }
    }

    fn call(&mut self, _from: Addr, callee: FuncId) {
        self.func_entries[callee.0 as usize] += 1;
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

/// Errors from end-to-end profiling.
#[derive(Debug)]
pub enum ProfileError {
    /// Lowering the instrumented layout failed.
    Lower(LowerError),
    /// A profiling run failed.
    Exec(ExecError),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Lower(e) => write!(f, "profiling lower failed: {e}"),
            ProfileError::Exec(e) => write!(f, "profiling run failed: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<LowerError> for ProfileError {
    fn from(e: LowerError) -> Self {
        ProfileError::Lower(e)
    }
}

impl From<ExecError> for ProfileError {
    fn from(e: ExecError) -> Self {
        ProfileError::Exec(e)
    }
}

/// Profile a module over several runs (each run is a set of input
/// streams), with default execution limits.
///
/// # Errors
/// Returns [`ProfileError`] if lowering or any run fails.
pub fn profile_module(module: &Module, runs: &[Vec<Vec<u8>>]) -> Result<Profile, ProfileError> {
    profile_module_with(module, runs, &ExecConfig::default())
}

/// Profile a module over several runs with explicit execution limits.
///
/// # Errors
/// Returns [`ProfileError`] if lowering or any run fails.
pub fn profile_module_with(
    module: &Module,
    runs: &[Vec<Vec<u8>>],
    config: &ExecConfig,
) -> Result<Profile, ProfileError> {
    let program = lower_with_plan(module, &LayoutPlan::instrumented(module))?;
    let mut profiler = Profiler::new(&program);
    for streams in runs {
        profiler.record_program_entry(module.entry);
        let stream_refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&program, config, &stream_refs, &mut profiler)?;
    }
    Ok(profiler.into_profile())
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchlab_ir::Module;
    use branchlab_minic::compile;

    fn profile_src(src: &str, runs: &[Vec<Vec<u8>>]) -> (Module, Profile) {
        let m = compile(src).unwrap();
        let p = profile_module(&m, runs).unwrap();
        (m, p)
    }

    #[test]
    fn loop_profile_counts_iterations() {
        let (m, p) = profile_src(
            "int main() { int i; int s = 0; for (i = 0; i < 10; i++) { s += i; } return s; }",
            &[vec![]],
        );
        // The loop condition site executed 11 times, taken 10 (or the
        // inverted equivalent: taken 1). Find it by total.
        let cond_site = p
            .sites
            .iter()
            .find(|(_, c)| c.total == 11)
            .expect("loop condition site");
        assert!(
            cond_site.1.taken == 10 || cond_site.1.taken == 1,
            "{cond_site:?}"
        );
        let w = p.block_weights(&m);
        // Entry block of main runs exactly once.
        assert_eq!(w[0][0], 1);
        // Some block (the loop body) runs 10 times.
        assert!(w[0].contains(&10), "{w:?}");
    }

    #[test]
    fn flow_conservation_holds() {
        let src = r"
            int f(int n) { if (n % 2 == 0) { return n / 2; } return 3 * n + 1; }
            int main() {
                int i; int x = 27;
                for (i = 0; i < 40; i++) { x = f(x); }
                return x;
            }
        ";
        let (m, p) = profile_src(src, &[vec![]]);
        let w = p.block_weights(&m);
        let entry = m.entry.0 as usize;
        assert_eq!(w[entry][0], p.func_entry(m.entry));
        let func = m.func_by_name("f").unwrap();
        let f_id = func.id;
        assert_eq!(w[f_id.0 as usize][0], 40);
        // Outgoing edge weights of each branch block sum to its weight.
        for b in &func.blocks {
            if let branchlab_ir::Term::Br { then_, else_, .. } = b.term {
                let out = p.edge_weight(f_id, b.id, then_) + p.edge_weight(f_id, b.id, else_);
                assert_eq!(out, w[f_id.0 as usize][b.id.0 as usize], "block {}", b.id);
            }
        }
    }

    #[test]
    fn multi_run_accumulates() {
        let src = "int main() { int c; int n = 0; while ((c = getc(0)) != -1) { n++; } return n; }";
        let (_, p1) = profile_src(src, &[vec![b"abc".to_vec()]]);
        let (_, p3) = profile_src(
            src,
            &[
                vec![b"abc".to_vec()],
                vec![b"d".to_vec()],
                vec![b"".to_vec()],
            ],
        );
        let total1: u64 = p1.sites.iter().map(|(_, c)| c.total).sum();
        let total3: u64 = p3.sites.iter().map(|(_, c)| c.total).sum();
        assert!(total3 > total1);
        assert_eq!(p3.func_entry(FuncId(0)), 3);
    }

    #[test]
    fn profile_merge_equals_joint_profile() {
        let src = "int main() { int c; int n = 0; while ((c = getc(0)) != -1) { n += c; } return n & 255; }";
        let m = compile(src).unwrap();
        let run_a = vec![b"hello".to_vec()];
        let run_b = vec![b"world!".to_vec()];
        let mut separate = profile_module(&m, std::slice::from_ref(&run_a)).unwrap();
        separate.merge(&profile_module(&m, std::slice::from_ref(&run_b)).unwrap());
        let joint = profile_module(&m, &[run_a, run_b]).unwrap();
        let sum = |p: &Profile| -> (u64, u64) {
            p.sites
                .iter()
                .fold((0, 0), |(t, n), (_, c)| (t + c.taken, n + c.total))
        };
        assert_eq!(sum(&separate), sum(&joint));
        assert_eq!(separate.edges, joint.edges);
        assert_eq!(separate.func_entries, joint.func_entries);
    }

    #[test]
    fn biased_branch_bias_is_visible() {
        // 90% spaces: the `c == ' '` check is heavily biased.
        let input: Vec<u8> = (0..100)
            .map(|i| if i % 10 == 0 { b'x' } else { b' ' })
            .collect();
        let src = r"
            int main() {
                int c; int n = 0;
                while ((c = getc(0)) != -1) { if (c == ' ') { n++; } }
                return n;
            }
        ";
        let (_, p) = profile_src(src, &[vec![input]]);
        let biased = p
            .sites
            .iter()
            .find(|(_, c)| c.total == 100 && (c.taken == 90 || c.taken == 10));
        assert!(biased.is_some(), "expected a 90/10 site");
    }
}
