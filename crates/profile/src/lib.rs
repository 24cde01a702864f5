//! # branchlab-profile
//!
//! Profiling infrastructure: the software half of the paper's Forward
//! Semantic pipeline. The paper's profiling compiler plants a probe in
//! every basic block; here the profile comes from the conventional
//! (natural) binary itself. Its per-pc branch, call and return counts
//! ([`PcCounts`], which the experiment's natural pass keeps anyway)
//! observe every CFG edge except the jumps the lowering elided, and
//! [`Profile::from_natural`] recovers those by flow conservation. The
//! resulting [`Profile`] records per-site taken/total counts, CFG edge
//! weights, and function entry counts — exactly what a probe build
//! records (`tests/dense_oracle.rs`). Trace selection
//! (`branchlab-fsem`) and likely-bit derivation both consume this.
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

use branchlab_interp::{run, ExecConfig, ExecError};
use branchlab_ir::{
    lower, Addr, BlockId, BranchId, FuncId, Inst, LowerError, Module, Op, Program, Term,
};
use branchlab_trace::{PcCounts, SiteCounts, SiteStats};

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

    /// Derive the profile of `module` from counts taken over its natural
    /// binary `natural` (`lower(module)`), with [`PcCounts::start_run`]
    /// called once per run.
    ///
    /// Every CFG edge is resolved through its block's terminator, never
    /// through addresses (an empty block shares its address with the
    /// next one). A `Br`, a `Jmp` to a block other than the layout-next
    /// one, and a jump table each execute as a branch, so their counts
    /// are the edge weights; which `Br` successor is the taken one
    /// follows the lowering's rule (`else_` next: `then_` is taken;
    /// `then_` next: `else_` is taken; neither: `then_` is taken and a
    /// trailing `Jmp` goes to `else_`). The jumps the lowering elided
    /// each go to the layout-next block, so they form forward chains,
    /// and one sweep in layout order weighs them by flow conservation:
    /// a block's weight is its entries plus its observed in-edges plus
    /// the elided edge from its predecessor, and an elided jump carries
    /// that weight on, less the frames a `Halt` inside a callee left
    /// open in the block.
    ///
    /// # Errors
    /// [`ProfileError::AmbiguousJumpTarget`] when a jump-table transfer
    /// lands on an address that two of that table's targets share.
    ///
    /// # Panics
    /// Panics if `counts` was not taken over `natural`, or `natural` is
    /// not `module`'s natural lowering.
    pub fn from_natural(
        module: &Module,
        natural: &Program,
        counts: &PcCounts,
    ) -> Result<Profile, ProfileError> {
        let pc_counts = counts.counts();
        // A call site's counts give its callee's entries, and the frames
        // still open in the calling block when the program halted.
        let mut profile = Profile {
            func_entries: vec![0; module.funcs.len()],
            ..Profile::default()
        };
        profile.func_entries[module.entry.0 as usize] = counts.runs();
        let mut open: Vec<Vec<u64>> = Vec::with_capacity(module.funcs.len());
        for f in &module.funcs {
            let addrs = &natural.block_addrs[f.id.0 as usize];
            let open_in = f.blocks.iter().zip(addrs).map(|(block, addr)| {
                let mut frames = 0;
                for (k, op) in block.ops.iter().enumerate() {
                    if let Op::Call { func, .. } = op {
                        let [returned, called] = pc_counts[addr.0 as usize + k];
                        profile.func_entries[func.0 as usize] += called;
                        frames += called - returned;
                    }
                }
                frames
            });
            open.push(open_in.collect());
        }
        let mut jumps: HashMap<u32, Vec<(Addr, u64)>> = HashMap::new();
        for (pc, target, n) in counts.jumps() {
            jumps.entry(pc.0).or_default().push((target, n));
        }

        for f in &module.funcs {
            let func = f.id;
            let addrs = &natural.block_addrs[func.0 as usize];
            let mut inflow = vec![0u64; f.blocks.len()];
            let mut add_edge = |profile: &mut Profile, from: BlockId, to: BlockId, n: u64| {
                if n > 0 {
                    inflow[to.0 as usize] += n;
                    *profile.edges.entry(Edge { func, from, to }).or_insert(0) += n;
                }
            };
            // The natural layout emits blocks in index order.
            let mut elided = vec![false; f.blocks.len()];
            for (i, block) in f.blocks.iter().enumerate() {
                let from = block.id;
                let next = (i + 1 < f.blocks.len()).then(|| BlockId(i as u32 + 1));
                let pc = addrs[i].0 as usize + block.ops.len();
                match &block.term {
                    &Term::Br { then_, else_, .. } => {
                        assert!(matches!(natural.code[pc], Inst::Br { .. }), "no Br at {pc}");
                        let [not_taken, taken] = pc_counts[pc];
                        let site = BranchId { func, block: from };
                        let total = taken + not_taken;
                        profile.sites.add(site, SiteCounts { taken, total });
                        if Some(else_) == next {
                            add_edge(&mut profile, from, then_, taken);
                            add_edge(&mut profile, from, else_, not_taken);
                        } else if Some(then_) == next {
                            add_edge(&mut profile, from, else_, taken);
                            add_edge(&mut profile, from, then_, not_taken);
                        } else {
                            add_edge(&mut profile, from, then_, taken);
                            add_edge(&mut profile, from, else_, pc_counts[pc + 1][1]);
                        }
                    }
                    &Term::Jmp(to) if Some(to) == next => elided[i] = true,
                    &Term::Jmp(to) => {
                        assert!(
                            matches!(natural.code[pc], Inst::Jmp { .. }),
                            "no Jmp at {pc}"
                        );
                        add_edge(&mut profile, from, to, pc_counts[pc][1]);
                    }
                    Term::Switch {
                        targets, default, ..
                    } => {
                        assert!(
                            matches!(natural.code[pc], Inst::JmpTable { .. }),
                            "no JmpTable at {pc}"
                        );
                        for &(addr, n) in jumps.get(&(pc as u32)).into_iter().flatten() {
                            let mut hits = targets
                                .iter()
                                .chain([default])
                                .filter(|b| addrs[b.0 as usize] == addr);
                            let to = *hits.next().expect("a transfer lands on a table target");
                            if hits.any(|&b| b != to) {
                                return Err(ProfileError::AmbiguousJumpTarget {
                                    func,
                                    pc: Addr(pc as u32),
                                });
                            }
                            add_edge(&mut profile, from, to, n);
                        }
                    }
                    Term::Ret(_) | Term::Halt => {}
                }
            }

            let mut carried = 0;
            for (i, block) in f.blocks.iter().enumerate() {
                let entries = if i == 0 { profile.func_entry(func) } else { 0 };
                let weight = entries + inflow[i] + carried;
                carried = 0;
                if elided[i] {
                    carried = weight - open[func.0 as usize][i];
                    if carried > 0 {
                        let edge = Edge {
                            func,
                            from: block.id,
                            to: BlockId(i as u32 + 1),
                        };
                        profile.edges.insert(edge, carried);
                    }
                }
            }
        }
        Ok(profile)
    }
}

/// Errors from end-to-end profiling.
#[derive(Debug)]
pub enum ProfileError {
    /// Lowering the natural layout failed.
    Lower(LowerError),
    /// A profiling run failed.
    Exec(ExecError),
    /// A jump-table transfer landed on an address that several of the
    /// table's targets share (empty blocks take the address of the
    /// block after them), so the natural binary cannot tell which edge
    /// ran. MiniC folds empty switch arms away, so only hand-built IR
    /// gets here.
    AmbiguousJumpTarget {
        /// Function holding the table.
        func: FuncId,
        /// Address of the `JmpTable`.
        pc: Addr,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Lower(e) => write!(f, "profiling lower failed: {e}"),
            ProfileError::Exec(e) => write!(f, "profiling run failed: {e}"),
            ProfileError::AmbiguousJumpTarget { func, pc } => write!(
                f,
                "jump table at {pc} in {func} has several targets at one address"
            ),
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

/// Profile a module over several runs with explicit execution limits:
/// run its natural binary once per run into a [`PcCounts`] and derive
/// the profile ([`Profile::from_natural`]).
///
/// # Errors
/// Returns [`ProfileError`] if lowering, any run, or the derivation
/// fails.
pub fn profile_module_with(
    module: &Module,
    runs: &[Vec<Vec<u8>>],
    config: &ExecConfig,
) -> Result<Profile, ProfileError> {
    let natural = lower(module)?;
    let mut counts = PcCounts::new(natural.code.len());
    for streams in runs {
        counts.start_run();
        let stream_refs: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();
        run(&natural, config, &stream_refs, &mut counts)?;
    }
    Profile::from_natural(module, &natural, &counts)
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
