//! # branchlab
//!
//! A full reproduction of **Hwu, Conte & Chang, “Comparing Software and
//! Hardware Schemes For Reducing the Cost of Branches” (ISCA 1989)** as
//! a Rust library — the three branch cost-reduction schemes (SBTB, CBTB,
//! Forward Semantic), every substrate they need (a profiling compiler
//! for a small C language, an IR interpreter with branch-event tracing,
//! trace selection and forward-slot filling, a parametric pipeline cost
//! model and cycle simulator), a 12-program benchmark suite standing in
//! for the paper's Unix workloads, and a harness that regenerates every
//! table and figure.
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`ir`] | `branchlab-ir` | CFG + linear IR, layout plans, lowering |
//! | [`minic`] | `branchlab-minic` | The MiniC compiler front end |
//! | [`interp`] | `branchlab-interp` | Interpreter + branch-event stream |
//! | [`trace`] | `branchlab-trace` | Event types, Table 1/2 statistics |
//! | [`predict`] | `branchlab-predict` | SBTB, CBTB, FS bits, baselines |
//! | [`profile`] | `branchlab-profile` | Probe builds, edge/site profiles |
//! | [`fsem`] | `branchlab-fsem` | Trace selection, forward slots, Table 5 |
//! | [`pipeline`] | `branchlab-pipeline` | Cost model + cycle simulator |
//! | [`workloads`] | `branchlab-workloads` | The 12 MiniC benchmarks |
//! | [`experiments`] | `branchlab-experiments` | Tables 1–5, Figures 3–4, ablations |
//! | [`server`] | `branchlab-server` | `branchlabd`: sweeps as an HTTP service |
//! | [`telemetry`] | `branchlab-telemetry` | Metrics, trace spans, probes, manifests |
//!
//! ## Quickstart
//!
//! ```
//! use branchlab::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Compile a program with the bundled C-like compiler.
//! let module = branchlab::minic::compile(
//!     "int main() { int i; int s = 0; for (i = 0; i < 100; i++) { s += i; } return s; }",
//! )?;
//!
//! // 2. Profile it, build the Forward Semantic binary, and compare
//! //    prediction accuracy against the 256-entry CBTB.
//! let profile = branchlab::profile::profile_module(&module, &[vec![]])?;
//! let fs_bin = branchlab::fsem::fs_program(&module, &profile, FsConfig::with_slots(2))?;
//!
//! let mut cbtb = Evaluator::new(Cbtb::paper());
//! branchlab::interp::run(&branchlab::ir::lower(&module)?, &Default::default(), &[], &mut cbtb)?;
//!
//! let mut fs = Evaluator::new(LikelyBit);
//! branchlab::interp::run(&fs_bin, &Default::default(), &[], &mut fs)?;
//!
//! // 3. Put both accuracies through the paper's cost model.
//! let flush = FlushModel { l_bar: 1.0, m_bar: 1.0 };
//! let cost_cbtb = branch_cost(cbtb.stats.accuracy(), 1, &flush);
//! let cost_fs = branch_cost(fs.stats.accuracy(), 1, &flush);
//! assert!(cost_fs > 1.0 && cost_cbtb > 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use branchlab_experiments as experiments;
pub use branchlab_fsem as fsem;
pub use branchlab_interp as interp;
pub use branchlab_ir as ir;
pub use branchlab_minic as minic;
pub use branchlab_pipeline as pipeline;
pub use branchlab_predict as predict;
pub use branchlab_profile as profile;
pub use branchlab_server as server;
pub use branchlab_telemetry as telemetry;
pub use branchlab_trace as trace;
pub use branchlab_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use branchlab_experiments::{
        run_benchmark, run_suite, run_suite_supervised, ExperimentConfig, SuiteResult,
        SupervisorConfig,
    };
    pub use branchlab_fsem::{fs_program, FsConfig};
    pub use branchlab_interp::{run, run_simple, ExecConfig};
    pub use branchlab_ir::{lower, lower_with_plan, LayoutPlan, Module, Program};
    pub use branchlab_minic::compile;
    pub use branchlab_pipeline::{branch_cost, CycleSim, FlushModel, PipelineConfig};
    pub use branchlab_predict::{
        BranchPredictor, Cbtb, Evaluator, ForwardSemantic, LikelyBit, Sbtb,
    };
    pub use branchlab_profile::{profile_module, Profile};
    pub use branchlab_trace::{BranchEvent, BranchKind, BranchMix, ExecHooks};
    pub use branchlab_workloads::{benchmark, Benchmark, Scale, SUITE};
}
