//! # Pesto: near-optimal joint placement and scheduling of DNN operations
//!
//! A from-scratch Rust reproduction of *"Towards Optimal Placement and
//! Scheduling of DNN Operations with Pesto"* (Hafeez, Sun, Gandhi, Liu —
//! Middleware 2021).
//!
//! Training a DNN that does not fit on one GPU requires *model
//! parallelism*: partitioning the operation DAG across GPUs. Pesto jointly
//! optimizes **where** each operation runs and **when**, by (1) estimating
//! per-op compute times and a linear communication model from profiles,
//! (2) coarsening the DAG with cycle-free batch merging, (3) solving a 0-1
//! ILP with precedence, non-overlap, link-congestion and memory-balance
//! constraints, and (4) expanding the coarse solution back to all
//! operations.
//!
//! This crate is the user-facing facade: the [`Pesto`] pipeline plus
//! re-exports of every subsystem crate. See `DESIGN.md` in the repository
//! for the full system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured results.
//!
//! Beyond the paper's clean-conditions pipeline, a robustness layer asks
//! how plans behave when the cluster misbehaves: [`evaluate_robustness`]
//! replays a plan under deterministic fault draws (stragglers, jitter,
//! degraded links), [`repair_after_outage`] re-places stranded ops after
//! a GPU dies, and [`PestoConfig::time_budget`] turns the solver stack
//! into a deadline-aware degradation ladder (recorded in
//! [`PestoOutcome::degradation`]).
//!
//! The simulator can also pipeline *K* consecutive training steps
//! (double-buffered memory, weight updates as per-step barriers) to
//! measure sustained throughput instead of one-step latency:
//! [`evaluate_plan_pipelined`] reports the fill / steady-state / drain
//! breakdown, [`PestoConfig::pipeline_steps`] records it on
//! [`PestoOutcome::pipeline`], and [`RobustnessConfig::steps`] makes the
//! fault sweep rank plans by steady-state step time.
//!
//! ## Quickstart
//!
//! ```
//! use pesto::{Pesto, PestoConfig};
//! use pesto::graph::Cluster;
//! use pesto::models::ModelSpec;
//!
//! # fn main() -> Result<(), pesto::PestoError> {
//! // A (reduced-size) NASNet training DAG and the paper's 2-GPU testbed.
//! let graph = ModelSpec::nasnet(3, 16).generate(32, 42);
//! let cluster = Cluster::two_gpus();
//!
//! let pesto = Pesto::new(PestoConfig::fast());
//! let outcome = pesto.place(&graph, &cluster)?;
//! println!(
//!     "per-step time {:.1} ms after coarsening {} -> {} ops",
//!     outcome.makespan_us / 1000.0,
//!     graph.op_count(),
//!     outcome.coarse_op_count,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod eval;
mod pipeline;
mod robust;
mod storage;

pub use checkpoint::{
    generation_path, graph_fingerprint, latest_generation, latest_valid_generation,
    load_checkpoint, prune, quarantine_file, save_checkpoint, CheckpointConfig, CheckpointError,
    CheckpointIncumbent, GenerationScan, PruneReport, SearchCheckpoint, CHECKPOINT_SCHEMA_VERSION,
};
pub use eval::{
    evaluate_plan, evaluate_plan_avg, evaluate_plan_pipelined, PipelinedOutcome, StepOutcome,
};
pub use pesto_obs::CancelToken;
pub use pipeline::{DegradationReason, Pesto, PestoConfig, PestoError, PestoOutcome, StageTiming};
pub use robust::{
    evaluate_robustness, repair_after_outage, RepairOutcome, RobustnessConfig, RobustnessReport,
    ROBUSTNESS_SCHEMA_VERSION,
};
pub use storage::{ChaosPlan, ChaosStorage, FsStorage, Storage};

/// Re-export: operation DAGs, clusters, and plans.
pub mod graph {
    pub use pesto_graph::*;
}
/// Re-export: profiling and communication cost models.
pub mod cost {
    pub use pesto_cost::*;
}
/// Re-export: the LP solver.
pub mod lp {
    pub use pesto_lp::*;
}
/// Re-export: the branch-and-bound MILP solver.
pub mod milp {
    pub use pesto_milp::*;
}
/// Re-export: the discrete-event training-step simulator.
pub mod sim {
    pub use pesto_sim::*;
}
/// Re-export: cycle-free graph coarsening.
pub mod coarsen {
    pub use pesto_coarsen::*;
}
/// Re-export: the Pesto ILP, hybrid solver, and placer.
pub mod ilp {
    pub use pesto_ilp::*;
}
/// Re-export: Expert, Baechi, and other baselines.
pub mod baselines {
    pub use pesto_baselines::*;
}
/// Re-export: hierarchical sharded placement for paper-scale graphs.
pub mod shard {
    pub use pesto_shard::*;
}
/// Re-export: synthetic DNN model generators.
pub mod models {
    pub use pesto_models::*;
}
/// Re-export: spans, metrics, and solver-progress telemetry.
pub mod obs {
    pub use pesto_obs::*;
}
