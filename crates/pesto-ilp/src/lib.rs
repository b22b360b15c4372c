//! The Pesto joint placement-and-scheduling optimizer (paper §3.2).
//!
//! This crate is the paper's primary contribution: given an operation DAG,
//! a cluster, and a communication cost model, jointly decide *where* every
//! operation runs and *when*, minimizing the per-iteration makespan
//! `C_max`.
//!
//! Three layers:
//!
//! * [`augment`] — converts every potentially cross-device edge into an
//!   explicit communication vertex (`O_GG`, `O_CG`, `O_GC`), the paper's
//!   "DAG augmentation" that makes link congestion schedulable;
//! * [`IlpModel`] — the 0-1 ILP itself: precedence (1)–(3), device
//!   non-overlap via big-M indicator pairs (10), the XOR-linearized
//!   communication indicators (5)–(6), the placement-gated congestion
//!   constraints (7), memory-balance constraints (8), and colocation.
//!   Solved exactly by `pesto-milp` branch and bound; this is the paper's
//!   CPLEX path and yields *optimal* plans (Theorem 3.1) for instances the
//!   B&B can close;
//! * [`HybridSolver`] — the scalable path for coarsened graphs: simulated
//!   annealing over placements with a communication-aware list-scheduling
//!   evaluator, optionally used to warm-start the B&B. This replaces the
//!   commercial-solver horsepower the paper leans on (see DESIGN.md's
//!   substitution table).
//!
//! [`PestoPlacer`] wires the layers together and picks the path by instance
//! size.
//!
//! # Example
//!
//! ```
//! use pesto_graph::{OpGraph, DeviceKind, Cluster};
//! use pesto_cost::CommModel;
//! use pesto_ilp::PestoPlacer;
//!
//! # fn main() -> Result<(), pesto_ilp::IlpError> {
//! let mut g = OpGraph::new("pair");
//! let a = g.add_op("a", DeviceKind::Gpu, 50.0, 16);
//! let b = g.add_op("b", DeviceKind::Gpu, 50.0, 16);
//! // a and b are independent: the optimal plan runs them on different GPUs.
//! let g = g.freeze().unwrap();
//! let cluster = Cluster::two_gpus();
//! let outcome = PestoPlacer::new(CommModel::default_v100()).place(&g, &cluster)?;
//! let da = outcome.plan.placement.device(a);
//! let db = outcome.plan.placement.device(b);
//! assert_ne!(da, db);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
mod bounds;
mod error;
mod formulation;
mod hybrid;
mod listsched;
mod model;
mod multi;
mod placer;
mod rng;

pub use augment::{AugNode, AugmentedGraph, CommClass};
pub use bounds::{makespan_lower_bound, path_lower_bound_us, work_lower_bound_us};
pub use error::IlpError;
pub use formulation::{IlpConfig, IlpModel, IlpOutcome, MemoryRule};
pub use hybrid::{
    CheckpointSink, HybridConfig, HybridOutcome, HybridSearchState, HybridSolver, RestartState,
};
pub use listsched::{etf_schedule, EtfTrace, Evaluator, ListScheduleResult};
pub use multi::{MultiGpuIlp, MultiGpuOutcome};
pub use placer::{PestoPlacer, PlaceOutcome, PlacerConfig, SolvePath};
pub use rng::{splitmix64, SearchRng};
