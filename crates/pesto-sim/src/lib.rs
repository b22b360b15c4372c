//! Discrete-event simulator for model-parallel DNN training steps.
//!
//! This is the execution substrate of the reproduction. The paper validates
//! an equivalent simulator against its TensorFlow implementation at 0.1% to
//! 11.3% error (§5.4) and uses it for the Figure 5 congestion case study and
//! the Figure 8 hardware sweeps; here it additionally stands in for the
//! TensorFlow runtime itself when measuring per-step training times
//! (Figure 7).
//!
//! The model follows §3.2.1 exactly:
//!
//! * **Devices** are non-preemptive: one operation at a time.
//! * **Links** are directed, non-preemptive, FCFS queues: one transfer at a
//!   time per link, so simultaneous transfers on the same link queue behind
//!   each other (this is the congestion the Pesto ILP's constraints model).
//! * An operation starts once all predecessor *data* has arrived on its
//!   device — same-device data at the predecessor's completion, cross-device
//!   data at the completion of the corresponding transfer.
//! * A finished op enqueues one transfer per cross-device out-edge
//!   immediately on completion ("operations are aware of all placement
//!   decisions", §2.2).
//!
//! Scheduling policy per device is taken from the [`Plan`][pesto_graph::Plan]: an explicit
//! per-device order (Pesto's control dependencies, §4) or, when absent,
//! TensorFlow's default of dispatching a uniformly random ready op (§2.1).
//!
//! Beyond the paper's clean-conditions model, [`Simulator::with_faults`]
//! injects a deterministic [`FaultPlan`] — straggler devices, per-op compute
//! jitter, degraded links, transient stall windows, and device outages — so
//! robustness sweeps can ask "how fragile is this schedule?" (see the
//! [`faults`](FaultPlan) module types).
//!
//! # Multi-step pipelined simulation
//!
//! [`Simulator::with_steps`] simulates K consecutive training steps as a
//! pipeline: every op is instantiated once per step, an op's step-`s+1`
//! instance waits on its step-`s` instance, and weight-update ops act as
//! per-step barriers for the ops that read the updated weights
//! ([`pesto_graph::FrozenGraph::step_barrier_targets`]). Devices stay
//! non-preemptive and links FCFS across step boundaries, so step `s+1`'s
//! forward pass overlaps step `s`'s backward pass wherever the placement
//! allows — the overlap GPipe/PipeDream exploit. Memory is accounted as
//! double-buffered across the in-flight steps. The resulting
//! [`SimReport::pipeline`] ([`PipelineStats`]) breaks the run into fill /
//! steady-state / drain phases; [`SimReport::steady_state_step_us`] is the
//! sustained per-step time, the metric placements should be ranked by when
//! training for many steps. `with_steps(1)` is exactly the single-step
//! simulator.
//!
//! # Scoring many plans
//!
//! [`Simulator::makespan`] returns the makespan [`Simulator::run`] reports
//! for a placement and an explicit per-device order, or the error `run`
//! returns, without building a [`Plan`][pesto_graph::Plan] or a
//! [`SimReport`]. It runs a single-step event loop of its own in buffers
//! the caller keeps ([`MakespanScratch`]) and tracks only what decides
//! event times; a simulator with faults, more than one step, the memory
//! check or telemetry calls `run` instead. Placement searches score every
//! candidate with it (`pesto_ilp::Evaluator`). `run` stays the only path
//! that builds reports, injects faults, pipelines steps or runs the
//! random-ready policy, and the reference the loop is tested against
//! (`tests/engine_reference.rs`).
//!
//! # Example
//!
//! ```
//! use pesto_graph::{OpGraph, DeviceKind, Cluster, Placement, Plan};
//! use pesto_cost::CommModel;
//! use pesto_sim::Simulator;
//!
//! # fn main() -> Result<(), pesto_sim::SimError> {
//! let mut g = OpGraph::new("pair");
//! let a = g.add_op("a", DeviceKind::Gpu, 10.0, 16);
//! let b = g.add_op("b", DeviceKind::Gpu, 10.0, 16);
//! g.add_edge(a, b, 1024).map_err(pesto_sim::SimError::from)?;
//! let g = g.freeze().map_err(pesto_sim::SimError::from)?;
//! let cluster = Cluster::two_gpus();
//! let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
//! let report = Simulator::new(&g, &cluster, CommModel::default_v100()).run(&plan)?;
//! assert!((report.makespan_us - 20.0).abs() < 1e-9); // same device: no transfer
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod faults;
mod report;
mod routes;

pub use engine::{MakespanScratch, Simulator};
pub use error::SimError;
pub use faults::{FaultAttribution, FaultPlan, LinkStall, PerturbationSpec};
pub use report::{MemoryProfile, OpSpan, PipelineStats, SimReport, TransferSpan};
pub use routes::{Route, Routes};
