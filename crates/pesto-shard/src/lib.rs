//! Hierarchical sharded placement: partition → per-region solve → stitch.
//!
//! The real TensorFlow graphs behind the Pesto paper have 19k+ ops; a
//! monolithic coarsen-and-solve pipeline handles instances orders of
//! magnitude smaller. This crate makes paper-scale placement tractable by
//! decomposing it, the way Tesserae scales placement policies (PAPERS.md):
//!
//! 1. **Partition** ([`partition`](mod@partition) module): coarsener
//!    colocation groups become *atoms*, packed in topological order into
//!    regions of at most [`ShardConfig::region_cap`] ops, each ranked by
//!    how much of the global critical path it contains.
//! 2. **Solve** ([`solve`] module): each region's induced subgraph is
//!    coarsened and placed independently by the existing hybrid solver,
//!    fanned out over a scoped worker pool. Under a `time_budget`, each
//!    region's wall-clock share is proportional to its critical-path rank
//!    (Mayer et al., PAPERS.md).
//! 3. **Stitch** ([`stitch`] module): region placements are pinned into a
//!    global placement, a deterministic rebalance restores memory
//!    feasibility, and a bounded boundary-refinement pass re-places the
//!    endpoints of cross-region edges against a congestion-aware
//!    surrogate (max device load + max link load) to fix seams.
//!
//! # Determinism
//!
//! For a fixed seed, budget-free sharded placement is bit-stable at *any*
//! thread count: the partition depends only on the graph and the cap,
//! region `r` solves with seed `seed + r` into a slot indexed by `r`, and
//! the stitch visits ops in a fixed order. Wall-clock deadlines (from
//! `time_budget`) are the only nondeterminism source, exactly as in the
//! monolithic pipeline.
//!
//! # Example
//!
//! ```
//! use pesto_graph::{OpGraph, DeviceKind, Cluster};
//! use pesto_cost::CommModel;
//! use pesto_shard::{Sharder, ShardConfig, ShardRun};
//!
//! # fn main() -> Result<(), pesto_shard::ShardError> {
//! let mut g = OpGraph::new("chain");
//! let mut prev = None;
//! for i in 0..30 {
//!     let v = g.add_op(format!("op{i}"), DeviceKind::Gpu, 10.0, 64);
//!     if let Some(p) = prev { g.add_edge(p, v, 1024).unwrap(); }
//!     prev = Some(v);
//! }
//! let g = g.freeze().unwrap();
//! let cluster = Cluster::two_gpus();
//! let config = ShardConfig { region_cap: 10, region_iterations: 50, ..ShardConfig::default() };
//! let out = Sharder::new(CommModel::default_v100(), config)
//!     .place(&g, &cluster, &ShardRun::default())?;
//! assert_eq!(out.placement.op_count(), 30);
//! assert!(out.report.regions.len() > 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod solve;
pub mod stitch;

use pesto_cost::CommModel;
use pesto_graph::{Cluster, FrozenGraph, GraphError, Placement};
use pesto_obs::{CancelToken, Obs};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

pub use partition::{partition, PartitionResult, Region};
pub use solve::RegionSolution;
pub use stitch::StitchOutcome;

/// Sharding knobs, carried by `pesto`'s `PestoConfig::shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Maximum fine ops per region. Graphs at or under the cap solve as a
    /// single region (monolithic).
    pub region_cap: usize,
    /// Coarsening target for each region's subgraph before its sub-solve.
    pub region_coarsen_target: usize,
    /// Annealing iterations per region sub-solve.
    pub region_iterations: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            region_cap: 1200,
            region_coarsen_target: 160,
            region_iterations: 2500,
        }
    }
}

/// Per-invocation inputs that are not sharding *policy*: seed, worker
/// threads, wall-clock budget, cancellation, telemetry.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Base RNG seed; region `r` solves with `seed + r`.
    pub seed: u64,
    /// Worker threads for the region fan-out (results are identical at
    /// any value; this only changes wall-clock).
    pub threads: usize,
    /// Wall-clock budget for the whole shard (partition + solve +
    /// stitch). Roughly 75% goes to region solves (split by critical-path
    /// rank), the rest to stitching. `None` runs to completion and keeps
    /// the result deterministic.
    pub time_budget: Option<Duration>,
    /// Cooperative cancellation, polled between regions and propagated
    /// into region sub-solvers.
    pub cancel: Option<CancelToken>,
    /// Telemetry sink; emits `shard.partition`, `shard.region-solve`
    /// (one per region), and `shard.stitch` spans.
    pub obs: Obs,
}

impl Default for ShardRun {
    fn default() -> Self {
        ShardRun {
            seed: 0x9e37,
            threads: 1,
            time_budget: None,
            cancel: None,
            obs: Obs::disabled(),
        }
    }
}

/// Fraction of the time budget reserved for the region solves; the
/// remainder covers partitioning and stitching.
const SOLVE_BUDGET_FRAC: f64 = 0.75;

/// Errors from sharded placement.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// Subgraph extraction or plan validation failed.
    Graph(GraphError),
    /// A region sub-solver failed in a non-degradable way.
    Solve(pesto_ilp::IlpError),
    /// The stitched model cannot be made memory-feasible on this cluster.
    Infeasible(String),
    /// The caller's cancellation token was raised.
    Cancelled,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Graph(e) => write!(f, "shard graph error: {e}"),
            ShardError::Solve(e) => write!(f, "shard region solve failed: {e}"),
            ShardError::Infeasible(msg) => write!(f, "stitched plan infeasible: {msg}"),
            ShardError::Cancelled => write!(f, "sharded placement cancelled"),
        }
    }
}

impl Error for ShardError {}

impl From<GraphError> for ShardError {
    fn from(e: GraphError) -> Self {
        ShardError::Graph(e)
    }
}

impl From<pesto_ilp::IlpError> for ShardError {
    fn from(e: pesto_ilp::IlpError) -> Self {
        match e {
            pesto_ilp::IlpError::Cancelled => ShardError::Cancelled,
            other => ShardError::Solve(other),
        }
    }
}

/// Per-region entry of the [`ShardReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionReport {
    /// Region index, in coarse topological order.
    pub index: usize,
    /// Fine ops in the region.
    pub ops: usize,
    /// Cross-region edges incident to the region.
    pub boundary_edges: usize,
    /// Critical-path weight used for budget ranking, µs.
    pub cp_weight_us: f64,
    /// Solve path of the region's sub-solve (`"Hybrid"`, `"Exact"`,
    /// `"Constructive"` when the sub-solver degraded, ...).
    pub path: String,
    /// Whether the region's deadline truncated its search.
    pub deadline_hit: bool,
}

/// What the shard did — partition shape, cut statistics, per-region solve
/// provenance, stitch repair counts, and phase wall-clocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Region size cap in force.
    pub region_cap: usize,
    /// Per-region details, indexed by region.
    pub regions: Vec<RegionReport>,
    /// Edges crossing region boundaries.
    pub cut_edges: usize,
    /// Tensor bytes on cut edges.
    pub cut_bytes: u64,
    /// Ops the memory rebalance moved.
    pub rebalance_moves: usize,
    /// Seam ops visited by boundary refinement.
    pub boundary_ops: usize,
    /// Accepted boundary-refinement moves.
    pub refine_moves: usize,
    /// Whether any phase was truncated by the time budget.
    pub deadline_hit: bool,
    /// Partition wall-clock, milliseconds (report-only; not part of the
    /// deterministic result).
    pub partition_ms: f64,
    /// Region-solve wall-clock, milliseconds.
    pub solve_ms: f64,
    /// Stitch wall-clock, milliseconds.
    pub stitch_ms: f64,
}

/// Result of a sharded placement: a total, memory-feasible placement plus
/// the report.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The stitched placement (placement-only; scheduling is the
    /// caller's ETF/simulation concern, as in the monolithic pipeline).
    pub placement: Placement,
    /// What happened, per phase and per region.
    pub report: ShardReport,
}

/// The sharded placement engine.
#[derive(Debug, Clone)]
pub struct Sharder {
    comm: CommModel,
    config: ShardConfig,
}

impl Sharder {
    /// Creates a sharder with the given communication model and config.
    pub fn new(comm: CommModel, config: ShardConfig) -> Self {
        Sharder { comm, config }
    }

    /// Places `graph` on `cluster` by partition → solve → stitch.
    ///
    /// # Errors
    ///
    /// [`ShardError::Infeasible`] when the model cannot fit in cluster
    /// memory, [`ShardError::Cancelled`] on cancellation, and
    /// [`ShardError::Graph`]/[`ShardError::Solve`] for structural
    /// failures.
    pub fn place(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
        run: &ShardRun,
    ) -> Result<ShardOutcome, ShardError> {
        let start = Instant::now();
        let obs = &run.obs;
        let global_deadline = run.time_budget.map(|b| start + b);
        let check_cancel = || -> Result<(), ShardError> {
            if run.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                Err(ShardError::Cancelled)
            } else {
                Ok(())
            }
        };

        check_cancel()?;
        let part = {
            let mut span = obs.span("shard.partition");
            span.set_attr("ops", graph.op_count());
            span.set_attr("region_cap", self.config.region_cap);
            let part = partition(graph, self.config.region_cap);
            span.set_attr("regions", part.regions.len());
            span.set_attr("cut_edges", part.cut_edges);
            part
        };
        let partition_ms = start.elapsed().as_secs_f64() * 1e3;
        obs.gauge_set("shard.regions", part.regions.len() as f64);
        obs.gauge_set("shard.cut_edges", part.cut_edges as f64);

        check_cancel()?;
        let solve_start = Instant::now();
        let solve_budget = run
            .time_budget
            .map(|b| b.saturating_sub(start.elapsed()).mul_f64(SOLVE_BUDGET_FRAC));
        let solutions = solve::solve_regions(
            graph,
            cluster,
            &self.comm,
            &part.regions,
            &self.config,
            run.seed,
            run.threads,
            solve_budget,
            global_deadline,
            run.cancel.clone(),
            obs,
        )?;
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;

        check_cancel()?;
        let stitch_start = Instant::now();
        let stitched = stitch::stitch(
            graph,
            cluster,
            &self.comm,
            &part,
            &solutions,
            global_deadline,
            obs,
        )?;
        let stitch_ms = stitch_start.elapsed().as_secs_f64() * 1e3;

        let deadline_hit = stitched.deadline_hit || solutions.iter().any(|s| s.deadline_hit);
        let regions = part
            .regions
            .iter()
            .zip(&solutions)
            .map(|(r, s)| RegionReport {
                index: r.index,
                ops: r.members.len(),
                boundary_edges: s.boundary_edges,
                cp_weight_us: r.cp_weight_us,
                path: format!("{:?}", s.path),
                deadline_hit: s.deadline_hit,
            })
            .collect();
        Ok(ShardOutcome {
            placement: stitched.placement,
            report: ShardReport {
                region_cap: self.config.region_cap,
                regions,
                cut_edges: part.cut_edges,
                cut_bytes: part.cut_bytes,
                rebalance_moves: stitched.rebalance_moves,
                boundary_ops: stitched.boundary_ops,
                refine_moves: stitched.refine_moves,
                deadline_hit,
                partition_ms,
                solve_ms,
                stitch_ms,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph};

    fn mesh(n: usize) -> FrozenGraph {
        let mut g = OpGraph::new("mesh");
        let mut prev: Option<pesto_graph::OpId> = None;
        for i in 0..n {
            let a = g.add_op(format!("a{i}"), DeviceKind::Gpu, 10.0 + (i % 7) as f64, 128);
            let b = g.add_op(format!("b{i}"), DeviceKind::Gpu, 12.0 + (i % 5) as f64, 128);
            if let Some(p) = prev {
                g.add_edge(p, a, 4096).unwrap();
                g.add_edge(p, b, 2048).unwrap();
            }
            let j = g.add_op(format!("j{i}"), DeviceKind::Gpu, 6.0, 64);
            g.add_edge(a, j, 4096).unwrap();
            g.add_edge(b, j, 4096).unwrap();
            prev = Some(j);
        }
        g.freeze().unwrap()
    }

    fn quick_config() -> ShardConfig {
        ShardConfig {
            region_cap: 30,
            region_iterations: 60,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn end_to_end_places_every_op_memory_feasibly() {
        let g = mesh(40);
        let cluster = Cluster::two_gpus();
        let out = Sharder::new(CommModel::default_v100(), quick_config())
            .place(&g, &cluster, &ShardRun::default())
            .unwrap();
        assert_eq!(out.placement.op_count(), g.op_count());
        assert!(out.placement.oom_devices(&g, &cluster).is_empty());
        assert!(out.report.regions.len() > 1);
        assert_eq!(
            out.report.regions.iter().map(|r| r.ops).sum::<usize>(),
            g.op_count()
        );
    }

    #[test]
    fn deterministic_across_seeds_and_threads() {
        let g = mesh(40);
        let cluster = Cluster::two_gpus();
        let sharder = Sharder::new(CommModel::default_v100(), quick_config());
        let place = |threads| {
            sharder
                .place(
                    &g,
                    &cluster,
                    &ShardRun {
                        threads,
                        ..ShardRun::default()
                    },
                )
                .unwrap()
        };
        let a = place(1);
        let b = place(1);
        let c = place(3);
        assert_eq!(a.placement, b.placement, "same seed+threads must repeat");
        assert_eq!(a.placement, c.placement, "thread count must not matter");
        assert_eq!(a.report.cut_edges, c.report.cut_edges);
    }

    #[test]
    fn cancellation_aborts_with_typed_error() {
        let g = mesh(40);
        let cluster = Cluster::two_gpus();
        let token = CancelToken::new();
        token.cancel();
        let err = Sharder::new(CommModel::default_v100(), quick_config())
            .place(
                &g,
                &cluster,
                &ShardRun {
                    cancel: Some(token),
                    ..ShardRun::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, ShardError::Cancelled));
    }

    #[test]
    fn obs_spans_cover_all_three_phases() {
        let g = mesh(40);
        let cluster = Cluster::two_gpus();
        let obs = Obs::enabled();
        Sharder::new(CommModel::default_v100(), quick_config())
            .place(
                &g,
                &cluster,
                &ShardRun {
                    obs: obs.clone(),
                    ..ShardRun::default()
                },
            )
            .unwrap();
        let spans = obs.spans();
        let has = |name: &str| spans.iter().any(|s| s.name == name);
        assert!(has("shard.partition"));
        assert!(has("shard.region-solve"));
        assert!(has("shard.stitch"));
    }

    #[test]
    fn report_serializes_to_json() {
        let g = mesh(20);
        let cluster = Cluster::two_gpus();
        let out = Sharder::new(CommModel::default_v100(), quick_config())
            .place(&g, &cluster, &ShardRun::default())
            .unwrap();
        let json = serde_json::to_string(&out.report).unwrap();
        assert!(json.contains("\"region_cap\""));
        let back: ShardReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.regions.len(), out.report.regions.len());
    }
}
