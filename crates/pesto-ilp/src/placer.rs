//! The top-level placement driver: exact ILP for small instances, hybrid
//! search for large ones, warm-starting one with the other.

use crate::error::IlpError;
use crate::formulation::{IlpConfig, IlpModel};
use crate::hybrid::{HybridConfig, HybridSearchState, HybridSolver};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, FrozenGraph, Plan};
use pesto_milp::MilpCheckpoint;
use pesto_sim::Simulator;
use std::time::{Duration, Instant};

/// Which solve path produced a plan.
///
/// The first two are the placer's own paths; the last two are the
/// degradation rungs the pipeline falls back to under a tight
/// `time_budget` (see `pesto`'s `PestoConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePath {
    /// Exact ILP (branch and bound), warm-started by a quick hybrid pass.
    Exact,
    /// Hybrid simulated annealing + list scheduling only.
    Hybrid,
    /// Constructive mSCT placement, no search (deadline/solver fallback).
    Constructive,
    /// Everything on one device (last-resort fallback).
    SingleDevice,
    /// Hierarchical sharded placement: the graph was partitioned into
    /// regions, each solved independently, and the results stitched (see
    /// the `pesto-shard` crate). Only the `pesto` pipeline produces this
    /// path; [`PestoPlacer`] itself never does.
    Sharded,
}

/// Instances with at most this many operations (and 2 GPUs) go through
/// the exact ILP; larger ones use the hybrid path.
const EXACT_MAX_OPS: usize = 12;

/// Driver configuration.
///
/// The run-wide inputs live in [`HybridConfig`]: its `deadline` bounds
/// the whole placement (an exact solve is skipped when less than ~50 ms
/// remain, and the MILP gets whatever time is left), and its `cancel`
/// token and `obs` handle also reach the MILP unless
/// [`IlpConfig::milp`] carries its own. A raised token makes
/// [`PestoPlacer::place`] return [`IlpError::Cancelled`] instead of a
/// plan.
#[derive(Debug, Clone, Default)]
pub struct PlacerConfig {
    /// Exact-ILP settings.
    pub ilp: IlpConfig,
    /// Hybrid-search settings, and the placement's deadline, cancellation
    /// token and telemetry sink.
    pub hybrid: HybridConfig,
}

/// A produced plan with its provenance and measured quality.
#[derive(Debug, Clone)]
pub struct PlaceOutcome {
    /// The placement + schedule.
    pub plan: Plan,
    /// Simulated per-step time of the plan, µs.
    pub makespan_us: f64,
    /// The ILP's model makespan `C_max`, when the exact path ran.
    pub cmax_model_us: Option<f64>,
    /// Whether B&B proved model optimality (exact path only).
    pub proven_optimal: bool,
    /// Which path produced the plan.
    pub path: SolvePath,
    /// Whether the deadline truncated or skipped part of the solve (the
    /// hybrid search returned its incumbent early, or the exact ILP was
    /// skipped/cut short).
    pub deadline_hit: bool,
    /// Terminal state of the hybrid search, resumable via
    /// [`HybridConfig::resume_from`].
    pub hybrid_state: Option<HybridSearchState>,
    /// Resumable B&B snapshot, when the exact path ran.
    pub milp_checkpoint: Option<MilpCheckpoint>,
}

/// Pesto's placement engine: profile-estimated graph in, plan out.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct PestoPlacer {
    comm: CommModel,
    config: PlacerConfig,
}

impl PestoPlacer {
    /// Creates a placer with default configuration.
    pub fn new(comm: CommModel) -> Self {
        PestoPlacer {
            comm,
            config: PlacerConfig::default(),
        }
    }

    /// Creates a placer with explicit configuration.
    pub fn with_config(comm: CommModel, config: PlacerConfig) -> Self {
        PestoPlacer { comm, config }
    }

    /// Jointly places and schedules `graph` on `cluster`.
    ///
    /// Small two-GPU instances are solved exactly (warm-started by a quick
    /// hybrid pass); everything else uses the hybrid solver. The returned
    /// makespan is always the *simulated* per-step time of the final plan —
    /// never the model objective — so outcomes are comparable across paths
    /// and against baselines.
    ///
    /// # Errors
    ///
    /// * [`IlpError::Sim`] with an OOM if no memory-feasible placement was
    ///   found;
    /// * [`IlpError::Infeasible`] / [`IlpError::NoSolution`] from the exact
    ///   path's B&B;
    /// * [`IlpError::Graph`] for malformed inputs.
    pub fn place(&self, graph: &FrozenGraph, cluster: &Cluster) -> Result<PlaceOutcome, IlpError> {
        let run = &self.config.hybrid;
        let obs = &run.obs;
        let mut span = obs.span("placer.place");
        span.set_attr("ops", graph.op_count());
        span.set_attr("gpus", cluster.gpu_count());
        let mut use_exact = cluster.gpu_count() == 2 && graph.op_count() <= EXACT_MAX_OPS;
        let remaining = |d: Instant| {
            d.checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO)
        };
        let mut deadline_hit = false;

        // Hybrid always runs: it is the fallback and the warm start. The
        // exact path only needs a quick warm start, so it swaps in the
        // quick search effort and keeps everything else.
        let hybrid_cfg = if use_exact {
            let quick = HybridConfig::quick();
            HybridConfig {
                iterations: quick.iterations,
                restarts: quick.restarts,
                ..run.clone()
            }
        } else {
            run.clone()
        };
        let hybrid = HybridSolver::new(hybrid_cfg).solve(graph, cluster, &self.comm)?;
        deadline_hit |= hybrid.deadline_hit;

        let hybrid_state = hybrid.search_state;
        let mut milp_checkpoint = None;
        let mut best_plan = hybrid.plan;
        let mut best_makespan = hybrid.makespan_us;
        let mut cmax_model = None;
        let mut proven = false;
        let mut path = SolvePath::Hybrid;

        // Under ~50 ms of remaining budget an exact solve cannot do useful
        // work; keep the hybrid incumbent instead.
        const MIN_EXACT_BUDGET: Duration = Duration::from_millis(50);
        if use_exact {
            if let Some(d) = run.deadline {
                if remaining(d) < MIN_EXACT_BUDGET {
                    use_exact = false;
                    deadline_hit = true;
                }
            }
        }

        if use_exact {
            let model = {
                let _formulate = obs.span("ilp.formulate");
                IlpModel::build(graph, cluster, &self.comm, &self.config.ilp)?
            };
            // An explicitly configured warm start (e.g. a resumed job's
            // MILP checkpoint) wins; otherwise derive one from the hybrid
            // incumbent.
            let mut milp_cfg = self.config.ilp.milp.clone();
            if milp_cfg.warm_start.is_none() {
                milp_cfg.warm_start = model.warm_start_from(&best_plan, &self.comm);
            }
            if !milp_cfg.obs.is_enabled() {
                milp_cfg.obs = obs.clone();
            }
            if milp_cfg.cancel.is_none() {
                milp_cfg.cancel = run.cancel.clone();
            }
            if let Some(d) = run.deadline {
                milp_cfg.time_limit = milp_cfg.time_limit.min(remaining(d));
            }
            // On infeasibility (e.g. the balance rule admits no split) or
            // solver limits, keep the hybrid plan; the final memory verdict
            // below reports the honest failure cause if any. Cancellation
            // is different: the caller abandoned the job, so the hybrid
            // incumbent is not returned either.
            match model.solve(&milp_cfg) {
                Ok(outcome) => {
                    let sim = Simulator::new(graph, cluster, self.comm).with_memory_check(false);
                    let simulated = sim.run(&outcome.plan)?.makespan_us;
                    cmax_model = Some(outcome.cmax_us);
                    milp_checkpoint = Some(outcome.milp_checkpoint.clone());
                    proven = outcome.proven_optimal;
                    deadline_hit |= !outcome.proven_optimal
                        && run.deadline.is_some_and(|d| remaining(d).is_zero());
                    // Keep whichever plan actually simulates faster (the
                    // model's free transfer ordering can differ from FCFS).
                    if simulated <= best_makespan {
                        best_plan = outcome.plan;
                        best_makespan = simulated;
                    }
                    path = SolvePath::Exact;
                }
                Err(IlpError::Cancelled) => return Err(IlpError::Cancelled),
                Err(_) => {}
            }
        }

        // Final memory verdict: a plan that OOMs is not a plan.
        let oom = best_plan.placement.oom_devices(graph, cluster);
        if !oom.is_empty() {
            return Err(IlpError::Sim(pesto_sim::SimError::OutOfMemory(oom)));
        }

        span.set_attr("path", format!("{path:?}"));
        Ok(PlaceOutcome {
            plan: best_plan,
            makespan_us: best_makespan,
            cmax_model_us: cmax_model,
            proven_optimal: proven,
            path,
            deadline_hit,
            hybrid_state,
            milp_checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph};

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    #[test]
    fn small_instance_takes_exact_path() {
        let mut g = OpGraph::new("small");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        let _ = (a, b);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let out = PestoPlacer::new(comm()).place(&g, &cluster).unwrap();
        assert_eq!(out.path, SolvePath::Exact);
        assert!(out.proven_optimal);
        assert!((out.makespan_us - 100.0).abs() < 1e-6);
    }

    #[test]
    fn large_instance_takes_hybrid_path() {
        let mut g = OpGraph::new("large");
        for i in 0..40 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 10.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let cfg = PlacerConfig {
            hybrid: crate::HybridConfig::quick(),
            ..PlacerConfig::default()
        };
        let out = PestoPlacer::with_config(comm(), cfg)
            .place(&g, &cluster)
            .unwrap();
        assert_eq!(out.path, SolvePath::Hybrid);
        assert!(out.cmax_model_us.is_none());
        assert!(out.makespan_us <= 260.0, "got {}", out.makespan_us);
    }

    #[test]
    fn expired_deadline_skips_exact_and_reports_truncation() {
        let mut g = OpGraph::new("small");
        g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let cfg = PlacerConfig {
            hybrid: HybridConfig {
                deadline: Some(Instant::now()),
                ..HybridConfig::default()
            },
            ..PlacerConfig::default()
        };
        let out = PestoPlacer::with_config(comm(), cfg)
            .place(&g, &cluster)
            .unwrap();
        assert_eq!(out.path, SolvePath::Hybrid, "exact must be skipped");
        assert!(out.deadline_hit);
        out.plan.validate(&g, &cluster).unwrap();
    }

    #[test]
    fn oom_everywhere_is_an_error() {
        let mut g = OpGraph::new("fat");
        g.add_op("a", DeviceKind::Gpu, 1.0, 2000);
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(2, 1000);
        let err = PestoPlacer::new(comm()).place(&g, &cluster).unwrap_err();
        assert!(matches!(
            err,
            IlpError::Sim(pesto_sim::SimError::OutOfMemory(_))
        ));
    }

    #[test]
    fn four_gpu_cluster_uses_hybrid() {
        let mut g = OpGraph::new("w4");
        for i in 0..4 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 50.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let cfg = PlacerConfig {
            hybrid: crate::HybridConfig::quick(),
            ..PlacerConfig::default()
        };
        let out = PestoPlacer::with_config(comm(), cfg)
            .place(&g, &cluster)
            .unwrap();
        assert_eq!(out.path, SolvePath::Hybrid);
        assert!(out.makespan_us <= 150.0, "got {}", out.makespan_us);
    }
}
