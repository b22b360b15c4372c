//! Phase 2: solve each region as an independent sub-problem.
//!
//! Every region's induced subgraph is extracted
//! ([`FrozenGraph::subgraph`]), coarsened to a solver-sized instance, and
//! placed by the existing hybrid solver seeded with the region's mSCT
//! plan. Regions fan out over a scoped worker pool (`threads` workers
//! pulling from an atomic queue, largest critical-path weight first), but
//! every region's result lands in a slot indexed by its stable region
//! index, and its RNG seed is `run.seed + region.index` — so the
//! assembled result is identical at any thread count.
//!
//! When a global `time_budget` is set, each region receives a wall-clock
//! share proportional to its critical-path weight (with an even-split
//! floor so slack regions still get *some* budget), clamped to the global
//! deadline. Deadlines are inherently wall-clock, so determinism is only
//! guaranteed for budget-free runs.

use crate::partition::Region;
use crate::{ShardConfig, ShardError};
use pesto_baselines::m_sct;
use pesto_coarsen::{coarsen, CoarsenConfig};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, FrozenGraph, OpId};
use pesto_ilp::{HybridConfig, PestoPlacer, PlacerConfig, SolvePath};
use pesto_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A solved region: the placement of its member ops, in parent ids.
#[derive(Debug, Clone)]
pub struct RegionSolution {
    /// Region index (matches [`Region::index`]).
    pub index: usize,
    /// `(parent op, device)` assignments for every member.
    pub assignments: Vec<(OpId, DeviceId)>,
    /// Which solve path produced the region's placement.
    pub path: SolvePath,
    /// Whether the region's deadline truncated its search.
    pub deadline_hit: bool,
    /// Boundary edges severed by this region's extraction.
    pub boundary_edges: usize,
}

/// Independent annealing restarts per region sub-solve.
const REGION_RESTARTS: usize = 1;

/// Even-split floor: every region gets at least this fraction of its
/// even share of the solve budget, regardless of critical-path weight.
const EVEN_SHARE_FLOOR: f64 = 0.3;

/// Computes each region's share of `budget`, proportional to
/// critical-path weight with an even-split floor.
pub(crate) fn budget_shares(regions: &[Region], budget: Duration) -> Vec<Duration> {
    let total_w: f64 = regions.iter().map(|r| r.cp_weight_us).sum();
    let n = regions.len().max(1) as f64;
    regions
        .iter()
        .map(|r| {
            let prop = if total_w > 0.0 {
                r.cp_weight_us / total_w
            } else {
                1.0 / n
            };
            let frac = EVEN_SHARE_FLOOR / n + (1.0 - EVEN_SHARE_FLOOR) * prop;
            budget.mul_f64(frac)
        })
        .collect()
}

/// Solves all regions, fanned out over `run_threads` workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_regions(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    regions: &[Region],
    config: &ShardConfig,
    seed: u64,
    run_threads: usize,
    solve_budget: Option<Duration>,
    global_deadline: Option<Instant>,
    cancel: Option<pesto_obs::CancelToken>,
    obs: &Obs,
) -> Result<Vec<RegionSolution>, ShardError> {
    let shares = solve_budget.map(|b| budget_shares(regions, b));

    // Work queue: region positions sorted by descending critical-path
    // weight (ties by index), so heavyweight regions start first and the
    // pool tail is short.
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&a, &b| {
        regions[b]
            .cp_weight_us
            .total_cmp(&regions[a].cp_weight_us)
            .then(a.cmp(&b))
    });

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<RegionSolution>>> = Mutex::new(vec![None; regions.len()]);
    let failure: Mutex<Option<ShardError>> = Mutex::new(None);
    let workers = run_threads.clamp(1, regions.len().max(1));

    let worker_index = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Name this worker's lane so every region-solve span in the
                // merged chrome-trace lands under a stable thread label.
                let w = worker_index.fetch_add(1, Ordering::Relaxed);
                if obs.is_enabled() {
                    obs.name_lane(format!("shard-worker-{w}"));
                }
                loop {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= order.len() {
                        return;
                    }
                    if failure.lock().expect("failure lock").is_some() {
                        return;
                    }
                    if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        *failure.lock().expect("failure lock") = Some(ShardError::Cancelled);
                        return;
                    }
                    let region = &regions[order[pos]];
                    let deadline = match (&shares, global_deadline) {
                        (Some(shares), _) => {
                            let d = Instant::now() + shares[region.index];
                            Some(global_deadline.map_or(d, |g| d.min(g)))
                        }
                        (None, g) => g,
                    };
                    match solve_one(
                        graph, cluster, comm, region, config, seed, deadline, &cancel, obs,
                    ) {
                        Ok(sol) => {
                            slots.lock().expect("slots lock")[region.index] = Some(sol);
                        }
                        Err(e) => {
                            let mut f = failure.lock().expect("failure lock");
                            if f.is_none() {
                                *f = Some(e);
                            }
                            return;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(e);
    }
    let slots = slots.into_inner().expect("slots lock");
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every region solved or failure reported"))
        .collect())
}

/// Solves one region: extract → coarsen → hybrid (mSCT-seeded) → expand.
///
/// Solver failures other than cancellation degrade to the region's mSCT
/// placement instead of failing the whole shard — the stitch phase's
/// memory rebalance and boundary refinement still get a full placement
/// to work with, and the degradation is visible as
/// [`SolvePath::Constructive`] in the region report.
#[allow(clippy::too_many_arguments)]
fn solve_one(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    region: &Region,
    config: &ShardConfig,
    seed: u64,
    deadline: Option<Instant>,
    cancel: &Option<pesto_obs::CancelToken>,
    obs: &Obs,
) -> Result<RegionSolution, ShardError> {
    let mut span = obs.span("shard.region-solve");
    span.set_attr("region", region.index);
    span.set_attr("ops", region.members.len());

    let extract = graph.subgraph(&region.members)?;
    let sub = &extract.graph;
    span.set_attr("boundary_edges", extract.boundary_edge_count());

    let coarsening = coarsen(sub, &CoarsenConfig::to_target(config.region_coarsen_target));
    let coarse = coarsening.coarse();

    let msct_coarse = m_sct(coarse, cluster, comm);
    let placer_cfg = PlacerConfig {
        hybrid: HybridConfig {
            iterations: config.region_iterations,
            restarts: REGION_RESTARTS,
            seed: seed.wrapping_add(region.index as u64),
            initial_placements: vec![msct_coarse.placement.clone()],
            deadline,
            cancel: cancel.clone(),
            obs: obs.clone(),
            ..HybridConfig::default()
        },
        ..PlacerConfig::default()
    };
    let placer = PestoPlacer::with_config(*comm, placer_cfg);
    let (coarse_placement, path, deadline_hit) = match placer.place(coarse, cluster) {
        Ok(out) => (out.plan.placement, out.path, out.deadline_hit),
        Err(pesto_ilp::IlpError::Cancelled) => return Err(ShardError::Cancelled),
        // Degrade to mSCT; stitch repairs any memory overload globally.
        Err(_) => (msct_coarse.placement, SolvePath::Constructive, false),
    };

    let sub_placement = coarsening.expand_placement(&coarse_placement);
    let assignments = sub
        .op_ids()
        .map(|s| (extract.mapping.to_parent(s), sub_placement.device(s)))
        .collect();
    span.set_attr("path", format!("{path:?}"));
    Ok(RegionSolution {
        index: region.index,
        assignments,
        path,
        deadline_hit,
        boundary_edges: extract.boundary_edge_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use pesto_graph::{DeviceKind, OpGraph};

    fn layered(n: usize) -> FrozenGraph {
        let mut g = OpGraph::new("layered");
        let mut prev: Option<OpId> = None;
        for i in 0..n {
            let a = g.add_op(format!("a{i}"), DeviceKind::Gpu, 10.0, 32);
            let b = g.add_op(format!("b{i}"), DeviceKind::Gpu, 12.0, 32);
            if let Some(p) = prev {
                g.add_edge(p, a, 64).unwrap();
                g.add_edge(p, b, 64).unwrap();
            }
            let j = g.add_op(format!("j{i}"), DeviceKind::Gpu, 8.0, 32);
            g.add_edge(a, j, 64).unwrap();
            g.add_edge(b, j, 64).unwrap();
            prev = Some(j);
        }
        g.freeze().unwrap()
    }

    #[test]
    fn budget_shares_favor_critical_regions_with_floor() {
        let g = layered(20);
        let p = partition(&g, 12);
        assert!(p.regions.len() >= 2);
        let shares = budget_shares(&p.regions, Duration::from_secs(10));
        let total: Duration = shares.iter().sum();
        assert!(total <= Duration::from_secs(10) + Duration::from_millis(1));
        // Everyone gets at least the floor of the even share.
        let floor = Duration::from_secs(10).mul_f64(EVEN_SHARE_FLOOR / p.regions.len() as f64);
        for s in &shares {
            assert!(*s >= floor, "{s:?} < floor {floor:?}");
        }
    }

    #[test]
    fn all_regions_solved_into_stable_slots() {
        let g = layered(30);
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let p = partition(&g, 25);
        let cfg = ShardConfig {
            region_iterations: 60,
            ..ShardConfig::default()
        };
        let sols = solve_regions(
            &g,
            &cluster,
            &comm,
            &p.regions,
            &cfg,
            7,
            2,
            None,
            None,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(sols.len(), p.regions.len());
        for (i, s) in sols.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.assignments.len(), p.regions[i].members.len());
        }
    }

    #[test]
    fn solutions_identical_across_thread_counts() {
        let g = layered(30);
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let p = partition(&g, 25);
        let cfg = ShardConfig {
            region_iterations: 60,
            ..ShardConfig::default()
        };
        let solve = |threads| {
            solve_regions(
                &g,
                &cluster,
                &comm,
                &p.regions,
                &cfg,
                7,
                threads,
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap()
        };
        let one = solve(1);
        let four = solve(4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.path, b.path);
        }
    }
}
