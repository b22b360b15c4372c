//! Phase 3: stitch region placements into one global, feasible plan.
//!
//! Region solves are independent, so the stitched placement can be
//! globally wrong in two ways:
//!
//! 1. **Memory**: every region assumed the whole GPU memory was its own,
//!    so the union can overload a device. A deterministic rebalance moves
//!    the largest-footprint ops off overloaded GPUs (preferring ops with
//!    the most slack) until every device fits, or fails with
//!    [`ShardError::Infeasible`] if the model cannot fit at all.
//! 2. **Seams**: cross-region edges were invisible to both endpoint
//!    solvers, so the cut can induce needless transfers and link
//!    congestion. A bounded first-improvement local search over the
//!    *boundary ops* (endpoints of cross-region edges) re-places them
//!    one at a time against a congestion-aware surrogate objective:
//!    `max` per-device compute load + `max` per-link transfer load.
//!    This is the same bounded local-search shape as the outage-repair
//!    pass in `pesto::robust`, but scored by the surrogate instead of a
//!    full ETF simulation so it stays cheap at paper scale.
//!
//! Both passes are deterministic: ops are visited in a fixed order
//! (descending cross-boundary bytes, then index) and moves are chosen by
//! first improvement over devices in index order. The optional deadline
//! only truncates the pass early — budget-free runs are bit-stable.

use crate::partition::PartitionResult;
use crate::solve::RegionSolution;
use crate::ShardError;
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, DeviceKind, FrozenGraph, OpId, Placement};
use pesto_obs::Obs;
use std::time::Instant;

/// First-improvement sweeps of the boundary refinement over the seam ops.
const BOUNDARY_PASSES: usize = 2;

/// The stitched global placement plus refinement statistics.
#[derive(Debug, Clone)]
pub struct StitchOutcome {
    /// The final, memory-feasible global placement.
    pub placement: Placement,
    /// Ops moved by the memory rebalance.
    pub rebalance_moves: usize,
    /// Ops considered by the boundary refinement (cross-region endpoints).
    pub boundary_ops: usize,
    /// Accepted boundary-refinement moves.
    pub refine_moves: usize,
    /// Whether the deadline truncated the refinement pass.
    pub deadline_hit: bool,
}

/// Congestion-aware surrogate state: per-device compute load and
/// per-directed-device-pair transfer load, updated incrementally as ops
/// move. The score is `max(load) + max(link)` — the two quantities a bad
/// seam inflates.
struct Surrogate<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    comm: &'a CommModel,
    placement: Placement,
    load: Vec<f64>,
    /// `link[src * devices + dst]`, µs of transfer booked on that pair.
    link: Vec<f64>,
    /// Per-device resident bytes, for memory-aware moves.
    used_bytes: Vec<u64>,
}

impl<'a> Surrogate<'a> {
    fn new(
        graph: &'a FrozenGraph,
        cluster: &'a Cluster,
        comm: &'a CommModel,
        placement: Placement,
    ) -> Self {
        let d = cluster.device_count();
        let mut s = Surrogate {
            graph,
            cluster,
            comm,
            placement,
            load: vec![0.0; d],
            link: vec![0.0; d * d],
            used_bytes: vec![0; d],
        };
        for v in graph.op_ids() {
            let dev = s.placement.device(v);
            s.load[dev.index()] += graph.op(v).compute_us();
            s.used_bytes[dev.index()] += graph.op(v).memory_bytes();
        }
        for &(u, v, bytes) in graph.edges() {
            let (a, b) = (s.placement.device(u), s.placement.device(v));
            if a != b {
                s.link[a.index() * d + b.index()] += s.transfer_us(a, b, bytes);
            }
        }
        s
    }

    fn transfer_us(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        match self.cluster.link_between(src, dst) {
            Some(l) => self
                .comm
                .transfer_us(self.cluster.link(l).link_type(), bytes),
            None => f64::INFINITY,
        }
    }

    fn score(&self) -> f64 {
        let max_load = self.load.iter().copied().fold(0.0, f64::max);
        let max_link = self.link.iter().copied().fold(0.0, f64::max);
        max_load + max_link
    }

    /// Moves `op` to `to`, updating load, link, and memory state.
    fn apply(&mut self, op: OpId, to: DeviceId) {
        let from = self.placement.device(op);
        if from == to {
            return;
        }
        let d = self.cluster.device_count();
        let o = self.graph.op(op);
        self.load[from.index()] -= o.compute_us();
        self.load[to.index()] += o.compute_us();
        self.used_bytes[from.index()] -= o.memory_bytes();
        self.used_bytes[to.index()] += o.memory_bytes();
        for &(p, bytes) in self.graph.preds_with_bytes(op) {
            let pd = self.placement.device(p);
            if pd != from {
                self.link[pd.index() * d + from.index()] -= self.transfer_us(pd, from, bytes);
            }
            if pd != to {
                self.link[pd.index() * d + to.index()] += self.transfer_us(pd, to, bytes);
            }
        }
        for &(sx, bytes) in self.graph.succs_with_bytes(op) {
            let sd = self.placement.device(sx);
            if sd != from {
                self.link[from.index() * d + sd.index()] -= self.transfer_us(from, sd, bytes);
            }
            if sd != to {
                self.link[to.index() * d + sd.index()] += self.transfer_us(to, sd, bytes);
            }
        }
        self.placement.set_device(op, to);
    }

    /// Whether moving `op` to `to` keeps `to` within its memory capacity.
    fn fits(&self, op: OpId, to: DeviceId) -> bool {
        let cap = self
            .cluster
            .device(to)
            .map(|dev| dev.memory_bytes())
            .unwrap_or(0);
        self.used_bytes[to.index()] + self.graph.op(op).memory_bytes() <= cap
    }
}

/// Assembles region solutions into a global placement and repairs it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stitch(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    part: &PartitionResult,
    solutions: &[RegionSolution],
    deadline: Option<Instant>,
    obs: &Obs,
) -> Result<StitchOutcome, ShardError> {
    let mut span = obs.span("shard.stitch");

    // 1. Assemble: start from affinity defaults (covers nothing in
    // practice — every op is in a region — but keeps the invariant that
    // the placement is total even if a region under-reported).
    let mut placement = Placement::affinity_default(graph, cluster);
    for sol in solutions {
        for &(op, dev) in &sol.assignments {
            placement.set_device(op, dev);
        }
    }

    let mut surrogate = Surrogate::new(graph, cluster, comm, placement);

    // 2. Memory rebalance.
    let rebalance_moves = rebalance_memory(&mut surrogate)?;
    span.set_attr("rebalance_moves", rebalance_moves);

    // 3. Boundary refinement.
    let boundary = boundary_ops(graph, part, &surrogate.placement, cluster);
    span.set_attr("boundary_ops", boundary.len());
    let mut refine_moves = 0usize;
    let mut deadline_hit = false;
    let gpus = cluster.gpus();
    'passes: for _ in 0..BOUNDARY_PASSES {
        let mut improved = false;
        for &op in &boundary {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                deadline_hit = true;
                break 'passes;
            }
            let before = surrogate.score();
            let cur = surrogate.placement.device(op);
            for &cand in &gpus {
                if cand == cur || !surrogate.fits(op, cand) {
                    continue;
                }
                surrogate.apply(op, cand);
                if surrogate.score() < before - 1e-9 {
                    refine_moves += 1;
                    improved = true;
                    break; // first improvement
                }
                surrogate.apply(op, cur); // revert
            }
        }
        if !improved {
            break;
        }
    }
    span.set_attr("refine_moves", refine_moves);

    Ok(StitchOutcome {
        placement: surrogate.placement,
        rebalance_moves,
        boundary_ops: boundary.len(),
        refine_moves,
        deadline_hit,
    })
}

/// GPU ops incident to a cross-region edge, ordered by descending
/// cross-boundary bytes (ties by op index) — the seam ops most worth
/// revisiting first.
fn boundary_ops(
    graph: &FrozenGraph,
    part: &PartitionResult,
    placement: &Placement,
    cluster: &Cluster,
) -> Vec<OpId> {
    let mut cross_bytes = vec![0u64; graph.op_count()];
    for &(u, v, bytes) in graph.edges() {
        if part.region_of[u.index()] != part.region_of[v.index()] {
            cross_bytes[u.index()] += bytes;
            cross_bytes[v.index()] += bytes;
        }
    }
    let mut ops: Vec<OpId> = graph
        .op_ids()
        .filter(|&v| {
            cross_bytes[v.index()] > 0
                && matches!(graph.op(v).kind(), DeviceKind::Gpu)
                && cluster.is_gpu(placement.device(v))
        })
        .collect();
    ops.sort_by(|&a, &b| {
        cross_bytes[b.index()]
            .cmp(&cross_bytes[a.index()])
            .then(a.cmp(&b))
    });
    ops
}

/// Deterministically moves ops off overloaded GPUs until every device
/// fits. Victims are chosen largest-footprint-first (ties by index) and
/// sent to the GPU with the most free memory (ties by index).
fn rebalance_memory(s: &mut Surrogate<'_>) -> Result<usize, ShardError> {
    let mut moves = 0usize;
    let gpus = s.cluster.gpus();
    loop {
        // Most-overloaded GPU first.
        let over = gpus
            .iter()
            .filter_map(|&g| {
                let cap = s.cluster.device(g).ok()?.memory_bytes();
                let used = s.used_bytes[g.index()];
                (used > cap).then(|| (g, used - cap))
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.index().cmp(&a.0.index())));
        let Some((victim_dev, _)) = over else {
            return Ok(moves);
        };
        // Largest movable op on the overloaded device.
        let op = s
            .graph
            .op_ids()
            .filter(|&v| {
                s.placement.device(v) == victim_dev
                    && matches!(s.graph.op(v).kind(), DeviceKind::Gpu)
            })
            .max_by(|&a, &b| {
                s.graph
                    .op(a)
                    .memory_bytes()
                    .cmp(&s.graph.op(b).memory_bytes())
                    .then(b.index().cmp(&a.index()))
            });
        let Some(op) = op else {
            return Err(ShardError::Infeasible(format!(
                "device {} over memory capacity with no movable op",
                victim_dev.index()
            )));
        };
        // Destination: the GPU with the most free memory that fits it.
        let dest = gpus
            .iter()
            .filter(|&&g| g != victim_dev && s.fits(op, g))
            .max_by(|&&a, &&b| {
                let free = |g: DeviceId| {
                    s.cluster
                        .device(g)
                        .map(|d| d.memory_bytes().saturating_sub(s.used_bytes[g.index()]))
                        .unwrap_or(0)
                };
                free(a).cmp(&free(b)).then(b.index().cmp(&a.index()))
            });
        let Some(&dest) = dest else {
            return Err(ShardError::Infeasible(
                "model does not fit in cluster memory under any rebalance".to_string(),
            ));
        };
        s.apply(op, dest);
        moves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::solve::solve_regions;
    use crate::ShardConfig;
    use pesto_graph::OpGraph;

    fn chain(n: usize, mem: u64) -> FrozenGraph {
        let mut g = OpGraph::new("chain");
        let mut prev: Option<OpId> = None;
        for i in 0..n {
            let v = g.add_op(format!("op{i}"), DeviceKind::Gpu, 10.0, mem);
            if let Some(p) = prev {
                g.add_edge(p, v, 1 << 16).unwrap();
            }
            prev = Some(v);
        }
        g.freeze().unwrap()
    }

    fn stitched(graph: &FrozenGraph, cluster: &Cluster, cap: usize) -> StitchOutcome {
        let comm = CommModel::default_v100();
        let part = partition(graph, cap);
        let cfg = ShardConfig {
            region_iterations: 40,
            ..ShardConfig::default()
        };
        let sols = solve_regions(
            graph,
            cluster,
            &comm,
            &part.regions,
            &cfg,
            3,
            1,
            None,
            None,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        stitch(graph, cluster, &comm, &part, &sols, None, &Obs::disabled()).unwrap()
    }

    #[test]
    fn stitched_placement_is_total_and_memory_feasible() {
        let g = chain(40, 64);
        let cluster = Cluster::two_gpus();
        let out = stitched(&g, &cluster, 12);
        assert_eq!(out.placement.op_count(), g.op_count());
        assert!(out.placement.oom_devices(&g, &cluster).is_empty());
    }

    #[test]
    fn rebalance_fixes_region_memory_overcommit() {
        // Each region alone fits on one GPU, but the union does not: 8
        // regions × 400 bytes on a 1000-byte device must spread out.
        let g = chain(8, 400);
        let cluster = Cluster::homogeneous(4, 1000);
        let out = stitched(&g, &cluster, 1);
        assert!(out.placement.oom_devices(&g, &cluster).is_empty());
    }

    #[test]
    fn infeasible_model_reports_typed_error() {
        let g = chain(4, 600);
        let cluster = Cluster::homogeneous(2, 1000);
        let comm = CommModel::default_v100();
        let part = partition(&g, 1);
        let cfg = ShardConfig::default();
        let sols = solve_regions(
            &g,
            &cluster,
            &comm,
            &part.regions,
            &cfg,
            3,
            1,
            None,
            None,
            None,
            &Obs::disabled(),
        )
        .unwrap();
        let err = stitch(&g, &cluster, &comm, &part, &sols, None, &Obs::disabled()).unwrap_err();
        assert!(matches!(err, ShardError::Infeasible(_)));
    }

    #[test]
    fn surrogate_incremental_matches_rebuild() {
        let g = chain(12, 16);
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let mut s = Surrogate::new(
            &g,
            &cluster,
            &comm,
            Placement::affinity_default(&g, &cluster),
        );
        // Apply a few moves, then rebuild from scratch and compare.
        let g0 = cluster.gpu(0);
        let g1 = cluster.gpu(1);
        s.apply(OpId::from_index(3), g1);
        s.apply(OpId::from_index(7), g1);
        s.apply(OpId::from_index(3), g0);
        let rebuilt = Surrogate::new(&g, &cluster, &comm, s.placement.clone());
        for (a, b) in s.load.iter().zip(&rebuilt.load) {
            assert!((a - b).abs() < 1e-9);
        }
        for (a, b) in s.link.iter().zip(&rebuilt.link) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(s.used_bytes, rebuilt.used_bytes);
    }
}
