//! Communication-aware list scheduling for a *fixed* placement.
//!
//! Given a placement, this module derives a good per-device execution order
//! with an ETF (Earliest Task First) policy that accounts for sequential
//! link capacity, and evaluates the resulting [`Plan`] on the discrete-event
//! simulator. [`Evaluator`] wraps the two into the one placement cost every
//! search scores candidates with: placement local search outside, list
//! scheduling + simulation inside.

use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, FrozenGraph, LinkType, OpId, Placement, Plan, ScheduleOrder};
use pesto_sim::{Routes, SimError, SimReport, Simulator};

/// Scores placements against the paper's objective: the congestion-aware
/// makespan `C_max` under device memory (§3.2). A placement's plan is its
/// ETF list schedule ([`etf_schedule`]), simulated with memory checking
/// off; its cost is that makespan plus, for every device whose memory it
/// overflows, a penalty of the graph's total compute (at least 1 µs)
/// scaled by `1 + overflow / capacity`. An overflowing device thus costs
/// at least one more serial execution of the whole graph, while the
/// search can still tell which infeasible placement is closer to fitting.
///
/// Every search in the system scores its candidates here: the hybrid
/// annealing chains, the pipeline's group-flip refinement and fine
/// schedule, and outage repair.
///
/// Everything that does not depend on the placement is built once, in
/// [`Evaluator::new`]: the b-levels the ETF pass ranks ready ops by, and
/// the simulator with its out-edge index and the device-pair link table
/// ([`Simulator::routes`]) that both the ETF pass and the simulator route
/// transfers through. A call allocates only its own per-call buffers, so
/// one evaluator can be shared by many threads, and every cost is
/// bit-identical to [`etf_schedule`] plus the penalty.
///
/// # Example
///
/// ```
/// use pesto_graph::{OpGraph, DeviceKind, Cluster, Placement};
/// use pesto_cost::CommModel;
/// use pesto_ilp::Evaluator;
///
/// # fn main() -> Result<(), pesto_sim::SimError> {
/// let mut g = OpGraph::new("fat");
/// g.add_op("a", DeviceKind::Gpu, 10.0, 600);
/// let b = g.add_op("b", DeviceKind::Gpu, 10.0, 600);
/// let g = g.freeze().unwrap();
/// let cluster = Cluster::homogeneous(2, 1000);
/// let eval = Evaluator::new(&g, &cluster, CommModel::default_v100(), false);
/// let mut spread = Placement::uniform(2, cluster.gpu(0));
/// spread.set_device(b, cluster.gpu(1));
/// let fits = eval.cost(&spread)?;
/// let overflows = eval.cost(&Placement::uniform(2, cluster.gpu(0)))?;
/// assert!((fits - 10.0).abs() < 1e-9);
/// assert!(overflows > 20.0 + 20.0); // makespan + total-compute penalty
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    comm: CommModel,
    sim: Simulator<'a>,
    horizon: f64,
    b_levels: Vec<f64>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator for placements of `graph` on `cluster`.
    /// `infinite_links` evaluates under the congestion-blind link model of
    /// prior work ([`Simulator::with_infinite_links`]; the Figure 5
    /// ablation); leave it `false` for faithful optimization.
    pub fn new(
        graph: &'a FrozenGraph,
        cluster: &'a Cluster,
        comm: CommModel,
        infinite_links: bool,
    ) -> Self {
        Evaluator {
            graph,
            cluster,
            comm,
            sim: Simulator::new(graph, cluster, comm)
                .with_memory_check(false)
                .with_infinite_links(infinite_links),
            horizon: graph.total_compute_us().max(1.0),
            b_levels: b_levels(graph, &comm),
        }
    }

    /// The ETF plan of `placement` and its simulated report.
    ///
    /// # Errors
    ///
    /// [`SimError`] from plan validation or simulation.
    pub fn schedule(&self, placement: Placement) -> Result<ListScheduleResult, SimError> {
        let order = etf_order(
            self.graph,
            self.cluster,
            &self.comm,
            &self.b_levels,
            self.sim.routes(),
            &placement,
        )?;
        simulate_order(placement, order, &self.sim)
    }

    /// The cost of `placement`: the simulated makespan of its ETF plan
    /// plus the memory-overflow penalty.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::schedule`].
    pub fn cost(&self, placement: &Placement) -> Result<f64, SimError> {
        let mut cost = self.schedule(placement.clone())?.report.makespan_us;
        let usage = placement.memory_per_device(self.graph, self.cluster);
        for (d, &used) in usage.iter().enumerate() {
            let cap = self.cluster.devices()[d].memory_bytes();
            if used > cap {
                let overflow_frac = (used - cap) as f64 / cap.max(1) as f64;
                cost += self.horizon * (1.0 + overflow_frac);
            }
        }
        Ok(cost)
    }
}

/// Result of list scheduling + simulation for one placement.
#[derive(Debug, Clone)]
pub struct ListScheduleResult {
    /// The complete plan (placement + derived per-device order).
    pub plan: Plan,
    /// The simulator's report for the plan.
    pub report: SimReport,
}

impl ListScheduleResult {
    /// Simulated per-step time of the plan, µs.
    pub fn makespan_us(&self) -> f64 {
        self.report.makespan_us
    }
}

/// Upward rank (b-level): longest compute+comm path from each op to a sink,
/// assuming every edge pays its full transfer cost. A classic list-scheduling
/// priority; independent of placement.
fn b_levels(graph: &FrozenGraph, comm: &CommModel) -> Vec<f64> {
    let mut bl = vec![0.0f64; graph.op_count()];
    for &v in graph.topo_order().iter().rev() {
        let mut best_tail = 0.0f64;
        for &(s, bytes) in graph.succs_with_bytes(v) {
            // Pessimistic: price the edge as a GPU-GPU transfer.
            let c = comm.transfer_us(LinkType::GpuToGpu, bytes);
            best_tail = best_tail.max(c + bl[s.index()]);
        }
        bl[v.index()] = graph.op(v).compute_us() + best_tail;
    }
    bl
}

/// Derives a per-device order for `placement` with an ETF policy and
/// simulates the resulting plan.
///
/// At every step the scheduler scans the ready ops, at most 64 of them:
/// on a wider frontier, the 64 with the highest b-levels (longest
/// critical tails). It estimates each scanned op's earliest start (device
/// availability, data arrivals over sequential links) and commits the op
/// that can start soonest, breaking ties by longer critical tail. The
/// committed order is then validated on the event simulator, whose report
/// is returned.
///
/// This builds the placement-independent tables on every call; searches
/// that score many placements of one graph use [`Evaluator`], which builds
/// them once and returns the same plans.
///
/// # Errors
///
/// Propagates [`SimError`] from plan validation or simulation (e.g. OOM if
/// `sim` has memory checking enabled).
///
/// # Example
///
/// ```
/// use pesto_graph::{OpGraph, DeviceKind, Cluster, Placement};
/// use pesto_cost::CommModel;
/// use pesto_sim::Simulator;
/// use pesto_ilp::etf_schedule;
///
/// # fn main() -> Result<(), pesto_sim::SimError> {
/// let mut g = OpGraph::new("pair");
/// let a = g.add_op("a", DeviceKind::Gpu, 10.0, 0);
/// let b = g.add_op("b", DeviceKind::Gpu, 20.0, 0);
/// g.add_edge(a, b, 256).unwrap();
/// let g = g.freeze().unwrap();
/// let cluster = Cluster::two_gpus();
/// let comm = CommModel::default_v100();
/// let sim = Simulator::new(&g, &cluster, comm);
/// let placement = Placement::affinity_default(&g, &cluster);
/// let result = etf_schedule(&g, &cluster, &comm, placement, &sim)?;
/// assert!((result.makespan_us() - 30.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn etf_schedule(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    placement: Placement,
    sim: &Simulator<'_>,
) -> Result<ListScheduleResult, SimError> {
    let order = etf_order(
        graph,
        cluster,
        comm,
        &b_levels(graph, comm),
        &Routes::new(cluster),
        &placement,
    )?;
    simulate_order(placement, order, sim)
}

/// Simulates `placement` run in `order` on `sim`.
fn simulate_order(
    placement: Placement,
    order: ScheduleOrder,
    sim: &Simulator<'_>,
) -> Result<ListScheduleResult, SimError> {
    let plan = Plan::with_order(placement, order);
    let report = sim.run(&plan)?;
    Ok(ListScheduleResult { plan, report })
}

/// A ready op and what its start estimate depends on, fixed once its
/// last input has finished.
#[derive(Debug)]
struct ReadyOp {
    op: OpId,
    dev: DeviceId,
    b_level: f64,
    /// The latest arrival of its inputs over idle links: each same-device
    /// input's finish and each cross-device input's finish plus transfer.
    data_ready: f64,
    /// `bounds[start..end]` of the pass: for each link carrying an input,
    /// the link and the longest transfer of those inputs on it.
    bounds: (u32, u32),
    /// The first input whose device has no link to `dev`.
    missing: Option<(DeviceId, DeviceId)>,
}

/// The ETF pass behind [`etf_schedule`] and [`Evaluator`]: the per-device
/// order of `placement`, given the graph's b-levels `bl` and the
/// cluster's `routes`.
///
/// An input `p` of op `v` arrives over link `l` at `max(finish_p,
/// free_l) + t_p`. Rounding is monotone, so that equals `max(finish_p +
/// t_p, free_l + t_p)` bit for bit, and over all of `v`'s inputs the
/// estimate `max(device_free, arrivals)` equals `max(device_free,
/// data_ready, free_l + longest_l for each link l)`, where only `free_l`
/// and `device_free` change while `v` waits. `data_ready` and `longest_l`
/// are fixed when `v` becomes ready ([`ReadyOp`]), so a step reads one
/// value per incoming link instead of every input and its transfer time.
fn etf_order(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    bl: &[f64],
    routes: &Routes,
    placement: &Placement,
) -> Result<ScheduleOrder, SimError> {
    // On very wide frontiers only the highest-priority (b-level) ready ops
    // are scanned: a standard bounded-lookahead ETF that estimates at most
    // K ops per step instead of every ready op on 20k+-op graphs.
    const SCAN_LIMIT: usize = 64;
    let n = graph.op_count();
    let devices = cluster.device_count();
    // The simulator validates the plan, but only after this pass has
    // indexed the placement: reject what would index out of range here,
    // with the error the simulator's validation gives.
    if placement.op_count() != n || placement.as_slice().iter().any(|d| d.index() >= devices) {
        placement.validate(graph, cluster)?;
    }
    let mut device_free = vec![0.0f64; devices];
    let mut link_free = vec![0.0f64; cluster.link_count()];
    let mut finish = vec![0.0f64; n];
    let mut remaining_preds: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(OpId::from_index(i)))
        .collect();
    let mut bounds: Vec<(usize, f64)> = Vec::new();
    let ready_op = |op: OpId, finish: &[f64], bounds: &mut Vec<(usize, f64)>| {
        let dev = placement.device(op);
        let start = bounds.len();
        let mut data_ready = f64::NEG_INFINITY;
        let mut missing = None;
        for &(p, bytes) in graph.preds_with_bytes(op) {
            let pdev = placement.device(p);
            if pdev == dev {
                data_ready = data_ready.max(finish[p.index()]);
                continue;
            }
            let Ok(route) = routes.get(pdev, dev) else {
                missing = missing.or(Some((pdev, dev)));
                continue;
            };
            let t = route.transfer_us(comm, bytes);
            data_ready = data_ready.max(finish[p.index()] + t);
            let link = route.link.index();
            match bounds[start..].iter_mut().find(|(l, _)| *l == link) {
                Some((_, longest)) => *longest = longest.max(t),
                None => bounds.push((link, t)),
            }
        }
        ReadyOp {
            op,
            dev,
            b_level: bl[op.index()],
            data_ready,
            bounds: (start as u32, bounds.len() as u32),
            missing,
        }
    };
    let mut ready: Vec<ReadyOp> = (0..n)
        .filter(|&i| remaining_preds[i] == 0)
        .map(|i| ready_op(OpId::from_index(i), &finish, &mut bounds))
        .collect();
    let mut order: Vec<Vec<OpId>> = vec![Vec::new(); devices];
    // Positions in `ready` scanned this step.
    let mut scan: Vec<usize> = Vec::new();

    for _ in 0..n {
        debug_assert!(!ready.is_empty(), "DAG guarantees progress");
        // Estimate the earliest start of each scanned ready op (without
        // committing). A wide frontier is cut down by selecting from
        // `0..len` in place, so exact b-level ties resolve the same on
        // every call.
        scan.clear();
        scan.extend(0..ready.len());
        if scan.len() > SCAN_LIMIT {
            scan.select_nth_unstable_by(SCAN_LIMIT - 1, |&a, &b| {
                ready[b].b_level.total_cmp(&ready[a].b_level)
            });
            scan.truncate(SCAN_LIMIT);
        }
        let mut best: Option<(usize, f64)> = None;
        for &idx in &scan {
            let r = &ready[idx];
            if let Some((src, dst)) = r.missing {
                return Err(SimError::MissingLink { src, dst });
            }
            let mut est = device_free[r.dev.index()].max(r.data_ready);
            for &(link, longest) in &bounds[r.bounds.0 as usize..r.bounds.1 as usize] {
                est = est.max(link_free[link] + longest);
            }
            let better = match best {
                None => true,
                Some((bidx, bstart)) => {
                    est < bstart - 1e-12
                        || (est < bstart + 1e-12 && r.b_level > ready[bidx].b_level)
                }
            };
            if better {
                best = Some((idx, est));
            }
        }
        let (idx, _) = best.expect("ready set is non-empty");
        let ReadyOp { op, dev, .. } = ready.swap_remove(idx);

        // Commit: transfers first (updating link availability), then the op.
        let mut start = device_free[dev.index()];
        for &(p, bytes) in graph.preds_with_bytes(op) {
            let pdev = placement.device(p);
            let arrival = if pdev == dev {
                finish[p.index()]
            } else {
                let route = routes.get(pdev, dev)?;
                let link = route.link.index();
                let t1 = finish[p.index()].max(link_free[link]) + route.transfer_us(comm, bytes);
                link_free[link] = t1;
                t1
            };
            start = start.max(arrival);
        }
        finish[op.index()] = start + graph.op(op).compute_us();
        device_free[dev.index()] = finish[op.index()];
        order[dev.index()].push(op);

        for &s in graph.succs(op) {
            remaining_preds[s.index()] -= 1;
            if remaining_preds[s.index()] == 0 {
                ready.push(ready_op(s, &finish, &mut bounds));
            }
        }
    }
    Ok(ScheduleOrder::from_vecs(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph};

    fn sim_for<'a>(g: &'a FrozenGraph, c: &'a Cluster) -> Simulator<'a> {
        Simulator::new(g, c, CommModel::default_v100()).with_memory_check(false)
    }

    #[test]
    fn figure2_compute_aware_ordering() {
        // The paper's Figure 2 insight: with ops of very different sizes on
        // one device, scheduling the heavy ones that gate the other GPU
        // first shortens the makespan. ETF with b-level tie-breaking should
        // start the op with the longer tail first.
        let mut g = OpGraph::new("fig2-ish");
        // Two chains from two roots on gpu0; chain F->G is heavy and its
        // tail runs on gpu1.
        let f = g.add_op("F", DeviceKind::Gpu, 30.0, 0);
        let gg = g.add_op("G", DeviceKind::Gpu, 30.0, 0);
        let a = g.add_op("A", DeviceKind::Gpu, 5.0, 0);
        let b = g.add_op("B", DeviceKind::Gpu, 5.0, 0);
        g.add_edge(f, gg, 0).unwrap();
        g.add_edge(a, b, 0).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        // Everything on gpu0 except G on gpu1? Keep all on gpu0: order should
        // put F (b-level 60) before A (b-level 10).
        let placement = Placement::uniform(g.op_count(), cluster.gpu(0));
        let sim = sim_for(&g, &cluster);
        let res = etf_schedule(&g, &cluster, &CommModel::default_v100(), placement, &sim).unwrap();
        let order = res.plan.order.as_ref().unwrap().on_device(cluster.gpu(0));
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        assert!(pos(f) < pos(a), "heavy chain must start first");
        assert!((res.makespan_us() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_is_simulator_feasible_and_ordered() {
        let mut g = OpGraph::new("mix");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 20.0, 0);
        let c = g.add_op("c", DeviceKind::Gpu, 30.0, 0);
        let d = g.add_op("d", DeviceKind::Gpu, 40.0, 0);
        g.add_edge(a, b, 1024).unwrap();
        g.add_edge(a, c, 1024).unwrap();
        g.add_edge(b, d, 1024).unwrap();
        g.add_edge(c, d, 1024).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let mut placement = Placement::uniform(g.op_count(), cluster.gpu(0));
        placement.set_device(c, cluster.gpu(1));
        let sim = sim_for(&g, &cluster);
        let res = etf_schedule(&g, &cluster, &CommModel::default_v100(), placement, &sim).unwrap();
        assert_eq!(res.plan.order.as_ref().unwrap().op_count(), 4);
        assert!(res.makespan_us() > 0.0);
    }

    #[test]
    fn parallel_placement_beats_serial_under_etf() {
        // Wide fan of independent heavy ops: spreading across both GPUs must
        // roughly halve the ETF makespan.
        let mut g = OpGraph::new("wide");
        let ids: Vec<OpId> = (0..8)
            .map(|i| g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 0))
            .collect();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let sim = sim_for(&g, &cluster);

        let serial = Placement::uniform(8, cluster.gpu(0));
        let serial_ms = etf_schedule(&g, &cluster, &comm, serial, &sim)
            .unwrap()
            .makespan_us();

        let mut spread = Placement::uniform(8, cluster.gpu(0));
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                spread.set_device(id, cluster.gpu(1));
            }
        }
        let spread_ms = etf_schedule(&g, &cluster, &comm, spread, &sim)
            .unwrap()
            .makespan_us();
        assert!((serial_ms - 800.0).abs() < 1e-9);
        assert!((spread_ms - 400.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_placement_is_the_simulators_error_not_a_panic() {
        // A 1-op placement of a 2-op graph, and a placement on a device
        // the cluster lacks: the ETF pass must not index either.
        let mut g = OpGraph::new("pair");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 20.0, 0);
        g.add_edge(a, b, 256).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let sim = sim_for(&g, &cluster);
        let eval = Evaluator::new(&g, &cluster, comm, false);
        let mut off_cluster = Placement::uniform(2, cluster.gpu(0));
        off_cluster.set_device(b, DeviceId::from_index(cluster.device_count()));
        for placement in [Placement::uniform(1, cluster.gpu(0)), off_cluster] {
            let want = sim
                .run(&Plan::placement_only(placement.clone()))
                .unwrap_err();
            assert!(matches!(want, SimError::InvalidPlan(_)), "{want:?}");
            let got = etf_schedule(&g, &cluster, &comm, placement.clone(), &sim).unwrap_err();
            assert_eq!(got, want);
            assert_eq!(eval.schedule(placement.clone()).unwrap_err(), want);
            assert_eq!(eval.cost(&placement).unwrap_err(), want);
        }
    }

    #[test]
    fn missing_link_is_the_simulators_error() {
        // A deserialized cluster can lack a link: drop the last one
        // (GPU 1 -> GPU 0) and feed GPU 0 from GPU 1.
        let json = serde_json::to_string(&Cluster::two_gpus()).unwrap();
        let cut = json.rfind(",{").unwrap();
        let cluster: Cluster = serde_json::from_str(&format!("{}]}}", &json[..cut])).unwrap();
        let (gpu0, gpu1) = (cluster.gpu(0), cluster.gpu(1));
        assert_eq!(cluster.link_between(gpu1, gpu0), None);
        let mut g = OpGraph::new("pair");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 20.0, 0);
        g.add_edge(a, b, 256).unwrap();
        let g = g.freeze().unwrap();
        let mut placement = Placement::uniform(2, gpu1);
        placement.set_device(b, gpu0);
        let want = SimError::MissingLink {
            src: gpu1,
            dst: gpu0,
        };
        let sim = sim_for(&g, &cluster);
        let run = sim.run(&Plan::placement_only(placement.clone()));
        assert_eq!(run.unwrap_err(), want);
        let comm = CommModel::default_v100();
        let etf = etf_schedule(&g, &cluster, &comm, placement.clone(), &sim);
        assert_eq!(etf.unwrap_err(), want);
        let eval = Evaluator::new(&g, &cluster, comm, false);
        assert_eq!(eval.cost(&placement).unwrap_err(), want);
    }
}
