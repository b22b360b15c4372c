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
use pesto_sim::{MakespanScratch, Routes, SimError, SimReport, Simulator};

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
/// transfers through. A cost simulates the ETF order with
/// [`Simulator::makespan`], which builds no plan or report and runs in
/// buffers the caller's [`EtfTrace`] keeps; [`Evaluator::schedule`] and
/// [`etf_schedule`] run [`Simulator::run`]. Every cost is bit-identical
/// to [`etf_schedule`] plus the penalty.
///
/// A search that scores many small moves keeps the [`EtfTrace`] of its
/// incumbent's pass ([`Evaluator::score`]) and scores a candidate with
/// [`Evaluator::rescore`], which runs only the ETF steps the move can
/// change. Callers own the traces; the evaluator keeps no per-call state,
/// so one shared, immutable evaluator serves many threads.
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
        let mut trace = EtfTrace::default();
        self.pass().run(&placement, None, &mut trace)?;
        simulate_order(placement, ScheduleOrder::from_vecs(trace.order), &self.sim)
    }

    /// The cost of `placement`: the simulated makespan of its ETF plan
    /// plus the memory-overflow penalty.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::schedule`].
    pub fn cost(&self, placement: &Placement) -> Result<f64, SimError> {
        Ok(self.score(placement)?.0)
    }

    /// [`Evaluator::cost`] of `placement`, with the trace of its ETF pass
    /// for [`Evaluator::rescore`] to resume from.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::schedule`].
    pub fn score(&self, placement: &Placement) -> Result<(f64, EtfTrace), SimError> {
        let mut trace = EtfTrace::default();
        let cost = self.evaluate(placement, None, &mut trace)?;
        Ok((cost, trace))
    }

    /// [`Evaluator::cost`] of `cand`, resumed from `base_trace`, the trace
    /// of `base`'s pass, and bit-identical to a full evaluation. `cand`'s
    /// trace is written into `trace`, whose buffers are reused: a search
    /// that keeps its incumbent's trace and one spare, and swaps the two
    /// when it adopts a candidate, allocates no trace per candidate.
    ///
    /// The ETF pass of `cand` repeats `base`'s step for step until the
    /// first step `r` at which an op the two place differently is ready.
    /// It restarts from `base`'s last snapshot taken strictly before `r`
    /// (a snapshot at `r` already holds that op's ready entry for its
    /// `base` device) and runs the remaining steps; the whole order is
    /// then simulated ([`Simulator::makespan`]). Without a usable base
    /// (an incomplete trace, or a move of an op ready from step 0) the
    /// pass runs from step 0. [`EtfTrace::skipped_steps`] says how many
    /// steps were not run.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::cost`] of `cand`.
    pub fn rescore(
        &self,
        base: &Placement,
        base_trace: &EtfTrace,
        cand: &Placement,
        trace: &mut EtfTrace,
    ) -> Result<f64, SimError> {
        self.evaluate(cand, Some((base, base_trace)), trace)
    }

    /// The ETF pass's placement-independent inputs.
    fn pass(&self) -> EtfInputs<'_> {
        EtfInputs {
            graph: self.graph,
            cluster: self.cluster,
            comm: &self.comm,
            bl: &self.b_levels,
            routes: self.sim.routes(),
        }
    }

    /// The penalized cost of `placement`, its pass resumed from `base`
    /// where possible and recorded in `trace`.
    fn evaluate(
        &self,
        placement: &Placement,
        base: Option<(&Placement, &EtfTrace)>,
        trace: &mut EtfTrace,
    ) -> Result<f64, SimError> {
        self.pass().run(placement, base, trace)?;
        let mut cost = self.sim.makespan(placement, &trace.order, &mut trace.sim)?;
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
    let (bl, routes) = (b_levels(graph, comm), Routes::new(cluster));
    let inputs = EtfInputs {
        graph,
        cluster,
        comm,
        bl: &bl,
        routes: &routes,
    };
    let mut trace = EtfTrace::default();
    inputs.run(&placement, None, &mut trace)?;
    simulate_order(placement, ScheduleOrder::from_vecs(trace.order), sim)
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

/// ETF steps between two snapshots of a pass ([`EtfTrace`]): a resumed
/// pass re-runs fewer than this many of the steps it shares with its base.
const SNAPSHOT_EVERY: usize = 16;

/// A ready op and what its start estimate depends on, fixed once its
/// last input has finished.
#[derive(Debug, Clone, Copy)]
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

/// The record of one ETF pass that [`Evaluator::rescore`] resumes from,
/// and the buffers the pass and its simulation ran in.
///
/// Besides the per-device order, a trace keeps each op's finish time and
/// the steps at which it became ready and was committed, plus a snapshot
/// of the pass's state at the start of every 16th step. Passes overwrite
/// a trace in place, reusing its allocations. A trace describes the last
/// placement scored into it; only a pass that completed can be resumed
/// from.
#[derive(Debug, Clone, Default)]
pub struct EtfTrace {
    /// Whether the last pass into this trace ran its last step.
    complete: bool,
    /// The step the last pass started at: 0 unless it was resumed.
    resumed_at: usize,
    /// Per op: its finish time, the step from which it was ready and the
    /// step that committed it.
    finish: Vec<f64>,
    ready_step: Vec<u32>,
    commit_step: Vec<u32>,
    /// Per op, its inputs not yet committed (working state).
    remaining_preds: Vec<u32>,
    /// Per device, the ops committed to it in order.
    order: Vec<Vec<OpId>>,
    device_free: Vec<f64>,
    link_free: Vec<f64>,
    /// The per-link input bounds of every ready op so far ([`ReadyOp`]).
    bounds: Vec<(usize, f64)>,
    /// The ready list, in index order: `swap_remove` and the lookahead's
    /// selection make that order part of the result.
    ready: Vec<ReadyOp>,
    /// Positions in `ready` scanned this step (working state).
    scan: Vec<usize>,
    snapshots: Snapshots,
    /// The buffers the order's simulation ran in.
    sim: MakespanScratch,
}

impl EtfTrace {
    /// The ETF steps the pass that filled this trace did not run because
    /// they repeat its base's: 0 for a pass from step 0.
    pub fn skipped_steps(&self) -> usize {
        self.resumed_at
    }

    /// The snapshot a pass of `cand` can resume from when this trace is
    /// the complete pass of `base` over `n` ops: the last one taken
    /// strictly before the first step at which an op the two place
    /// differently is ready. `None` when that op is ready at step 0.
    fn resume_point(&self, n: usize, base: &Placement, cand: &Placement) -> Option<usize> {
        if !self.complete || self.ready_step.len() != n || base.op_count() != n {
            return None;
        }
        let first_moved_ready = base
            .as_slice()
            .iter()
            .zip(cand.as_slice())
            .zip(&self.ready_step)
            .filter(|((b, c), _)| b != c)
            .map(|(_, &step)| step as usize)
            .min()
            .unwrap_or(n);
        (first_moved_ready > 0).then(|| (first_moved_ready - 1) / SNAPSHOT_EVERY)
    }

    /// Resets the trace to the start of a pass over `graph`'s ops.
    fn start(&mut self, graph: &FrozenGraph, devices: usize, links: usize) {
        let n = graph.op_count();
        self.resumed_at = 0;
        self.finish.clear();
        self.finish.resize(n, 0.0);
        self.ready_step.clear();
        self.ready_step.resize(n, 0);
        self.commit_step.clear();
        self.commit_step.resize(n, 0);
        self.remaining_preds.clear();
        self.remaining_preds
            .extend((0..n).map(|i| graph.in_degree(OpId::from_index(i)) as u32));
        self.order.resize_with(devices, Vec::new);
        self.order.iter_mut().for_each(Vec::clear);
        self.device_free.clear();
        self.device_free.resize(devices, 0.0);
        self.link_free.clear();
        self.link_free.resize(links, 0.0);
        self.bounds.clear();
        self.ready.clear();
        self.snapshots.clear(devices, links);
    }

    /// Sets the trace to `base`'s state at its snapshot `s`, keeping the
    /// snapshots before it. Per-op state is copied whole: finish times of
    /// ops not yet committed are overwritten before they are read, and the
    /// remaining-input counts are rebuilt from `base`'s commit steps.
    fn restore(&mut self, base: &EtfTrace, s: usize, graph: &FrozenGraph) {
        let step = s * SNAPSHOT_EVERY;
        let snaps = &base.snapshots;
        self.resumed_at = step;
        self.finish.clone_from(&base.finish);
        self.ready_step.clone_from(&base.ready_step);
        self.commit_step.clone_from(&base.commit_step);
        self.remaining_preds.clear();
        self.remaining_preds.extend((0..graph.op_count()).map(|i| {
            let preds = graph.preds(OpId::from_index(i));
            preds
                .iter()
                .filter(|p| base.commit_step[p.index()] as usize >= step)
                .count() as u32
        }));
        self.order.resize_with(base.order.len(), Vec::new);
        for ((mine, theirs), &len) in self
            .order
            .iter_mut()
            .zip(&base.order)
            .zip(snaps.order_len(s))
        {
            copy_into(mine, &theirs[..len as usize]);
        }
        copy_into(&mut self.device_free, snaps.device_free(s));
        copy_into(&mut self.link_free, snaps.link_free(s));
        copy_into(
            &mut self.bounds,
            &base.bounds[..snaps.bounds_len[s] as usize],
        );
        copy_into(&mut self.ready, snaps.ready(s));
        self.snapshots.copy_prefix(snaps, s);
    }
}

/// Snapshots of one ETF pass, taken at the start of every
/// [`SNAPSHOT_EVERY`]-th step and stored flat: each holds the ready list,
/// `device_free`, `link_free`, every device's order length and the length
/// of `bounds`. The rest of the state at a snapshot follows from the
/// trace's per-op steps.
#[derive(Debug, Clone, Default)]
struct Snapshots {
    /// Devices and links of the cluster: the per-snapshot strides of
    /// `device_free` and `order_len`, and of `link_free`.
    devices: usize,
    links: usize,
    /// The snapshots' ready lists, back to back.
    ready: Vec<ReadyOp>,
    /// Where each snapshot's ready list ends in `ready`.
    ready_end: Vec<u32>,
    device_free: Vec<f64>,
    link_free: Vec<f64>,
    order_len: Vec<u32>,
    bounds_len: Vec<u32>,
}

impl Snapshots {
    /// Drops every snapshot; later ones are of a pass on `devices`
    /// devices and `links` links.
    fn clear(&mut self, devices: usize, links: usize) {
        self.devices = devices;
        self.links = links;
        self.ready.clear();
        self.ready_end.clear();
        self.device_free.clear();
        self.link_free.clear();
        self.order_len.clear();
        self.bounds_len.clear();
    }

    fn push(
        &mut self,
        ready: &[ReadyOp],
        device_free: &[f64],
        link_free: &[f64],
        order: &[Vec<OpId>],
        bounds_len: usize,
    ) {
        self.ready.extend_from_slice(ready);
        self.ready_end.push(self.ready.len() as u32);
        self.device_free.extend_from_slice(device_free);
        self.link_free.extend_from_slice(link_free);
        self.order_len.extend(order.iter().map(|o| o.len() as u32));
        self.bounds_len.push(bounds_len as u32);
    }

    fn ready(&self, s: usize) -> &[ReadyOp] {
        let start = if s == 0 { 0 } else { self.ready_end[s - 1] };
        &self.ready[start as usize..self.ready_end[s] as usize]
    }

    fn device_free(&self, s: usize) -> &[f64] {
        &self.device_free[s * self.devices..(s + 1) * self.devices]
    }

    fn link_free(&self, s: usize) -> &[f64] {
        &self.link_free[s * self.links..(s + 1) * self.links]
    }

    fn order_len(&self, s: usize) -> &[u32] {
        &self.order_len[s * self.devices..(s + 1) * self.devices]
    }

    /// Becomes `other`'s first `count` snapshots.
    fn copy_prefix(&mut self, other: &Snapshots, count: usize) {
        let (devices, links) = (other.devices, other.links);
        let ready_end = if count == 0 {
            0
        } else {
            other.ready_end[count - 1]
        };
        self.devices = devices;
        self.links = links;
        copy_into(&mut self.ready, &other.ready[..ready_end as usize]);
        copy_into(&mut self.ready_end, &other.ready_end[..count]);
        copy_into(&mut self.device_free, &other.device_free[..count * devices]);
        copy_into(&mut self.link_free, &other.link_free[..count * links]);
        copy_into(&mut self.order_len, &other.order_len[..count * devices]);
        copy_into(&mut self.bounds_len, &other.bounds_len[..count]);
    }
}

/// Makes `dst` a copy of `src`, reusing its allocation.
fn copy_into<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// The placement-independent inputs of the ETF pass behind
/// [`etf_schedule`] and [`Evaluator`]: the graph's b-levels `bl` and the
/// cluster's `routes`.
struct EtfInputs<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    comm: &'a CommModel,
    bl: &'a [f64],
    routes: &'a Routes,
}

impl EtfInputs<'_> {
    /// `op`'s ready entry under `placement`, once its inputs have
    /// finished; its per-link bounds are appended to `bounds`.
    fn ready_op(
        &self,
        placement: &Placement,
        op: OpId,
        finish: &[f64],
        bounds: &mut Vec<(usize, f64)>,
    ) -> ReadyOp {
        let dev = placement.device(op);
        let start = bounds.len();
        let mut data_ready = f64::NEG_INFINITY;
        let mut missing = None;
        for &(p, bytes) in self.graph.preds_with_bytes(op) {
            let pdev = placement.device(p);
            if pdev == dev {
                data_ready = data_ready.max(finish[p.index()]);
                continue;
            }
            let Ok(route) = self.routes.get(pdev, dev) else {
                missing = missing.or(Some((pdev, dev)));
                continue;
            };
            let t = route.transfer_us(self.comm, bytes);
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
            b_level: self.bl[op.index()],
            data_ready,
            bounds: (start as u32, bounds.len() as u32),
            missing,
        }
    }

    /// The ETF pass of `placement`, recorded in `trace`: its per-device
    /// order, per-op steps and snapshots. With `base` (a placement and the
    /// trace of its pass) the pass starts from the snapshot
    /// [`EtfTrace::resume_point`] picks, otherwise from step 0.
    ///
    /// An input `p` of op `v` arrives over link `l` at `max(finish_p,
    /// free_l) + t_p`. Rounding is monotone, so that equals `max(finish_p +
    /// t_p, free_l + t_p)` bit for bit, and over all of `v`'s inputs the
    /// estimate `max(device_free, arrivals)` equals `max(device_free,
    /// data_ready, free_l + longest_l for each link l)`, where only `free_l`
    /// and `device_free` change while `v` waits. `data_ready` and
    /// `longest_l` are fixed when `v` becomes ready ([`ReadyOp`]), so a
    /// step reads one value per incoming link instead of every input and
    /// its transfer time.
    fn run(
        &self,
        placement: &Placement,
        base: Option<(&Placement, &EtfTrace)>,
        trace: &mut EtfTrace,
    ) -> Result<(), SimError> {
        // On very wide frontiers only the highest-priority (b-level) ready
        // ops are scanned: a standard bounded-lookahead ETF that estimates
        // at most K ops per step instead of every ready op on 20k+-op
        // graphs.
        const SCAN_LIMIT: usize = 64;
        let graph = self.graph;
        let n = graph.op_count();
        let devices = self.cluster.device_count();
        trace.complete = false;
        // The simulator validates the plan, but only after this pass has
        // indexed the placement: reject what would index out of range
        // here, with the error the simulator's validation gives.
        if placement.op_count() != n || placement.as_slice().iter().any(|d| d.index() >= devices) {
            placement.validate(graph, self.cluster)?;
        }
        let resume = base.and_then(|(bp, bt)| Some((bt, bt.resume_point(n, bp, placement)?)));
        match resume {
            Some((bt, s)) => trace.restore(bt, s, graph),
            None => {
                trace.start(graph, devices, self.cluster.link_count());
                for i in 0..n {
                    if trace.remaining_preds[i] == 0 {
                        let r = self.ready_op(
                            placement,
                            OpId::from_index(i),
                            &trace.finish,
                            &mut trace.bounds,
                        );
                        trace.ready.push(r);
                    }
                }
            }
        }
        let EtfTrace {
            complete,
            resumed_at,
            finish,
            ready_step,
            commit_step,
            remaining_preds,
            order,
            device_free,
            link_free,
            bounds,
            ready,
            scan,
            snapshots,
            ..
        } = trace;

        for step in *resumed_at..n {
            if step % SNAPSHOT_EVERY == 0 {
                snapshots.push(ready, device_free, link_free, order, bounds.len());
            }
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
            for &idx in scan.iter() {
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
                    let route = self.routes.get(pdev, dev)?;
                    let link = route.link.index();
                    let t1 = finish[p.index()].max(link_free[link])
                        + route.transfer_us(self.comm, bytes);
                    link_free[link] = t1;
                    t1
                };
                start = start.max(arrival);
            }
            finish[op.index()] = start + graph.op(op).compute_us();
            device_free[dev.index()] = finish[op.index()];
            order[dev.index()].push(op);
            commit_step[op.index()] = step as u32;

            for &s in graph.succs(op) {
                remaining_preds[s.index()] -= 1;
                if remaining_preds[s.index()] == 0 {
                    ready_step[s.index()] = (step + 1) as u32;
                    ready.push(self.ready_op(placement, s, finish, bounds));
                }
            }
        }
        *complete = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, GraphError, OpGraph};

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
        // A 1-op placement of a 3-op graph and a placement on a device the
        // cluster lacks, which the ETF pass must not index, and a GPU op
        // on the CPU and a CPU op on a GPU, which only the simulator's
        // validation rejects: every entry point, a rescore from a valid
        // base included, returns the simulator's error.
        let mut g = OpGraph::new("mixed");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 20.0, 0);
        let c = g.add_op("c", DeviceKind::Cpu, 5.0, 0);
        g.add_edge(a, b, 256).unwrap();
        g.add_edge(c, b, 256).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let sim = sim_for(&g, &cluster);
        let eval = Evaluator::new(&g, &cluster, comm, false);
        let base = Placement::affinity_default(&g, &cluster);
        let (_, base_trace) = eval.score(&base).unwrap();
        let moved = |op: OpId, dev: DeviceId| {
            let mut p = base.clone();
            p.set_device(op, dev);
            p
        };
        let off_cluster = DeviceId::from_index(cluster.device_count());
        let cases = [
            (Placement::uniform(1, cluster.gpu(0)), None),
            (moved(b, off_cluster), None),
            (moved(a, cluster.cpu()), Some(GraphError::UnknownDevice(0))),
            (moved(c, cluster.gpu(1)), Some(GraphError::UnknownDevice(2))),
        ];
        for (placement, pinned) in cases {
            let want = sim
                .run(&Plan::placement_only(placement.clone()))
                .unwrap_err();
            assert!(matches!(want, SimError::InvalidPlan(_)), "{want:?}");
            if let Some(e) = pinned {
                assert_eq!(want, SimError::InvalidPlan(e));
            }
            let got = etf_schedule(&g, &cluster, &comm, placement.clone(), &sim).unwrap_err();
            assert_eq!(got, want);
            assert_eq!(eval.schedule(placement.clone()).unwrap_err(), want);
            assert_eq!(eval.cost(&placement).unwrap_err(), want);
            let mut trace = EtfTrace::default();
            let rescored = eval.rescore(&base, &base_trace, &placement, &mut trace);
            assert_eq!(rescored.unwrap_err(), want);
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
