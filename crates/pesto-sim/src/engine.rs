//! The event-driven simulation engine.

use crate::error::SimError;
use crate::faults::{FaultAttribution, FaultPlan};
use crate::report::{OpSpan, PipelineStats, SimReport, TransferSpan};
use crate::routes::Routes;
use pesto_cost::CommModel;
use pesto_graph::{
    Cluster, DeviceId, FrozenGraph, GraphError, LinkId, OpId, Placement, Plan, ScheduleOrder,
};
use pesto_obs::Obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Discrete-event simulator of one or more training steps under a [`Plan`].
///
/// By default one step is simulated; [`Simulator::with_steps`] turns the
/// run into a K-step pipeline where consecutive steps overlap wherever
/// resources allow. See the [crate-level documentation](crate) for the
/// execution model and an example.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    comm: CommModel,
    seed: u64,
    check_memory: bool,
    infinite_links: bool,
    faults: Option<FaultPlan>,
    steps: usize,
    obs: Obs,
    /// Out-edge index, built once: `out_edges[out_start[u]..out_start[u +
    /// 1]]` are the indices into [`FrozenGraph::edges`] of op `u`'s
    /// out-edges, in edge-list order.
    out_start: Vec<usize>,
    out_edges: Vec<usize>,
    /// The link each cross-device transfer takes, built once.
    routes: Routes,
}

/// With K steps every op (and every edge) is instantiated K times. Events
/// and queued transfers carry an instance as its `(step, index)` pair, and
/// per-instance state is stored flat at `step * n + index`, so the event
/// loop multiplies to reach it but never divides.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    OpFinish { step: u32, op: u32 },
    TransferFinish { link: u32, step: u32, edge: u32 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone, Copy)]
struct QueuedTransfer {
    step: u32,
    edge: u32,
    queued_us: f64,
}

/// An event of [`Simulator::makespan`]'s single-step loop: an [`Event`]
/// in 16 bytes rather than 32, for the heap to move and compare. `key`
/// holds `seq` in its high 32 bits, so it orders ties as `seq` does, and
/// in its low 32 bits the finished op's index, or the transferred edge's
/// index with [`TRANSFER`] set.
#[derive(Debug, Clone, Copy)]
struct Tick {
    time: f64,
    key: u64,
}

/// The bit of a [`Tick`]'s low half that marks a transfer.
const TRANSFER: u32 = 1 << 31;

impl Tick {
    fn new(time: f64, seq: u32, what: u32) -> Self {
        Tick {
            time,
            key: (u64::from(seq) << 32) | u64::from(what),
        }
    }

    fn what(self) -> u32 {
        self.key as u32
    }
}

impl PartialEq for Tick {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl Eq for Tick {}
impl PartialOrd for Tick {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tick {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, as for `Event`.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// The buffers of [`Simulator::makespan`]. Each call clears and refills
/// them, so a caller that scores many plans with one scratch allocates
/// only while the buffers grow.
#[derive(Debug, Clone, Default)]
pub struct MakespanScratch {
    /// Per op, its inputs not yet arrived ([`UNLISTED`] while validation
    /// has not met the op in the order).
    pending: Vec<u32>,
    /// Per device, the position in its order of the next op to dispatch.
    next: Vec<usize>,
    device_busy: Vec<bool>,
    link_busy: Vec<bool>,
    /// Per link, the edges whose transfers wait for it, first come first.
    link_queue: Vec<VecDeque<u32>>,
    heap: BinaryHeap<Tick>,
}

/// [`MakespanScratch::pending`] of an op no device's order has listed yet.
const UNLISTED: u32 = u32::MAX;

impl<'a> Simulator<'a> {
    /// Creates a simulator for a graph on a cluster with the given
    /// communication model. Memory checking is on by default.
    ///
    /// The graph's out-edge index and the cluster's device-pair link table
    /// ([`Simulator::routes`]) are built here, once, so that runs of many
    /// plans of one graph do not rebuild them.
    pub fn new(graph: &'a FrozenGraph, cluster: &'a Cluster, comm: CommModel) -> Self {
        let edges = graph.edges();
        let mut out_start = vec![0usize; graph.op_count() + 1];
        for &(u, _, _) in edges {
            out_start[u.index() + 1] += 1;
        }
        for i in 1..out_start.len() {
            out_start[i] += out_start[i - 1];
        }
        let mut next = out_start.clone();
        let mut out_edges = vec![0usize; edges.len()];
        for (idx, &(u, _, _)) in edges.iter().enumerate() {
            out_edges[next[u.index()]] = idx;
            next[u.index()] += 1;
        }
        Simulator {
            graph,
            cluster,
            comm,
            seed: 0,
            check_memory: true,
            infinite_links: false,
            faults: None,
            steps: 1,
            obs: Obs::disabled(),
            out_start,
            out_edges,
            routes: Routes::new(cluster),
        }
    }

    /// The device-pair → link table this simulator routes transfers
    /// through, for list schedulers that estimate the same transfers.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Sets the RNG seed used by the TensorFlow-default random-ready-queue
    /// policy (only relevant for plans without an explicit order).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the OOM check (useful for what-if runs).
    #[must_use]
    pub fn with_memory_check(mut self, check: bool) -> Self {
        self.check_memory = check;
        self
    }

    /// Simulates `steps` consecutive training steps as a pipeline.
    ///
    /// Every op is instantiated once per step. An op's step-`s+1` instance
    /// waits for its own step-`s` instance to finish, and every weight-update
    /// op acts as a per-step barrier: the ops it gates
    /// ([`FrozenGraph::step_barrier_targets`]) may not start step `s+1`
    /// before the update has finished step `s` — step `s+1` must not read a
    /// weight step `s` has yet to write. Devices stay non-preemptive and
    /// links FCFS across step boundaries, so step `s+1`'s forward work
    /// overlaps step `s`'s backward work wherever resources allow; the
    /// result measures steady-state training throughput instead of one-step
    /// latency. Explicit schedule orders are replayed cyclically, once per
    /// step.
    ///
    /// Memory is accounted as double-buffered: with `steps > 1` each device
    /// must hold two steps' buffers at once (the draining and the filling
    /// step), so the OOM precheck doubles per-device usage.
    ///
    /// `steps = 1` (the default) is exactly the single-step simulator;
    /// values below 1 are treated as 1. With `steps > 1` the report carries
    /// [`SimReport::pipeline`] with the per-step breakdown.
    #[must_use]
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps.max(1);
        self
    }

    /// Models links with *infinite* capacity: transfers start the moment
    /// they are enqueued and never queue behind each other. This is the
    /// congestion-free assumption most prior DAG-scheduling work makes
    /// (paper §3.2.2) and exists to reproduce the Figure 5 ablation; the
    /// default FCFS behaviour is the faithful model.
    ///
    /// Reported [`SimReport::link_busy_us`] is wall-clock link occupancy —
    /// the union of concurrent transfer intervals, not their sum — so link
    /// utilization never exceeds 100% even when transfers overlap.
    #[must_use]
    pub fn with_infinite_links(mut self, infinite: bool) -> Self {
        self.infinite_links = infinite;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into the run: stragglers and
    /// jitter stretch op durations, degraded links and stall windows stretch
    /// transfers, and outages kill devices mid-step. The resulting
    /// [`SimReport::faults`] attributes the injected delay per fault class.
    ///
    /// Outage semantics: a device with an outage at time `t` is dead **at
    /// and after** `t` — it dispatches nothing from `t` on, and an op that
    /// would finish at or after `t` is lost ([`SimError::DeviceLost`]).
    ///
    /// Fault windows are expressed in absolute simulation time, so under
    /// [`Simulator::with_steps`] they naturally span step boundaries (a
    /// link stall can straddle the end of step `s` and the start of step
    /// `s+1`). Compute jitter is drawn independently per op *instance*, so
    /// each step sees fresh jitter from the same seeded stream.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a telemetry sink. An enabled handle receives a `sim.run`
    /// span, `sim.op_us` / `sim.queue_delay_us` / `sim.link_queue_depth`
    /// histograms, and per-device busy-time gauges; the default disabled
    /// handle keeps the event loop free of recording.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Simulates the configured number of training steps (one by default).
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidPlan`] if the plan fails validation;
    /// * [`SimError::OutOfMemory`] if any device's memory capacity is
    ///   exceeded (and checking is enabled) — double-buffered when
    ///   pipelining, see [`Simulator::with_steps`];
    /// * [`SimError::Deadlock`] if an explicit schedule order makes some op
    ///   permanently unready;
    /// * [`SimError::DeviceLost`] if an injected outage kills a device
    ///   before all of its ops finish;
    /// * [`SimError::MissingLink`] if the plan needs a transfer between
    ///   devices the cluster does not connect.
    pub fn run(&self, plan: &Plan) -> Result<SimReport, SimError> {
        plan.validate(self.graph, self.cluster)?;
        let steps = self.steps.max(1);
        let mut sim_span = self.obs.span("sim.run");
        sim_span.set_attr("ops", self.graph.op_count());
        sim_span.set_attr("steps", steps);
        if self.check_memory {
            // Pipelined steps are double-buffered: the draining and the
            // filling step both hold their buffers.
            let buffers: u64 = if steps > 1 { 2 } else { 1 };
            let oom: Vec<DeviceId> = plan
                .placement
                .memory_per_device(self.graph, self.cluster)
                .iter()
                .enumerate()
                .filter(|&(d, &used)| {
                    used.saturating_mul(buffers) > self.cluster.devices()[d].memory_bytes()
                })
                .map(|(d, _)| DeviceId::from_index(d))
                .collect();
            if !oom.is_empty() {
                return Err(SimError::OutOfMemory(oom));
            }
        }

        let n = self.graph.op_count();
        let n_dev = self.cluster.device_count();
        let n_link = self.cluster.link_count();
        let edges = self.graph.edges();
        let n_edge = edges.len();
        // Instance counts: op instance `s * n + i`, edge instance
        // `s * n_edge + e`.
        let n_inst = n * steps;

        // Inter-step barriers: each weight update gates a set of next-step
        // ops. `extra_pending[i]` counts the barriers gating op `i`.
        let barrier_targets: Vec<(usize, Vec<OpId>)> = if steps > 1 {
            self.graph
                .weight_update_ops()
                .into_iter()
                .map(|w| (w.index(), self.graph.step_barrier_targets(w)))
                .collect()
        } else {
            Vec::new()
        };
        let pipelined_ops = if steps > 1 { n } else { 0 };
        let mut extra_pending = vec![0usize; pipelined_ops];
        for (_, targets) in &barrier_targets {
            for t in targets {
                extra_pending[t.index()] += 1;
            }
        }
        let mut barrier_of: Vec<Vec<usize>> = vec![Vec::new(); pipelined_ops];
        for (w, targets) in &barrier_targets {
            barrier_of[*w] = targets.iter().map(|t| t.index()).collect();
        }

        // A step-s+1 instance additionally waits on its own step-s instance
        // (+1) and on every barrier gating it.
        let mut pending_inputs: Vec<usize> = Vec::with_capacity(n_inst);
        for step in 0..steps {
            pending_inputs.extend((0..n).map(|i| {
                let base = self.graph.in_degree(OpId::from_index(i));
                if step == 0 {
                    base
                } else {
                    base + 1 + extra_pending[i]
                }
            }));
        }
        let mut ready = vec![false; n_inst];
        let mut started = vec![false; n_inst];
        let mut completed = 0usize;

        // Scheduling state. Only the random-ready policy of plans without
        // an explicit order draws from the per-device ready pools, which
        // hold `(step, op)` pairs. Each device's explicit order replays
        // once per step; its pointer is the `(cycle, position)` of the next
        // op to dispatch.
        let ordered = plan.order.as_ref();
        let mut order_ptr = vec![(0usize, 0usize); n_dev];
        let mut ready_pool: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_dev];
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut device_busy = vec![false; n_dev];
        let mut link_busy = vec![false; n_link];
        let mut link_queue: Vec<VecDeque<QueuedTransfer>> = vec![VecDeque::new(); n_link];

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;

        // Fault state. With no plan injected nothing is allocated, and
        // every lookup below reads the neutral value (1.0, no outage).
        // Jitter is per op *instance*: each pipelined step draws fresh
        // jitter.
        let faults = self.faults.as_ref().filter(|f| !f.is_empty());
        let (jitter, slowdown, degradation, outage): (
            Vec<f64>,
            Vec<f64>,
            Vec<f64>,
            Vec<Option<f64>>,
        ) = match faults {
            Some(f) => (
                f.jitter_factors(n_inst),
                (0..n_dev)
                    .map(|d| f.slowdown(DeviceId::from_index(d)))
                    .collect(),
                (0..n_link)
                    .map(|l| f.degradation(LinkId::from_index(l)))
                    .collect(),
                (0..n_dev)
                    .map(|d| f.outage_at(DeviceId::from_index(d)))
                    .collect(),
            ),
            None => Default::default(),
        };
        let factor = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(1.0);
        let outage_at = |d: usize| outage.get(d).copied().flatten();
        // Single definition of outage death: a device is dead at and after
        // its outage instant. Dispatch and op completion both use it.
        let device_dead = |d: usize, t: f64| outage_at(d).is_some_and(|o| t >= o);
        let mut attribution = FaultAttribution::default();

        let mut op_start = vec![f64::NAN; n_inst];
        let mut op_spans: Vec<OpSpan> = Vec::with_capacity(n_inst);
        let mut transfer_spans: Vec<TransferSpan> = Vec::new();
        let mut transfer_start = vec![f64::NAN; n_edge * steps];
        let mut transfer_queued = vec![f64::NAN; n_edge * steps];
        let mut device_busy_us = vec![0.0; n_dev];
        let mut link_busy_us = vec![0.0; n_link];
        // With infinite links transfers overlap, so busy time must be the
        // union of intervals, not the sum of durations (the FCFS path never
        // overlaps and keeps the exact accumulation).
        let mut link_intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_link];
        // Completion time of the last op of each step.
        let mut step_finish = vec![0.0f64; steps];

        // Initially ready ops: only step-0 instances can have zero pending.
        for i in 0..n {
            if pending_inputs[i] == 0 {
                ready[i] = true;
                if ordered.is_none() {
                    ready_pool[plan.placement.device(OpId::from_index(i)).index()]
                        .push((0, i as u32));
                }
            }
        }

        // Dispatch helper as a closure is awkward with borrows; use a macro.
        macro_rules! try_dispatch {
            ($dev:expr, $now:expr) => {{
                let d: usize = $dev;
                if !device_busy[d] && !device_dead(d, $now) {
                    let next: Option<(u32, u32)> = match ordered {
                        Some(order) => {
                            // The per-device list replays cyclically, once
                            // per step.
                            let list = order.on_device(DeviceId::from_index(d));
                            let (cycle, pos) = order_ptr[d];
                            if list.is_empty() || cycle >= steps {
                                None
                            } else {
                                let op = list[pos].index();
                                if ready[cycle * n + op] {
                                    order_ptr[d] = if pos + 1 == list.len() {
                                        (cycle + 1, 0)
                                    } else {
                                        (cycle, pos + 1)
                                    };
                                    Some((cycle as u32, op as u32))
                                } else {
                                    None
                                }
                            }
                        }
                        None => {
                            if ready_pool[d].is_empty() {
                                None
                            } else {
                                // TensorFlow's default policy (§2.1): pick a
                                // uniformly random ready op.
                                let k = rng.gen_range(0..ready_pool[d].len());
                                Some(ready_pool[d].swap_remove(k))
                            }
                        }
                    };
                    if let Some((step, op)) = next {
                        let inst = step as usize * n + op as usize;
                        debug_assert!(!started[inst]);
                        started[inst] = true;
                        device_busy[d] = true;
                        let base = self.graph.op(OpId::from_index(op as usize)).compute_us();
                        let s = factor(&slowdown, d);
                        let j = factor(&jitter, inst);
                        let dur = base * s * j;
                        attribution.straggler_extra_us += base * j * (s - 1.0);
                        attribution.jitter_extra_us += base * (j - 1.0);
                        op_start[inst] = $now;
                        device_busy_us[d] += dur;
                        seq += 1;
                        heap.push(Event {
                            time: $now + dur,
                            seq,
                            kind: EventKind::OpFinish { step, op },
                        });
                    }
                }
            }};
        }

        macro_rules! try_start_link {
            ($link:expr, $now:expr) => {{
                let l: usize = $link;
                while self.infinite_links || !link_busy[l] {
                    let Some(qt) = link_queue[l].pop_front() else {
                        break;
                    };
                    {
                        let (_, _, bytes) = edges[qt.edge as usize];
                        let einst = qt.step as usize * n_edge + qt.edge as usize;
                        let link_info = self.cluster.link(LinkId::from_index(l));
                        let begin = match faults {
                            Some(f) => f.stall_clear_time(LinkId::from_index(l), $now),
                            None => $now,
                        };
                        attribution.stall_delay_us += begin - $now;
                        let nominal =
                            self.comm.transfer_us(link_info.link_type(), bytes) / link_info.speed();
                        let dur = nominal / factor(&degradation, l);
                        attribution.degraded_transfer_extra_us += dur - nominal;
                        link_busy[l] = !self.infinite_links;
                        transfer_start[einst] = begin;
                        transfer_queued[einst] = qt.queued_us;
                        if self.infinite_links {
                            link_intervals[l].push((begin, begin + dur));
                        } else {
                            link_busy_us[l] += dur;
                        }
                        seq += 1;
                        heap.push(Event {
                            time: begin + dur,
                            seq,
                            kind: EventKind::TransferFinish {
                                link: l as u32,
                                step: qt.step,
                                edge: qt.edge,
                            },
                        });
                    }
                }
            }};
        }

        macro_rules! arrive {
            ($step:expr, $op:expr, $now:expr) => {{
                let (step, op): (usize, usize) = ($step, $op);
                let vi = step * n + op;
                pending_inputs[vi] -= 1;
                if pending_inputs[vi] == 0 {
                    ready[vi] = true;
                    let d = plan.placement.device(OpId::from_index(op)).index();
                    if ordered.is_none() {
                        ready_pool[d].push((step as u32, op as u32));
                    }
                    try_dispatch!(d, $now);
                }
            }};
        }

        for d in 0..n_dev {
            try_dispatch!(d, 0.0);
        }

        let mut makespan = 0.0f64;
        while let Some(ev) = heap.pop() {
            let now = ev.time;
            makespan = makespan.max(now);
            match ev.kind {
                EventKind::OpFinish { step, op } => {
                    let (step, inst) = (step as usize, step as usize * n + op as usize);
                    let op = OpId::from_index(op as usize);
                    let dev = plan.placement.device(op);
                    // Dead at and after the outage instant: work completing
                    // exactly at t is already lost.
                    if device_dead(dev.index(), now) {
                        return Err(SimError::DeviceLost {
                            device: dev,
                            at_us: outage_at(dev.index()).expect("dead implies outage"),
                            op,
                        });
                    }
                    device_busy[dev.index()] = false;
                    completed += 1;
                    step_finish[step] = step_finish[step].max(now);
                    op_spans.push(OpSpan {
                        op,
                        device: dev,
                        start_us: op_start[inst],
                        finish_us: now,
                        step: step as u32,
                    });
                    let out = self.out_start[op.index()]..self.out_start[op.index() + 1];
                    for &edge_idx in &self.out_edges[out] {
                        let (_, v, _) = edges[edge_idx];
                        let vdev = plan.placement.device(v);
                        if vdev == dev {
                            arrive!(step, v.index(), now);
                        } else {
                            let link = self.routes.get(dev, vdev)?.link;
                            link_queue[link.index()].push_back(QueuedTransfer {
                                step: step as u32,
                                edge: edge_idx as u32,
                                queued_us: now,
                            });
                            if self.obs.is_enabled() {
                                self.obs.observe(
                                    "sim.link_queue_depth",
                                    link_queue[link.index()].len() as f64,
                                );
                            }
                            try_start_link!(link.index(), now);
                        }
                    }
                    if step + 1 < steps {
                        // The op's own next-step instance may now start…
                        arrive!(step + 1, op.index(), now);
                        // …and a finished weight update releases its barrier
                        // on the next step's gated ops.
                        for &target in &barrier_of[op.index()] {
                            arrive!(step + 1, target, now);
                        }
                    }
                    try_dispatch!(dev.index(), now);
                }
                EventKind::TransferFinish { link, step, edge } => {
                    let (link, step, edge) = (link as usize, step as usize, edge as usize);
                    link_busy[link] = false;
                    let einst = step * n_edge + edge;
                    let (u, v, bytes) = edges[edge];
                    transfer_spans.push(TransferSpan {
                        link: LinkId::from_index(link),
                        src: u,
                        dst: v,
                        bytes,
                        queued_us: transfer_queued[einst],
                        start_us: transfer_start[einst],
                        finish_us: now,
                        step: step as u32,
                    });
                    try_start_link!(link, now);
                    arrive!(step, v.index(), now);
                }
            }
        }

        if completed < n_inst {
            // An injected outage that stranded unstarted ops is a device
            // loss, not a scheduling deadlock.
            for (inst, _) in started.iter().enumerate().filter(|&(_, &s)| !s) {
                let op = OpId::from_index(inst % n);
                let dev = plan.placement.device(op);
                if let Some(t) = outage_at(dev.index()) {
                    return Err(SimError::DeviceLost {
                        device: dev,
                        at_us: t,
                        op,
                    });
                }
            }
            // With an explicit order, the root cause is the op wedged at the
            // head of some device queue: scheduled next but never ready.
            let blocked = ordered
                .and_then(|order| {
                    (0..n_dev).find_map(|d| {
                        let list = order.on_device(DeviceId::from_index(d));
                        let (cycle, pos) = order_ptr[d];
                        if list.is_empty() || cycle >= steps {
                            return None;
                        }
                        let op = list[pos];
                        (!started[cycle * n + op.index()]).then_some(op)
                    })
                })
                .or_else(|| {
                    (0..n_inst)
                        .find(|&inst| !started[inst])
                        .map(|inst| OpId::from_index(inst % n))
                })
                .expect("unfinished implies an unstarted op");
            return Err(SimError::Deadlock(blocked));
        }

        if self.infinite_links {
            for (l, intervals) in link_intervals.iter_mut().enumerate() {
                link_busy_us[l] = interval_union_us(intervals);
            }
        }

        if self.obs.is_enabled() {
            sim_span.set_attr("makespan_us", format!("{makespan:.3}"));
            for span in &op_spans {
                self.obs
                    .observe("sim.op_us", span.finish_us - span.start_us);
            }
            for t in &transfer_spans {
                self.obs.observe("sim.queue_delay_us", t.queue_delay_us());
            }
            for (d, &busy) in device_busy_us.iter().enumerate() {
                self.obs
                    .gauge_set(&format!("sim.device_busy_us.d{d}"), busy);
            }
            for (l, &busy) in link_busy_us.iter().enumerate() {
                self.obs.gauge_set(&format!("sim.link_busy_us.l{l}"), busy);
            }
        }

        let pipeline = (steps > 1).then(|| PipelineStats {
            steps,
            fill_us: step_finish[0],
            steady_step_us: median_gap(&step_finish),
            drain_us: makespan - step_finish[steps - 2],
            step_finish_us: step_finish,
        });

        Ok(SimReport {
            makespan_us: makespan,
            op_spans,
            transfer_spans,
            device_busy_us,
            link_busy_us,
            faults: attribution,
            pipeline,
        })
    }

    /// The makespan [`Simulator::run`] reports for `placement` dispatched
    /// in `order` (one list per device, indexed by [`DeviceId::index`]),
    /// or the error it returns, computed without building a [`Plan`] or a
    /// report.
    ///
    /// A simulator with faults, more than one step, the memory check or
    /// telemetry answers with `run`. Otherwise one event loop runs the
    /// single step in `scratch`'s buffers, keeping only what decides event
    /// times: pending-input counts, each device's order position and busy
    /// flag, each link's busy flag and FCFS queue, and the event heap. It
    /// validates as [`Plan::validate`] does and pushes the events `run`
    /// pushes, in `run`'s order and at the same times: with no faults,
    /// `run` scales each duration by exactly 1.0 and starts each transfer
    /// at the current time. Both heaps break time ties by push order, so
    /// they pop the same events in the same order, and the makespan has
    /// `run`'s bits.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`] of `Plan::with_order(placement, order)`; on
    /// the event loop, [`SimError::InvalidPlan`], [`SimError::MissingLink`]
    /// or [`SimError::Deadlock`].
    pub fn makespan(
        &self,
        placement: &Placement,
        order: &[Vec<OpId>],
        scratch: &mut MakespanScratch,
    ) -> Result<f64, SimError> {
        if self.faults.is_some() || self.steps > 1 || self.check_memory || self.obs.is_enabled() {
            let order = ScheduleOrder::from_vecs(order.to_vec());
            return Ok(self
                .run(&Plan::with_order(placement.clone(), order))?
                .makespan_us);
        }
        let graph = self.graph;
        let n = graph.op_count();
        let n_dev = self.cluster.device_count();
        let n_link = self.cluster.link_count();
        let edges = graph.edges();
        // Each op and each cross-device edge pushes at most one event, so
        // `seq` and `what` fit in 31 bits.
        assert!(
            n + edges.len() < TRANSFER as usize,
            "graph too large for the makespan loop"
        );
        placement.validate(graph, self.cluster)?;
        if order.len() != n_dev {
            return Err(GraphError::UnknownDevice(order.len() as u32).into());
        }
        let MakespanScratch {
            pending,
            next,
            device_busy,
            link_busy,
            link_queue,
            heap,
        } = scratch;
        // `ScheduleOrder::validate`: each op listed once, on its own
        // device. Listing an op sets its pending-input count.
        pending.clear();
        pending.resize(n, UNLISTED);
        for (d, list) in order.iter().enumerate() {
            for &op in list {
                if op.index() >= n
                    || pending[op.index()] != UNLISTED
                    || placement.device(op).index() != d
                {
                    return Err(GraphError::UnknownOp(op).into());
                }
                pending[op.index()] = graph.in_degree(op) as u32;
            }
        }
        if let Some(missing) = pending.iter().position(|&p| p == UNLISTED) {
            return Err(GraphError::UnknownOp(OpId::from_index(missing)).into());
        }
        next.clear();
        next.resize(n_dev, 0);
        device_busy.clear();
        device_busy.resize(n_dev, false);
        link_busy.clear();
        link_busy.resize(n_link, false);
        link_queue.resize_with(n_link, VecDeque::new);
        link_queue.iter_mut().for_each(VecDeque::clear);
        heap.clear();
        let mut seq = 0u32;

        // `run`'s `try_dispatch`, `try_start_link` and `arrive` for one
        // step, an explicit order and no faults.
        macro_rules! dispatch {
            ($dev:expr, $now:expr) => {{
                let d: usize = $dev;
                let list = &order[d];
                if !device_busy[d] && next[d] < list.len() && pending[list[next[d]].index()] == 0 {
                    let op = list[next[d]];
                    next[d] += 1;
                    device_busy[d] = true;
                    seq += 1;
                    heap.push(Tick::new(
                        $now + graph.op(op).compute_us(),
                        seq,
                        op.index() as u32,
                    ));
                }
            }};
        }

        macro_rules! start_link {
            ($link:expr, $now:expr) => {{
                let l: usize = $link;
                while self.infinite_links || !link_busy[l] {
                    let Some(edge) = link_queue[l].pop_front() else {
                        break;
                    };
                    let (_, _, bytes) = edges[edge as usize];
                    let link_info = self.cluster.link(LinkId::from_index(l));
                    let dur =
                        self.comm.transfer_us(link_info.link_type(), bytes) / link_info.speed();
                    link_busy[l] = !self.infinite_links;
                    seq += 1;
                    heap.push(Tick::new($now + dur, seq, TRANSFER | edge));
                }
            }};
        }

        macro_rules! arrive {
            ($op:expr, $now:expr) => {{
                let v: OpId = $op;
                pending[v.index()] -= 1;
                if pending[v.index()] == 0 {
                    dispatch!(placement.device(v).index(), $now);
                }
            }};
        }

        for d in 0..n_dev {
            dispatch!(d, 0.0);
        }
        let mut makespan = 0.0f64;
        while let Some(tick) = heap.pop() {
            let (now, what) = (tick.time, tick.what());
            makespan = makespan.max(now);
            if what & TRANSFER == 0 {
                let u = what as usize;
                let dev = placement.device(OpId::from_index(u));
                device_busy[dev.index()] = false;
                for &edge_idx in &self.out_edges[self.out_start[u]..self.out_start[u + 1]] {
                    let (_, v, _) = edges[edge_idx];
                    let vdev = placement.device(v);
                    if vdev == dev {
                        arrive!(v, now);
                    } else {
                        let link = self.routes.get(dev, vdev)?.link.index();
                        link_queue[link].push_back(edge_idx as u32);
                        start_link!(link, now);
                    }
                }
                dispatch!(dev.index(), now);
            } else {
                let (u, v, _) = edges[(what & !TRANSFER) as usize];
                let link = self
                    .routes
                    .get(placement.device(u), placement.device(v))
                    .expect("a started transfer has a route")
                    .link
                    .index();
                link_busy[link] = false;
                start_link!(link, now);
                arrive!(v, now);
            }
        }

        // Every listed op ran once its device's position passed it, so ops
        // remain only behind a head that never became ready.
        match (0..n_dev).find(|&d| next[d] < order[d].len()) {
            Some(d) => Err(SimError::Deadlock(order[d][next[d]])),
            None => Ok(makespan),
        }
    }
}

/// Total length of the union of (possibly overlapping) intervals.
fn interval_union_us(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, f) in intervals.iter() {
        match current {
            Some((cs, cf)) if s <= cf => current = Some((cs, cf.max(f))),
            Some((cs, cf)) => {
                total += cf - cs;
                current = Some((s, f));
            }
            None => current = Some((s, f)),
        }
    }
    if let Some((cs, cf)) = current {
        total += cf - cs;
    }
    total
}

/// Median gap between consecutive step completion times — the steady-state
/// step time of the pipeline.
fn median_gap(step_finish: &[f64]) -> f64 {
    let mut gaps: Vec<f64> = step_finish.windows(2).map(|w| w[1] - w[0]).collect();
    if gaps.is_empty() {
        return step_finish.first().copied().unwrap_or(0.0);
    }
    gaps.sort_by(f64::total_cmp);
    let m = gaps.len();
    if m % 2 == 1 {
        gaps[m / 2]
    } else {
        (gaps[m / 2 - 1] + gaps[m / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph, Placement, ScheduleOrder};

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    /// a -> b -> c chain of GPU ops, 10 µs each, 1 MiB tensors.
    fn chain3() -> FrozenGraph {
        let mut g = OpGraph::new("chain3");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 1024);
        let b = g.add_op("b", DeviceKind::Gpu, 10.0, 1024);
        let c = g.add_op("c", DeviceKind::Gpu, 10.0, 1024);
        g.add_edge(a, b, 1 << 20).unwrap();
        g.add_edge(b, c, 1 << 20).unwrap();
        g.freeze().unwrap()
    }

    #[test]
    fn same_device_chain_has_no_transfers() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let r = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        assert!((r.makespan_us - 30.0).abs() < 1e-9);
        assert!(r.transfer_spans.is_empty());
        assert!((r.device_utilization(cluster.gpu(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_device_edge_pays_transfer_time() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let mut p = Placement::affinity_default(&g, &cluster);
        p.set_device(OpId::from_index(2), cluster.gpu(1));
        let plan = Plan::placement_only(p);
        let r = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        let t = comm().transfer_us(pesto_graph::LinkType::GpuToGpu, 1 << 20);
        assert!((r.makespan_us - (30.0 + t)).abs() < 1e-6);
        assert_eq!(r.transfer_spans.len(), 1);
        assert_eq!(r.transfer_spans[0].bytes, 1 << 20);
    }

    #[test]
    fn fcfs_link_congestion_delays_second_transfer() {
        // Two producers on gpu0 feed two consumers on gpu1; the two
        // transfers share the gpu0->gpu1 link and must serialize.
        let mut g = OpGraph::new("fanout");
        let p1 = g.add_op("p1", DeviceKind::Gpu, 5.0, 0);
        let p2 = g.add_op("p2", DeviceKind::Gpu, 10.0, 0);
        let c1 = g.add_op("c1", DeviceKind::Gpu, 1.0, 0);
        let c2 = g.add_op("c2", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(p1, c1, 4 << 20).unwrap();
        g.add_edge(p2, c2, 4 << 20).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let mut placement = Placement::affinity_default(&g, &cluster);
        placement.set_device(OpId::from_index(2), cluster.gpu(1));
        placement.set_device(OpId::from_index(3), cluster.gpu(1));
        // Explicit order so p1, p2 run serially on gpu0 in that order.
        let order =
            ScheduleOrder::from_global_order(&placement, g.topo_order(), cluster.device_count());
        let r = Simulator::new(&g, &cluster, comm())
            .run(&Plan::with_order(placement, order))
            .unwrap();
        let t = comm().transfer_us(pesto_graph::LinkType::GpuToGpu, 4 << 20);
        // p1 done at 5, transfer1 runs [5, 5+t]; p2 done at 15; if 5+t > 15
        // the second transfer queues.
        assert!(t > 10.0, "test premise: transfer longer than p2's tail");
        let delayed = r
            .transfer_spans
            .iter()
            .find(|s| s.src == OpId::from_index(1))
            .unwrap();
        assert!(delayed.queue_delay_us() > 0.0, "second transfer must queue");
        assert!((delayed.start_us - (5.0 + t)).abs() < 1e-6);
    }

    #[test]
    fn parallel_branches_overlap_across_gpus() {
        // root -> (x, y) -> sink; x and y are heavy and independent.
        let mut g = OpGraph::new("branch");
        let root = g.add_op("root", DeviceKind::Gpu, 1.0, 0);
        let x = g.add_op("x", DeviceKind::Gpu, 100.0, 0);
        let y = g.add_op("y", DeviceKind::Gpu, 100.0, 0);
        let sink = g.add_op("sink", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(root, x, 1024).unwrap();
        g.add_edge(root, y, 1024).unwrap();
        g.add_edge(x, sink, 1024).unwrap();
        g.add_edge(y, sink, 1024).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();

        let serial = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let serial_time = Simulator::new(&g, &cluster, comm())
            .run(&serial)
            .unwrap()
            .makespan_us;

        let mut spread = Placement::affinity_default(&g, &cluster);
        spread.set_device(OpId::from_index(2), cluster.gpu(1));
        let par_time = Simulator::new(&g, &cluster, comm())
            .run(&Plan::placement_only(spread))
            .unwrap()
            .makespan_us;
        assert!(
            par_time < serial_time,
            "parallel {par_time} should beat serial {serial_time}"
        );
    }

    #[test]
    fn explicit_order_is_respected() {
        // Two independent ops on one GPU; order forces the slow one first.
        let mut g = OpGraph::new("two");
        let fast = g.add_op("fast", DeviceKind::Gpu, 1.0, 0);
        let slow = g.add_op("slow", DeviceKind::Gpu, 50.0, 0);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let placement = Placement::affinity_default(&g, &cluster);
        let order = ScheduleOrder::from_vecs(vec![vec![], vec![slow, fast], vec![]]);
        let r = Simulator::new(&g, &cluster, comm())
            .run(&Plan::with_order(placement, order))
            .unwrap();
        assert_eq!(r.op_start_us(slow), Some(0.0));
        assert_eq!(r.op_start_us(fast), Some(50.0));
    }

    #[test]
    fn contradictory_order_deadlocks() {
        // b depends on a, but the order puts b before a on the same device:
        // b never becomes ready at the head of the queue.
        let mut g = OpGraph::new("dead");
        let a = g.add_op("a", DeviceKind::Gpu, 1.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(a, b, 1).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let placement = Placement::affinity_default(&g, &cluster);
        let order = ScheduleOrder::from_vecs(vec![vec![], vec![b, a], vec![]]);
        let err = Simulator::new(&g, &cluster, comm())
            .run(&Plan::with_order(placement, order))
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)));
    }

    #[test]
    fn oom_is_reported() {
        let mut g = OpGraph::new("fat");
        g.add_op("huge", DeviceKind::Gpu, 1.0, 64 * 1024 * 1024 * 1024);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let err = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap_err();
        assert_eq!(err, SimError::OutOfMemory(vec![cluster.gpu(0)]));
        // With checking disabled the run succeeds.
        let r = Simulator::new(&g, &cluster, comm())
            .with_memory_check(false)
            .run(&plan)
            .unwrap();
        assert!((r.makespan_us - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pipelined_memory_is_double_buffered() {
        // 10 GiB fits a 16 GiB GPU once but not double-buffered.
        let mut g = OpGraph::new("big");
        g.add_op("big", DeviceKind::Gpu, 1.0, 10 * (1u64 << 30));
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        assert!(Simulator::new(&g, &cluster, comm()).run(&plan).is_ok());
        let err = Simulator::new(&g, &cluster, comm())
            .with_steps(2)
            .run(&plan)
            .unwrap_err();
        assert_eq!(err, SimError::OutOfMemory(vec![cluster.gpu(0)]));
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let mut g = OpGraph::new("many");
        for i in 0..20 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, (i + 1) as f64, 0);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let sim = |seed| {
            Simulator::new(&g, &cluster, comm())
                .with_seed(seed)
                .run(&plan)
                .unwrap()
        };
        assert_eq!(sim(1), sim(1));
        // All on one device, makespan is the same regardless of order.
        assert!((sim(1).makespan_us - sim(2).makespan_us).abs() < 1e-9);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let p = Placement::uniform(g.op_count(), cluster.cpu()); // GPU ops on CPU
        let err = Simulator::new(&g, &cluster, comm())
            .run(&Plan::placement_only(p))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)));
    }

    #[test]
    fn zero_byte_cross_device_edge_still_costs_latency() {
        let mut g = OpGraph::new("ctl");
        let a = g.add_op("a", DeviceKind::Gpu, 1.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(a, b, 0).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let mut p = Placement::affinity_default(&g, &cluster);
        p.set_device(OpId::from_index(1), cluster.gpu(1));
        let r = Simulator::new(&g, &cluster, comm())
            .run(&Plan::placement_only(p))
            .unwrap();
        assert!(r.makespan_us > 2.0, "latency beta0 must apply");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_clean_run() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let clean = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        let faulted = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(1))
            .run(&plan)
            .unwrap();
        assert_eq!(clean, faulted);
        assert_eq!(faulted.faults, FaultAttribution::default());
    }

    #[test]
    fn straggler_on_critical_device_hurts_but_idle_device_does_not() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        // Whole chain on gpu0; gpu1 is idle.
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let clean = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();

        let slow_critical = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_straggler(cluster.gpu(0), 2.0))
            .run(&plan)
            .unwrap();
        assert!(
            slow_critical.makespan_us > clean.makespan_us,
            "straggler on the critical-path device must increase makespan"
        );
        assert!((slow_critical.makespan_us - 2.0 * clean.makespan_us).abs() < 1e-9);
        assert!((slow_critical.faults.straggler_extra_us - clean.makespan_us).abs() < 1e-9);

        let slow_idle = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_straggler(cluster.gpu(1), 4.0))
            .run(&plan)
            .unwrap();
        assert!(
            (slow_idle.makespan_us - clean.makespan_us).abs() < 1e-12,
            "a fault on an idle device must not change the makespan"
        );
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let run = |seed| {
            Simulator::new(&g, &cluster, comm())
                .with_faults(FaultPlan::new(seed).with_compute_jitter(0.3))
                .run(&plan)
                .unwrap()
        };
        assert_eq!(run(11), run(11));
        assert!((run(11).makespan_us - run(12).makespan_us).abs() > 1e-9);
    }

    #[test]
    fn link_stall_delays_transfer_and_is_attributed() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let mut p = Placement::affinity_default(&g, &cluster);
        p.set_device(OpId::from_index(2), cluster.gpu(1));
        let plan = Plan::placement_only(p);
        let link = cluster
            .link_between(cluster.gpu(0), cluster.gpu(1))
            .unwrap();
        let clean = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        // b finishes at 20; stall the link over [10, 60).
        let stalled = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_link_stall(link, 10.0, 50.0))
            .run(&plan)
            .unwrap();
        assert!((stalled.faults.stall_delay_us - 40.0).abs() < 1e-9);
        assert!((stalled.makespan_us - (clean.makespan_us + 40.0)).abs() < 1e-6);
        assert!((stalled.transfer_spans[0].start_us - 60.0).abs() < 1e-9);
    }

    #[test]
    fn link_degradation_stretches_transfers() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let mut p = Placement::affinity_default(&g, &cluster);
        p.set_device(OpId::from_index(2), cluster.gpu(1));
        let plan = Plan::placement_only(p);
        let link = cluster
            .link_between(cluster.gpu(0), cluster.gpu(1))
            .unwrap();
        let clean = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        let degraded = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_link_degradation(link, 0.5))
            .run(&plan)
            .unwrap();
        let t = comm().transfer_us(pesto_graph::LinkType::GpuToGpu, 1 << 20);
        assert!((degraded.makespan_us - (clean.makespan_us + t)).abs() < 1e-6);
        assert!((degraded.faults.degraded_transfer_extra_us - t).abs() < 1e-6);
    }

    #[test]
    fn outage_kills_in_flight_op() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        // Chain runs [0,30] on gpu0; kill it at 15 (mid op b).
        let err = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_outage(cluster.gpu(0), 15.0))
            .run(&plan)
            .unwrap_err();
        match err {
            SimError::DeviceLost { device, at_us, .. } => {
                assert_eq!(device, cluster.gpu(0));
                assert!((at_us - 15.0).abs() < 1e-12);
            }
            other => panic!("expected DeviceLost, got {other:?}"),
        }
    }

    #[test]
    fn op_finishing_exactly_at_outage_instant_is_lost() {
        // Chain runs [0,30] on gpu0; op b finishes exactly at 20. The
        // device is dead at and after t, so b's work is lost.
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let err = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_outage(cluster.gpu(0), 20.0))
            .run(&plan)
            .unwrap_err();
        match err {
            SimError::DeviceLost { device, at_us, op } => {
                assert_eq!(device, cluster.gpu(0));
                assert!((at_us - 20.0).abs() < 1e-12);
                assert_eq!(
                    op,
                    OpId::from_index(1),
                    "op b dies at its own finish instant"
                );
            }
            other => panic!("expected DeviceLost, got {other:?}"),
        }
    }

    #[test]
    fn outage_before_start_strands_unstarted_ops() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let err = Simulator::new(&g, &cluster, comm())
            .with_faults(FaultPlan::new(0).with_outage(cluster.gpu(0), 0.0))
            .run(&plan)
            .unwrap_err();
        assert!(matches!(err, SimError::DeviceLost { .. }), "got {err:?}");
    }

    #[test]
    fn infinite_links_busy_time_is_interval_union() {
        // Two producers run serially on gpu0 (10 µs each, finishing at 10
        // and 20) and feed consumers on gpu1. With infinite links both
        // transfers start the moment they are produced, so if a transfer
        // takes longer than 10 µs the two overlap on the link and busy time
        // must be the union of the intervals, not the sum of durations.
        let mut g = OpGraph::new("par");
        let p1 = g.add_op("p1", DeviceKind::Gpu, 10.0, 0);
        let p2 = g.add_op("p2", DeviceKind::Gpu, 10.0, 0);
        let c1 = g.add_op("c1", DeviceKind::Gpu, 1.0, 0);
        let c2 = g.add_op("c2", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(p1, c1, 4 << 20).unwrap();
        g.add_edge(p2, c2, 4 << 20).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let mut placement = Placement::affinity_default(&g, &cluster);
        placement.set_device(OpId::from_index(2), cluster.gpu(1));
        placement.set_device(OpId::from_index(3), cluster.gpu(1));
        let t = comm().transfer_us(pesto_graph::LinkType::GpuToGpu, 4 << 20);
        assert!(t > 10.0, "test premise: transfers overlap");
        let r = Simulator::new(&g, &cluster, comm())
            .with_infinite_links(true)
            .run(&Plan::placement_only(placement))
            .unwrap();
        let link = cluster
            .link_between(cluster.gpu(0), cluster.gpu(1))
            .unwrap();
        let busy = r.link_busy_us[link.index()];
        // Union of [10, 10+t] and [20, 20+t] is 10 + t, strictly less than
        // the 2t a duration sum would report.
        assert!(
            (busy - (10.0 + t)).abs() < 1e-6,
            "busy {busy} vs union {}",
            10.0 + t
        );
        assert!(
            busy <= r.makespan_us + 1e-9,
            "occupancy {busy} must not exceed makespan {}",
            r.makespan_us
        );
    }

    #[test]
    fn deadlock_names_the_wedged_head_of_queue() {
        // b depends on a but is scheduled first: b is the genuinely blocked
        // op (at the head of gpu0's queue, never ready).
        let mut g = OpGraph::new("dead2");
        let a = g.add_op("a", DeviceKind::Gpu, 1.0, 0);
        let b = g.add_op("b", DeviceKind::Gpu, 1.0, 0);
        g.add_edge(a, b, 1).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let placement = Placement::affinity_default(&g, &cluster);
        let order = ScheduleOrder::from_vecs(vec![vec![], vec![b, a], vec![]]);
        let err = Simulator::new(&g, &cluster, comm())
            .run(&Plan::with_order(placement, order))
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock(b));
    }

    #[test]
    fn busy_times_sum_to_compute() {
        let g = chain3();
        let cluster = Cluster::two_gpus();
        let plan = Plan::placement_only(Placement::affinity_default(&g, &cluster));
        let r = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap();
        let total_busy: f64 = r.device_busy_us.iter().sum();
        assert!((total_busy - g.total_compute_us()).abs() < 1e-9);
    }

    #[test]
    fn interval_union_merges_overlaps() {
        let mut iv = vec![(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)];
        assert!((interval_union_us(&mut iv) - 20.0).abs() < 1e-12);
        let mut empty: Vec<(f64, f64)> = vec![];
        assert_eq!(interval_union_us(&mut empty), 0.0);
    }

    #[test]
    fn median_gap_of_step_finishes() {
        // Gaps 10, 20, 30 -> median 20.
        assert!((median_gap(&[10.0, 20.0, 40.0, 70.0]) - 20.0).abs() < 1e-12);
        // Even count averages the middles: gaps 10, 30 -> 20.
        assert!((median_gap(&[0.0, 10.0, 40.0]) - 20.0).abs() < 1e-12);
        // Single step: no gaps, fall back to the only completion time.
        assert!((median_gap(&[30.0]) - 30.0).abs() < 1e-12);
    }
}
