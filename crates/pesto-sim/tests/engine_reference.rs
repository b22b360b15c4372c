//! The simulator's event loop against the engine it replaced.
//!
//! Everything from here to the harness below is `pesto-sim`'s
//! `engine.rs` as it stood before events carried `(step, index)` pairs,
//! order pointers `(cycle, position)` and transfers a device-pair link
//! table: kept verbatim, with only its imports changed, so `Simulator` in
//! this file is that engine and `pesto_sim::Simulator` the current one.
//! The property: on random DAGs with weight updates (so the K-step
//! barriers fire), random placements on 2- and 4-GPU clusters (one in
//! eight with an op off the cluster or on a device of the wrong kind, and
//! one in eight without the cluster's last link), ETF, deadlocking and
//! placement-only plans, 1-3 steps, infinite links on and off, and fault
//! plans with jitter, a straggler, link degradation, a link stall and an
//! outage, both engines return the same report or the same error, bit for
//! bit. On the same cases the current engine's `makespan` returns `run`'s
//! makespan or error.

use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, FrozenGraph, LinkId, OpId, Plan};
use pesto_obs::Obs;
use pesto_sim::{
    FaultAttribution, FaultPlan, OpSpan, PipelineStats, SimError, SimReport, TransferSpan,
};
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
}

/// Events carry *instance* indices: with K steps every op (and every edge)
/// is instantiated K times, instance `s * n + i` being op `i` in step `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    OpFinish { inst: usize },
    TransferFinish { link: LinkId, einst: usize },
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
    einst: usize,
    queued_us: f64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for a graph on a cluster with the given
    /// communication model. Memory checking is on by default.
    ///
    /// The graph's out-edge index is built here, once, so that runs of many
    /// plans of one graph do not rebuild it.
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
        }
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
        let mut pending_inputs: Vec<usize> = (0..n_inst)
            .map(|inst| {
                let i = inst % n;
                let base = self.graph.in_degree(OpId::from_index(i));
                if inst < n {
                    base
                } else {
                    base + 1 + extra_pending[i]
                }
            })
            .collect();
        let mut ready = vec![false; n_inst];
        let mut started = vec![false; n_inst];
        let mut completed = 0usize;

        // Scheduling state. Only the random-ready policy of plans without
        // an explicit order draws from the per-device ready pools.
        let ordered = plan.order.as_ref();
        let mut order_ptr = vec![0usize; n_dev];
        let mut ready_pool: Vec<Vec<usize>> = vec![Vec::new(); n_dev];
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
        for inst in 0..n_inst {
            if pending_inputs[inst] == 0 {
                ready[inst] = true;
                if ordered.is_none() {
                    ready_pool[plan.placement.device(OpId::from_index(inst % n)).index()]
                        .push(inst);
                }
            }
        }

        // Dispatch helper as a closure is awkward with borrows; use a macro.
        macro_rules! try_dispatch {
            ($dev:expr, $now:expr) => {{
                let d: usize = $dev;
                if !device_busy[d] && !device_dead(d, $now) {
                    let next: Option<usize> = match ordered {
                        Some(order) => {
                            // The per-device list replays cyclically, once
                            // per step.
                            let list = order.on_device(DeviceId::from_index(d));
                            if list.is_empty() || order_ptr[d] >= list.len() * steps {
                                None
                            } else {
                                let ptr = order_ptr[d];
                                let inst = (ptr / list.len()) * n + list[ptr % list.len()].index();
                                if ready[inst] {
                                    order_ptr[d] += 1;
                                    Some(inst)
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
                    if let Some(inst) = next {
                        debug_assert!(!started[inst]);
                        started[inst] = true;
                        device_busy[d] = true;
                        let base = self.graph.op(OpId::from_index(inst % n)).compute_us();
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
                            kind: EventKind::OpFinish { inst },
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
                        let (_, _, bytes) = edges[qt.einst % n_edge];
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
                        transfer_start[qt.einst] = begin;
                        transfer_queued[qt.einst] = qt.queued_us;
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
                                link: LinkId::from_index(l),
                                einst: qt.einst,
                            },
                        });
                    }
                }
            }};
        }

        macro_rules! arrive {
            ($inst:expr, $now:expr) => {{
                let vi: usize = $inst;
                pending_inputs[vi] -= 1;
                if pending_inputs[vi] == 0 {
                    ready[vi] = true;
                    let d = plan.placement.device(OpId::from_index(vi % n)).index();
                    if ordered.is_none() {
                        ready_pool[d].push(vi);
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
                EventKind::OpFinish { inst } => {
                    let op = OpId::from_index(inst % n);
                    let step = inst / n;
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
                            arrive!(step * n + v.index(), now);
                        } else {
                            let Some(link) = self.cluster.link_between(dev, vdev) else {
                                return Err(SimError::MissingLink {
                                    src: dev,
                                    dst: vdev,
                                });
                            };
                            link_queue[link.index()].push_back(QueuedTransfer {
                                einst: step * n_edge + edge_idx,
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
                        arrive!(inst + n, now);
                        // …and a finished weight update releases its barrier
                        // on the next step's gated ops.
                        for &target in &barrier_of[op.index()] {
                            arrive!((step + 1) * n + target, now);
                        }
                    }
                    try_dispatch!(dev.index(), now);
                }
                EventKind::TransferFinish { link, einst } => {
                    link_busy[link.index()] = false;
                    let step = einst / n_edge;
                    let (u, v, bytes) = edges[einst % n_edge];
                    transfer_spans.push(TransferSpan {
                        link,
                        src: u,
                        dst: v,
                        bytes,
                        queued_us: transfer_queued[einst],
                        start_us: transfer_start[einst],
                        finish_us: now,
                        step: step as u32,
                    });
                    try_start_link!(link.index(), now);
                    arrive!(step * n + v.index(), now);
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
                        if list.is_empty() || order_ptr[d] >= list.len() * steps {
                            return None;
                        }
                        let ptr = order_ptr[d];
                        let op = list[ptr % list.len()];
                        let inst = (ptr / list.len()) * n + op.index();
                        (!started[inst]).then_some(op)
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

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

use pesto_graph::{DeviceKind, OpGraph, Placement, ScheduleOrder};
use pesto_ilp::{etf_schedule, splitmix64};
use pesto_sim::MakespanScratch;
use proptest::prelude::*;

/// How a case's plan orders each device.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Order {
    /// The ETF list schedule of the placement.
    Etf,
    /// The ETF order with the back half of each device's list reversed:
    /// the front half dispatches, then an op waits on an input scheduled
    /// after it, so most such runs deadlock part-way through a list.
    Deadlocking,
    /// No order: the random ready-queue policy under this seed.
    Random(u64),
}

/// One generated case: a DAG, a cluster, a plan and the simulator knobs.
#[derive(Debug)]
struct Case {
    seed: u64,
    graph: FrozenGraph,
    cluster: Cluster,
    plan: Plan,
    order: Order,
    steps: usize,
    infinite_links: bool,
    check_memory: bool,
    faults: Option<FaultPlan>,
    obs: bool,
}

/// Builds a case from `seed`. About one op in six is a weight update
/// (`update_*`, a sink fed by one or two earlier ops), so pipelined runs
/// have per-step barriers.
fn build_case(seed: u64) -> Case {
    let mut state = seed;
    let mut draw = |bound: u64| splitmix64(&mut state) % bound;
    let gpus = if draw(2) == 0 { 2 } else { 4 };
    let mut cluster = Cluster::homogeneous(gpus, 4_000 + draw(40_000));
    if draw(2) == 0 {
        let (gpu0, gpu1) = (cluster.gpu(0), cluster.gpu(1));
        cluster = cluster.with_link_speed(gpu0, gpu1, 0.5);
    }
    let n = 2 + draw(60) as usize;
    let mut g = OpGraph::new("random");
    let mut ids = Vec::new();
    for i in 0..n {
        let update = i > 1 && draw(6) == 0;
        let kind = if !update && draw(10) == 0 {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        };
        let name = if update {
            format!("update_{i}")
        } else {
            format!("op{i}")
        };
        let time = [5.0, 10.0, 10.0, 25.0, 40.0][draw(5) as usize];
        ids.push(g.add_op(name, kind, time, draw(1_000)));
        if i > 0 {
            let preds = if update { 1 + draw(2) } else { draw(4) };
            for _ in 0..preds {
                let u = draw(i as u64) as usize;
                let bytes = [0, 4096, 1 << 20, 8 << 20][draw(4) as usize];
                let _ = g.add_edge(ids[u], ids[i], bytes);
            }
        }
    }
    let graph = g.freeze().expect("edges point forward");
    let mut placement = Placement::affinity_default(&graph, &cluster);
    for &id in &ids {
        if graph.op(id).kind() == DeviceKind::Gpu {
            placement.set_device(id, cluster.gpu(draw(gpus as u64) as usize));
        }
    }
    let comm = CommModel::default_v100();
    let order = match draw(4) {
        0 | 1 => Order::Etf,
        2 => Order::Deadlocking,
        _ => Order::Random(1 + draw(2)),
    };
    let etf = || {
        let sim = pesto_sim::Simulator::new(&graph, &cluster, comm).with_memory_check(false);
        etf_schedule(&graph, &cluster, &comm, placement.clone(), &sim)
            .expect("ETF schedules the placement")
            .plan
    };
    let mut plan = match order {
        Order::Etf => etf(),
        Order::Deadlocking => {
            let etf = etf();
            let order = etf.order.as_ref().expect("ETF plans are ordered");
            let lists = (0..order.device_count())
                .map(|d| {
                    let mut list = order.on_device(DeviceId::from_index(d)).to_vec();
                    let half = list.len() / 2;
                    list[half..].reverse();
                    list
                })
                .collect();
            Plan::with_order(etf.placement, ScheduleOrder::from_vecs(lists))
        }
        Order::Random(_) => Plan::placement_only(placement),
    };
    let steps = 1 + draw(3) as usize;
    let infinite_links = draw(2) == 0;
    let check_memory = draw(2) == 0;
    let horizon = graph.total_compute_us();
    let faults = (draw(2) == 0).then(|| {
        let link = LinkId::from_index(draw(cluster.link_count() as u64) as usize);
        let mut f = FaultPlan::new(draw(1_000));
        if draw(2) == 0 {
            f = f.with_compute_jitter(0.05 * (1 + draw(6)) as f64);
        }
        if draw(2) == 0 {
            f = f.with_straggler(cluster.gpu(draw(gpus as u64) as usize), 1.5);
        }
        if draw(2) == 0 {
            f = f.with_link_degradation(link, 0.5);
        }
        if draw(2) == 0 {
            let start = horizon * draw(100) as f64 / 100.0;
            f = f.with_link_stall(link, start, 20.0 + draw(200) as f64);
        }
        if draw(4) == 0 {
            // Anywhere from the first op to well past one step.
            let at = horizon * draw(300) as f64 / 100.0;
            f = f.with_outage(cluster.gpu(draw(gpus as u64) as usize), at);
        }
        f
    });
    let obs = draw(4) == 0;
    if draw(8) == 0 {
        misplace(&mut plan, &graph, &cluster, &mut draw);
    }
    // A deserialized cluster can lack a link: one case in eight runs its
    // plan, scheduled with every link, on a cluster without the last one.
    if draw(8) == 0 {
        cluster = without_last_link(&cluster);
    }
    Case {
        seed,
        graph,
        cluster,
        plan,
        order,
        steps,
        infinite_links,
        check_memory,
        faults,
        obs,
    }
}

/// `cluster` without its last link, the one from the last GPU to the one
/// before it. Removing the last link leaves every other link's id as is.
fn without_last_link(cluster: &Cluster) -> Cluster {
    let json = serde_json::to_string(cluster).expect("a cluster serializes");
    let cut = json.rfind(",{").expect("the cluster has several links");
    serde_json::from_str(&format!("{}]}}", &json[..cut])).expect("the cut cluster parses")
}

/// Moves one op of `plan` where no valid placement puts it: off the
/// cluster, or onto a device of the other kind, where it joins the end of
/// that device's order so that only the placement's own check rejects it.
fn misplace(
    plan: &mut Plan,
    graph: &FrozenGraph,
    cluster: &Cluster,
    draw: &mut impl FnMut(u64) -> u64,
) {
    let op = OpId::from_index(draw(graph.op_count() as u64) as usize);
    let gpus = cluster.device_count() - 1;
    let to = match (draw(2), graph.op(op).kind()) {
        (0, _) => DeviceId::from_index(cluster.device_count() + draw(2) as usize),
        (_, DeviceKind::Gpu) => cluster.cpu(),
        _ => cluster.gpu(draw(gpus as u64) as usize),
    };
    let from = plan.placement.device(op);
    plan.placement.set_device(op, to);
    if let (Some(order), true) = (&mut plan.order, to.index() < cluster.device_count()) {
        let mut lists = lists(order);
        lists[from.index()].retain(|&o| o != op);
        lists[to.index()].push(op);
        *order = ScheduleOrder::from_vecs(lists);
    }
}

impl Case {
    /// The random-ready policy's seed, for plans without an order.
    fn policy_seed(&self) -> u64 {
        match self.order {
            Order::Random(seed) => seed,
            _ => 0,
        }
    }

    fn obs(&self) -> Obs {
        if self.obs {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// The current engine with every setting the case draws.
    fn engine(&self) -> pesto_sim::Simulator<'_> {
        let sim = pesto_sim::Simulator::new(&self.graph, &self.cluster, CommModel::default_v100())
            .with_seed(self.policy_seed())
            .with_memory_check(self.check_memory)
            .with_steps(self.steps)
            .with_infinite_links(self.infinite_links)
            .with_obs(self.obs());
        match &self.faults {
            Some(f) => sim.with_faults(f.clone()),
            None => sim,
        }
    }
}

/// `order`'s per-device lists.
fn lists(order: &ScheduleOrder) -> Vec<Vec<OpId>> {
    (0..order.device_count())
        .map(|d| order.on_device(DeviceId::from_index(d)).to_vec())
        .collect()
}

/// Both engines' results for `case`.
fn run_both(case: &Case) -> (Result<SimReport, SimError>, Result<SimReport, SimError>) {
    let mut reference = Simulator::new(&case.graph, &case.cluster, CommModel::default_v100())
        .with_seed(case.policy_seed())
        .with_memory_check(case.check_memory)
        .with_steps(case.steps)
        .with_infinite_links(case.infinite_links)
        .with_obs(case.obs());
    if let Some(f) = &case.faults {
        reference = reference.with_faults(f.clone());
    }
    (reference.run(&case.plan), case.engine().run(&case.plan))
}

/// Checks `Simulator::makespan` against `run` on `case`'s ordered plan,
/// in `scratch`: under the case's settings, and under its link model
/// alone, without the faults, steps, memory check and telemetry that
/// send `makespan` to `run`. Returns the second result, the event loop's,
/// or `None` for a placement-only plan.
fn check_makespan(case: &Case, scratch: &mut MakespanScratch) -> Option<Result<f64, SimError>> {
    let lists = lists(case.plan.order.as_ref()?);
    let plain = pesto_sim::Simulator::new(&case.graph, &case.cluster, CommModel::default_v100())
        .with_memory_check(false)
        .with_infinite_links(case.infinite_links);
    let mut got = None;
    for sim in [case.engine(), plain] {
        let want = sim.run(&case.plan).map(|r| r.makespan_us.to_bits());
        let makespan = sim.makespan(&case.plan.placement, &lists, scratch);
        assert_eq!(
            makespan.clone().map(f64::to_bits),
            want,
            "seed {}",
            case.seed
        );
        got = Some(makespan);
    }
    got
}

/// `{:?}` prints every f64 in its shortest round-trip form, so equal
/// renderings are equal bits.
fn bits(result: &Result<SimReport, SimError>) -> String {
    format!("{result:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_is_bit_identical_to_the_reference(seed in any::<u64>()) {
        let case = build_case(seed);
        let (reference, current) = run_both(&case);
        prop_assert_eq!(bits(&current), bits(&reference));
    }
}

/// `Simulator::makespan` returns `run`'s makespan bits or `run`'s error on
/// every ordered case ([`check_makespan`]). One scratch serves every case,
/// across cluster sizes and after errors, so state one call leaves behind
/// would change a later result.
#[test]
fn makespan_is_bit_identical_to_run() {
    let mut scratch = MakespanScratch::default();
    let mut state = 0x6d61_6b65_7370_616e;
    for _ in 0..256 {
        check_makespan(&build_case(splitmix64(&mut state)), &mut scratch);
    }
}

/// The generator reaches what the properties are about: pipelined runs
/// with barriers, every plan kind, faulted runs, and the deadlock (with
/// the wedged op past the head of its device's list), device loss,
/// out-of-memory, invalid-plan and missing-link errors; and `makespan`'s
/// event loop ends in a makespan, a deadlock, an invalid plan and a
/// missing link. Each of these seeds is also checked against the
/// reference and `run`.
#[test]
fn generated_cases_cover_every_outcome() {
    let (mut barriers, mut etf, mut random, mut faulted) = (0, 0, 0, 0);
    let (mut wedged_mid_list, mut lost, mut oom, mut invalid, mut missing, mut ok) =
        (0, 0, 0, 0, 0, 0);
    let (mut loop_ok, mut loop_deadlock, mut loop_invalid, mut loop_missing) = (0, 0, 0, 0);
    let mut scratch = MakespanScratch::default();
    for seed in 0..200 {
        let case = build_case(seed);
        let (reference, current) = run_both(&case);
        assert_eq!(bits(&current), bits(&reference), "seed {seed}");
        match check_makespan(&case, &mut scratch) {
            Some(Ok(_)) => loop_ok += 1,
            Some(Err(SimError::Deadlock(_))) => loop_deadlock += 1,
            Some(Err(SimError::InvalidPlan(_))) => loop_invalid += 1,
            Some(Err(SimError::MissingLink { .. })) => loop_missing += 1,
            _ => {}
        }
        barriers += usize::from(case.steps > 1 && !case.graph.weight_update_ops().is_empty());
        etf += usize::from(case.order == Order::Etf);
        random += usize::from(matches!(case.order, Order::Random(_)));
        faulted += usize::from(case.faults.is_some());
        match &reference {
            Err(SimError::Deadlock(op)) => {
                let order = case
                    .plan
                    .order
                    .as_ref()
                    .expect("only ordered plans deadlock");
                let list = order.on_device(case.plan.placement.device(*op));
                wedged_mid_list += usize::from(list[0] != *op);
            }
            Err(SimError::DeviceLost { .. }) => lost += 1,
            Err(SimError::OutOfMemory(_)) => oom += 1,
            Err(SimError::InvalidPlan(_)) => invalid += 1,
            Err(SimError::MissingLink { .. }) => missing += 1,
            Ok(_) => ok += 1,
            Err(_) => {}
        }
    }
    let counts = [
        barriers,
        etf,
        random,
        faulted,
        wedged_mid_list,
        lost,
        oom,
        invalid,
        missing,
        ok,
        loop_ok,
        loop_deadlock,
        loop_invalid,
        loop_missing,
    ];
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
}
