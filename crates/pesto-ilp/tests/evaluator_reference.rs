//! The fast ETF pass against the reference it replaced.
//!
//! `reference_etf_schedule` and `b_levels` below are the list scheduler as
//! it stood before [`Evaluator`] built its placement-independent state
//! once (b-levels recomputed on every call, a linear link scan per
//! cross-device predecessor, one scan buffer per step), kept verbatim.
//! The property: on random DAGs, including frontiers wider than the
//! 64-op lookahead, random placements on 2- and 4-GPU clusters, with and
//! without infinite links and with placements that overflow device
//! memory, the fast path returns the same per-device order, the same
//! report and the same penalized cost, bit for bit. Deterministic cases
//! check the same on model graphs, whose ops have far more inputs than
//! the random DAGs draw.
//!
//! [`Evaluator::rescore`] resumes a pass from a base placement's trace.
//! Its oracle is [`Evaluator::cost`], checked above: on the same random
//! cases and on model graphs, chains of moves (each adopted candidate
//! becoming the next base, its trace swapped in) must score every
//! candidate to the same bits, or fail with the same error.

use pesto_coarsen::Coarsening;
use pesto_cost::CommModel;
use pesto_graph::{
    Cluster, DeviceId, DeviceKind, FrozenGraph, OpGraph, OpId, Placement, Plan, ScheduleOrder,
};
use pesto_ilp::{etf_schedule, splitmix64, EtfTrace, Evaluator, ListScheduleResult};
use pesto_sim::{SimError, Simulator};
use proptest::prelude::*;

/// Upward rank (b-level): longest compute+comm path from each op to a sink,
/// assuming every edge pays its full transfer cost. A classic list-scheduling
/// priority; independent of placement.
fn b_levels(graph: &FrozenGraph, cluster: &Cluster, comm: &CommModel) -> Vec<f64> {
    let _ = cluster;
    let mut bl = vec![0.0f64; graph.op_count()];
    for &v in graph.topo_order().iter().rev() {
        let mut best_tail = 0.0f64;
        for &(s, bytes) in graph.succs_with_bytes(v) {
            // Pessimistic: price the edge as a GPU-GPU transfer.
            let c = comm.transfer_us(pesto_graph::LinkType::GpuToGpu, bytes);
            best_tail = best_tail.max(c + bl[s.index()]);
        }
        bl[v.index()] = graph.op(v).compute_us() + best_tail;
    }
    bl
}

fn reference_etf_schedule(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    placement: Placement,
    sim: &Simulator<'_>,
) -> Result<ListScheduleResult, SimError> {
    let n = graph.op_count();
    let bl = b_levels(graph, cluster, comm);

    let mut device_free = vec![0.0f64; cluster.device_count()];
    let mut link_free = vec![0.0f64; cluster.link_count()];
    let mut finish = vec![0.0f64; n];
    let mut remaining_preds: Vec<usize> = (0..n)
        .map(|i| graph.in_degree(OpId::from_index(i)))
        .collect();
    let mut ready: Vec<OpId> = (0..n)
        .filter(|&i| remaining_preds[i] == 0)
        .map(OpId::from_index)
        .collect();
    let mut order: Vec<Vec<OpId>> = vec![Vec::new(); cluster.device_count()];
    let mut scheduled = 0usize;

    while scheduled < n {
        debug_assert!(!ready.is_empty(), "DAG guarantees progress");
        // Estimate earliest start for ready ops (without committing). On
        // very wide frontiers, only the highest-priority (b-level) ops are
        // scanned — a standard bounded-lookahead ETF that keeps each step
        // O(K·deg) instead of O(|ready|·deg) on 20k+-op graphs.
        const SCAN_LIMIT: usize = 64;
        let scan: Vec<usize> = if ready.len() > SCAN_LIMIT {
            let mut idxs: Vec<usize> = (0..ready.len()).collect();
            idxs.select_nth_unstable_by(SCAN_LIMIT - 1, |&a, &b| {
                bl[ready[b].index()].total_cmp(&bl[ready[a].index()])
            });
            idxs.truncate(SCAN_LIMIT);
            idxs
        } else {
            (0..ready.len()).collect()
        };
        let mut best: Option<(usize, f64)> = None;
        for &idx in &scan {
            let op = ready[idx];
            let dev = placement.device(op);
            let mut est = device_free[dev.index()];
            for &(p, bytes) in graph.preds_with_bytes(op) {
                let pdev = placement.device(p);
                let arrival = if pdev == dev {
                    finish[p.index()]
                } else {
                    let Some(link) = cluster.link_between(pdev, dev) else {
                        return Err(SimError::MissingLink {
                            src: pdev,
                            dst: dev,
                        });
                    };
                    let start = finish[p.index()].max(link_free[link.index()]);
                    start
                        + comm.transfer_us(cluster.link(link).link_type(), bytes)
                            / cluster.link(link).speed()
                };
                est = est.max(arrival);
            }
            let better = match best {
                None => true,
                Some((bidx, bstart)) => {
                    est < bstart - 1e-12
                        || (est < bstart + 1e-12 && bl[op.index()] > bl[ready[bidx].index()])
                }
            };
            if better {
                best = Some((idx, est));
            }
        }
        let (idx, _) = best.expect("ready set is non-empty");
        let op = ready.swap_remove(idx);
        let dev = placement.device(op);

        // Commit: transfers first (updating link availability), then the op.
        let mut start = device_free[dev.index()];
        for &(p, bytes) in graph.preds_with_bytes(op) {
            let pdev = placement.device(p);
            let arrival = if pdev == dev {
                finish[p.index()]
            } else {
                let Some(link) = cluster.link_between(pdev, dev) else {
                    return Err(SimError::MissingLink {
                        src: pdev,
                        dst: dev,
                    });
                };
                let t0 = finish[p.index()].max(link_free[link.index()]);
                let t1 = t0
                    + comm.transfer_us(cluster.link(link).link_type(), bytes)
                        / cluster.link(link).speed();
                link_free[link.index()] = t1;
                t1
            };
            start = start.max(arrival);
        }
        finish[op.index()] = start + graph.op(op).compute_us();
        device_free[dev.index()] = finish[op.index()];
        order[dev.index()].push(op);
        scheduled += 1;

        for &s in graph.succs(op) {
            remaining_preds[s.index()] -= 1;
            if remaining_preds[s.index()] == 0 {
                ready.push(s);
            }
        }
    }

    let plan = Plan::with_order(placement, ScheduleOrder::from_vecs(order));
    let report = sim.run(&plan)?;
    Ok(ListScheduleResult { plan, report })
}

/// The penalized cost as the evaluator defined it: makespan plus, per
/// overflowing device, the graph's total compute (at least 1 µs) scaled
/// by `1 + overflow / capacity`.
fn reference_cost(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    placement: &Placement,
    infinite_links: bool,
) -> (ListScheduleResult, f64) {
    let sim = Simulator::new(graph, cluster, *comm)
        .with_memory_check(false)
        .with_infinite_links(infinite_links);
    let sched = reference_etf_schedule(graph, cluster, comm, placement.clone(), &sim)
        .expect("reference schedules the placement");
    let horizon = graph.total_compute_us().max(1.0);
    let mut cost = sched.report.makespan_us;
    let usage = placement.memory_per_device(graph, cluster);
    for (d, &used) in usage.iter().enumerate() {
        let cap = cluster.devices()[d].memory_bytes();
        if used > cap {
            let overflow_frac = (used - cap) as f64 / cap.max(1) as f64;
            cost += horizon * (1.0 + overflow_frac);
        }
    }
    (sched, cost)
}

/// One generated case: a DAG, a cluster, a placement and the link model.
#[derive(Debug)]
struct Case {
    graph: FrozenGraph,
    cluster: Cluster,
    placement: Placement,
    infinite_links: bool,
    wide: bool,
}

/// Builds a case from `seed`. Op times come from a small set, so exact
/// b-level ties are common; a `wide` case adds a layer of 65-130 roots,
/// so the first ETF steps take the bounded-lookahead selection.
fn build_case(n: usize, wide: bool, four_gpus: bool, infinite_links: bool, seed: u64) -> Case {
    let mut state = seed;
    let mut draw = |bound: u64| splitmix64(&mut state) % bound;
    let gpus = if four_gpus { 4 } else { 2 };
    // Memory per GPU is drawn low enough that many placements overflow.
    let mut cluster = Cluster::homogeneous(gpus, 2_000 + draw(20_000));
    if draw(2) == 0 {
        let (gpu0, gpu1) = (cluster.gpu(0), cluster.gpu(1));
        cluster = cluster.with_link_speed(gpu0, gpu1, 0.5);
    }
    let roots = if wide { 65 + draw(66) as usize } else { 0 };
    let mut g = OpGraph::new("random");
    let mut ids = Vec::new();
    for i in 0..roots + n {
        let kind = if draw(10) == 0 {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        };
        let time = [5.0, 10.0, 10.0, 25.0, 40.0][draw(5) as usize];
        ids.push(g.add_op(format!("op{i}"), kind, time, draw(1_000)));
    }
    for v in (roots..roots + n).filter(|&v| v > 0) {
        for _ in 0..draw(4) {
            let u = draw(v as u64) as usize;
            let bytes = [0, 4096, 1 << 20, 8 << 20][draw(4) as usize];
            let _ = g.add_edge(ids[u], ids[v], bytes);
        }
    }
    let graph = g.freeze().expect("edges point forward");
    let mut placement = Placement::affinity_default(&graph, &cluster);
    for &id in &ids {
        if graph.op(id).kind() == DeviceKind::Gpu {
            placement.set_device(id, cluster.gpu(draw(gpus as u64) as usize));
        }
    }
    Case {
        graph,
        cluster,
        placement,
        infinite_links,
        wide,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..120,
        0u8..3,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(n, wide, four, infinite, seed)| build_case(n, wide == 0, four, infinite, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fast_etf_is_bit_identical_to_the_reference(case in arb_case()) {
        let Case { graph, cluster, placement, infinite_links, wide } = case;
        let comm = CommModel::default_v100();
        if wide {
            prop_assert!(graph.op_ids().filter(|&id| graph.in_degree(id) == 0).count() > 64);
        }
        let (reference, reference_cost) =
            reference_cost(&graph, &cluster, &comm, &placement, infinite_links);
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // renderings are equal bits.
        let bits = |r: &ListScheduleResult| format!("{:?} {:?}", r.plan, r.report);

        let eval = Evaluator::new(&graph, &cluster, comm, infinite_links);
        let fast = eval.schedule(placement.clone()).expect("evaluator schedules");
        prop_assert_eq!(bits(&fast), bits(&reference));
        let cost = eval.cost(&placement).expect("evaluator scores");
        prop_assert_eq!(cost.to_bits(), reference_cost.to_bits());

        // The public wrapper, on the same simulator the reference used.
        let sim = Simulator::new(&graph, &cluster, comm)
            .with_memory_check(false)
            .with_infinite_links(infinite_links);
        let wrapped = etf_schedule(&graph, &cluster, &comm, placement, &sim)
            .expect("wrapper schedules");
        prop_assert_eq!(bits(&wrapped), bits(&reference));
    }
}

/// The pipeline's coarsening of `graph`: to a quarter of its ops (at
/// least 200 vertices), parallel fine edges that collapse into one coarse
/// edge charged the link's fixed latency in bytes.
fn pipeline_coarsening(graph: &FrozenGraph, comm: &CommModel) -> Coarsening {
    let gg = comm.fit(pesto_graph::LinkType::GpuToGpu);
    let config = pesto_coarsen::CoarsenConfig {
        parallel_edge_penalty_bytes: (gg.beta0 / gg.beta1) as u64,
        ..pesto_coarsen::CoarsenConfig::to_target((graph.op_count() / 4).max(200))
    };
    pesto_coarsen::coarsen(graph, &config)
}

/// Model graphs, where the random DAGs above fall short: RNNLM ops reach
/// in-degree 20, several of their cross-device inputs on one link, which
/// is the case a per-link bound aggregates. Each graph is scored on 2 and
/// 4 GPUs under 16 seeded random placements, every fourth with infinite
/// links.
#[test]
fn fast_etf_matches_the_reference_on_model_graphs() {
    let comm = CommModel::default_v100();
    let rnnlm = pesto_models::ModelSpec::rnnlm(2, 1024);
    let fine = rnnlm.generate_scaled(rnnlm.paper_batch(), 1000, 0.25);
    let coarse = pipeline_coarsening(&fine, &comm).coarse().clone();
    let nasnet = pesto_models::ModelSpec::nasnet(2, 8);
    let nasnet = nasnet.generate(nasnet.paper_batch(), 1000);
    assert_eq!(fine.op_count(), 1_110);
    assert!(coarse.op_count() > 200 && coarse.op_count() <= 277);
    assert!(fine.op_ids().map(|id| fine.in_degree(id)).max() >= Some(20));
    let bits = |r: &ListScheduleResult| format!("{:?} {:?}", r.plan, r.report);
    for graph in [&fine, &coarse, &nasnet] {
        for cluster in [Cluster::two_gpus(), Cluster::homogeneous(4, 16 << 30)] {
            let gpus = cluster.gpus();
            for k in 0..16u64 {
                let mut state = k;
                let mut placement = Placement::affinity_default(graph, &cluster);
                for id in graph.op_ids() {
                    if graph.op(id).kind() == DeviceKind::Gpu {
                        let g = splitmix64(&mut state) % gpus.len() as u64;
                        placement.set_device(id, gpus[g as usize]);
                    }
                }
                let infinite_links = k % 4 == 3;
                let (reference, reference_cost) =
                    reference_cost(graph, &cluster, &comm, &placement, infinite_links);
                let eval = Evaluator::new(graph, &cluster, comm, infinite_links);
                let fast = eval
                    .schedule(placement.clone())
                    .expect("evaluator schedules");
                assert_eq!(bits(&fast), bits(&reference), "{} seed {k}", graph.name());
                let cost = eval.cost(&placement).expect("evaluator scores");
                assert_eq!(cost.to_bits(), reference_cost.to_bits());
            }
        }
    }
}

/// The incumbent of a chain of moves: a placement, its cost and the trace
/// of its pass.
struct Base {
    placement: Placement,
    cost: f64,
    trace: EtfTrace,
}

/// Scores `cand` both ways against `base`: resumed into `spare`, and by a
/// full [`Evaluator::cost`]. Asserts the two agree bit for bit or fail
/// alike, and returns the cost when both succeed.
fn rescore_matches_cost(
    eval: &Evaluator<'_>,
    base: &Base,
    cand: &Placement,
    spare: &mut EtfTrace,
) -> Option<f64> {
    let got = eval.rescore(&base.placement, &base.trace, cand, spare);
    let want = eval.cost(cand);
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} != {want}");
            Some(got)
        }
        (got, want) => {
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            None
        }
    }
}

/// Adopts a scored candidate as the next base, swapping the two traces
/// the way the searches do.
fn adopt(base: &mut Base, cand: Placement, cost: f64, spare: &mut EtfTrace) {
    base.placement = cand;
    base.cost = cost;
    std::mem::swap(&mut base.trace, spare);
}

/// A move of a chain, drawn from `state`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    /// The candidate equals its base.
    Identity,
    /// An op no edge enters moves: it is ready at step 0.
    Source,
    /// A few ops move, each to a random GPU.
    Group,
    /// One op moves to another GPU.
    Flip,
    /// One op moves to a device the cluster lacks: both sides must fail.
    OffCluster,
}

fn draw_move(
    graph: &FrozenGraph,
    cluster: &Cluster,
    base: &Placement,
    state: &mut u64,
) -> (Placement, Move) {
    let gpus = cluster.gpus();
    let gpu_ops: Vec<OpId> = graph
        .op_ids()
        .filter(|&id| graph.op(id).kind() == DeviceKind::Gpu)
        .collect();
    let mut draw = |bound: usize| (splitmix64(state) % bound.max(1) as u64) as usize;
    let mut cand = base.clone();
    if gpu_ops.is_empty() {
        return (cand, Move::Identity);
    }
    let flip = |cand: &mut Placement, op: OpId, step: usize| {
        let at = gpus.iter().position(|&g| g == cand.device(op)).unwrap_or(0);
        cand.set_device(op, gpus[(at + step) % gpus.len()]);
    };
    let kind = match draw(16) {
        0 | 1 => Move::Identity,
        2..=4 => Move::Source,
        5 => Move::OffCluster,
        6..=9 => Move::Group,
        _ => Move::Flip,
    };
    match kind {
        Move::Identity => {}
        Move::Source => {
            let sources: Vec<OpId> = gpu_ops
                .iter()
                .copied()
                .filter(|&id| graph.in_degree(id) == 0)
                .collect();
            if sources.is_empty() {
                return (cand, Move::Identity);
            }
            let op = sources[draw(sources.len())];
            flip(&mut cand, op, 1 + draw(gpus.len() - 1));
        }
        Move::OffCluster => {
            let op = gpu_ops[draw(gpu_ops.len())];
            cand.set_device(op, DeviceId::from_index(cluster.device_count()));
        }
        Move::Group => {
            for _ in 0..2 + draw(5) {
                let op = gpu_ops[draw(gpu_ops.len())];
                cand.set_device(op, gpus[draw(gpus.len())]);
            }
        }
        Move::Flip => {
            let op = gpu_ops[draw(gpu_ops.len())];
            flip(&mut cand, op, 1 + draw(gpus.len() - 1));
        }
    }
    (cand, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Chains of at least 10 moves on every shape `arb_case` draws. A
    /// candidate that scores is adopted when it improves and on a third
    /// of the others, so later moves resume from swapped-in traces.
    #[test]
    fn rescore_is_bit_identical_to_a_full_evaluation(
        case in arb_case(),
        moves in 10usize..24,
        seed in any::<u64>(),
    ) {
        let Case { graph, cluster, placement, infinite_links, .. } = case;
        let eval = Evaluator::new(&graph, &cluster, CommModel::default_v100(), infinite_links);
        let (cost, trace) = eval.score(&placement).expect("the drawn placement scores");
        prop_assert_eq!(cost.to_bits(), eval.cost(&placement).unwrap().to_bits());
        prop_assert_eq!(trace.skipped_steps(), 0);
        let mut base = Base { placement, cost, trace };
        let mut spare = EtfTrace::default();
        let mut state = seed;
        for _ in 0..moves {
            let (cand, kind) = draw_move(&graph, &cluster, &base.placement, &mut state);
            let scored = rescore_matches_cost(&eval, &base, &cand, &mut spare);
            prop_assert_eq!(scored.is_none(), kind == Move::OffCluster);
            if kind == Move::Source {
                prop_assert_eq!(spare.skipped_steps(), 0);
            }
            if let Some(cost) = scored {
                prop_assert!(spare.skipped_steps() < graph.op_count());
                if cost < base.cost || splitmix64(&mut state).is_multiple_of(3) {
                    adopt(&mut base, cand, cost, &mut spare);
                }
            }
        }
    }
}

/// Refine-style climbs on model graphs: first-improvement flips of whole
/// coarse groups on the fine graph, and of single vertices on the coarse
/// graph, on 2 and 4 GPUs. Every candidate, improving or not, is checked
/// against a full evaluation.
#[test]
fn rescored_group_flips_match_full_evaluations_on_model_graphs() {
    let comm = CommModel::default_v100();
    let rnnlm = pesto_models::ModelSpec::rnnlm(2, 1024);
    let nasnet = pesto_models::ModelSpec::nasnet(2, 8);
    for fine in [
        rnnlm.generate_scaled(rnnlm.paper_batch(), 1000, 0.25),
        nasnet.generate(nasnet.paper_batch(), 1000),
    ] {
        let coarsening = pipeline_coarsening(&fine, &comm);
        let coarse = coarsening.coarse();
        let singletons: Vec<Vec<OpId>> = coarse.op_ids().map(|id| vec![id]).collect();
        let fine_groups: Vec<Vec<OpId>> = coarse
            .op_ids()
            .map(|cv| coarsening.members(cv).to_vec())
            .collect();
        for (graph, groups) in [(&fine, &fine_groups), (coarse, &singletons)] {
            for cluster in [Cluster::two_gpus(), Cluster::homogeneous(4, 16 << 30)] {
                let gpus = cluster.gpus();
                let mut state = graph.op_count() as u64;
                let mut placement = Placement::affinity_default(graph, &cluster);
                for group in groups {
                    let g = gpus[(splitmix64(&mut state) % gpus.len() as u64) as usize];
                    for &id in group {
                        if graph.op(id).kind() == DeviceKind::Gpu {
                            placement.set_device(id, g);
                        }
                    }
                }
                let eval = Evaluator::new(graph, &cluster, comm, false);
                let (cost, trace) = eval.score(&placement).expect("model placement scores");
                let mut base = Base {
                    placement,
                    cost,
                    trace,
                };
                let mut spare = EtfTrace::default();
                let (mut checked, mut improved, mut skipped) = (0, 0, 0);
                for group in groups
                    .iter()
                    .filter(|g| graph.op(g[0]).kind() == DeviceKind::Gpu)
                    .take(40)
                {
                    let current = base.placement.device(group[0]);
                    for &gpu in gpus.iter().filter(|&&g| g != current) {
                        let mut cand = base.placement.clone();
                        group.iter().for_each(|&id| cand.set_device(id, gpu));
                        let cost = rescore_matches_cost(&eval, &base, &cand, &mut spare)
                            .expect("a flip between GPUs scores");
                        checked += 1;
                        skipped += spare.skipped_steps();
                        if cost < base.cost - 1e-9 {
                            improved += 1;
                            adopt(&mut base, cand, cost, &mut spare);
                            break;
                        }
                    }
                }
                assert!(checked >= 40, "{}: {checked} flips", graph.name());
                assert!(improved > 0, "{}: no flip adopted", graph.name());
                assert!(skipped > 0, "{}: every flip ran from step 0", graph.name());
            }
        }
    }
}
