//! Optimality validation (paper Theorem 3.1): on tiny instances the exact
//! Pesto ILP's makespan must lower-bound — and its decoded plan must
//! essentially match — the best plan found by brute-forcing *every*
//! placement and *every* per-device execution order through the simulator.

use pesto_cost::CommModel;
use pesto_graph::{
    Cluster, DeviceKind, FrozenGraph, OpGraph, OpId, Placement, Plan, ScheduleOrder,
};
use pesto_ilp::{IlpConfig, IlpModel, MemoryRule};
use pesto_milp::MilpConfig;
use pesto_sim::Simulator;
use proptest::prelude::*;
use std::time::Duration;

/// All permutations of a small vector.
fn permutations(items: &[OpId]) -> Vec<Vec<OpId>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Brute-force optimum: minimum simulated makespan over every placement of
/// the GPU ops and every per-device dispatch order.
fn brute_force_best(graph: &FrozenGraph, cluster: &Cluster, comm: &CommModel) -> f64 {
    let gpu_ops: Vec<OpId> = graph
        .op_ids()
        .filter(|&id| graph.op(id).kind() == DeviceKind::Gpu)
        .collect();
    let sim = Simulator::new(graph, cluster, *comm).with_memory_check(false);
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << gpu_ops.len()) {
        let mut placement = Placement::affinity_default(graph, cluster);
        for (i, &op) in gpu_ops.iter().enumerate() {
            placement.set_device(op, cluster.gpu(((mask >> i) & 1) as usize));
        }
        // Enumerate orders per device.
        let mut per_device_ops: Vec<Vec<OpId>> = vec![Vec::new(); cluster.device_count()];
        for id in graph.op_ids() {
            per_device_ops[placement.device(id).index()].push(id);
        }
        let order_sets: Vec<Vec<Vec<OpId>>> =
            per_device_ops.iter().map(|ops| permutations(ops)).collect();
        // Cartesian product over devices.
        let mut stack: Vec<Vec<Vec<OpId>>> = vec![Vec::new()];
        for dev_orders in &order_sets {
            let mut next = Vec::new();
            for partial in &stack {
                for ord in dev_orders {
                    let mut p = partial.clone();
                    p.push(ord.clone());
                    next.push(p);
                }
            }
            stack = next;
        }
        for orders in stack {
            let plan = Plan::with_order(placement.clone(), ScheduleOrder::from_vecs(orders));
            if let Ok(report) = sim.run(&plan) {
                best = best.min(report.makespan_us);
            }
        }
    }
    best
}

fn arb_tiny_graph() -> impl Strategy<Value = FrozenGraph> {
    (3usize..6)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n, 0u64..(2 << 20)), 0..n);
            let times = proptest::collection::vec(1.0f64..120.0, n);
            (Just(n), edges, times)
        })
        .prop_map(|(n, edges, times)| {
            let mut g = OpGraph::new("tiny");
            let ids: Vec<OpId> = (0..n)
                .map(|i| g.add_op(format!("op{i}"), DeviceKind::Gpu, times[i], 16))
                .collect();
            for (a, b, bytes) in edges {
                let (u, v) = if a < b { (a, b) } else { (b, a) };
                if u != v {
                    let _ = g.add_edge(ids[u], ids[v], bytes);
                }
            }
            g.freeze().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ilp_matches_brute_force(g in arb_tiny_graph()) {
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let config = IlpConfig {
            congestion: true,
            memory: MemoryRule::Off,
            milp: MilpConfig::with_time_limit(Duration::from_secs(30)),
        };
        let model = IlpModel::build(&g, &cluster, &comm, &config).unwrap();
        let out = model.solve(&config.milp).unwrap();
        let brute = brute_force_best(&g, &cluster, &comm);

        // Theorem 3.1: the ILP is a valid relaxation-or-equal of anything
        // the simulator can do — its optimum lower-bounds the brute force.
        prop_assert!(
            out.cmax_us <= brute + 1e-4,
            "cmax {} exceeds brute-force best {brute}", out.cmax_us
        );
        if out.proven_optimal {
            // The decoded plan is in the brute-force search space, so it
            // cannot beat it; and it should be near the optimum (small gaps
            // come only from FCFS link order vs the model's free ordering).
            let sim = Simulator::new(&g, &cluster, comm).with_memory_check(false);
            let simulated = sim.run(&out.plan).unwrap().makespan_us;
            prop_assert!(simulated >= brute - 1e-4);
            prop_assert!(
                simulated <= brute * 1.15 + 1e-4,
                "decoded plan {simulated} far from brute best {brute}"
            );
        }
    }
}

/// A deterministic instance where joint placement+scheduling beats
/// placement-only reasoning — the Figure 2 story end to end. Branch and
/// bound does not close the gap on these 8 ops (a 60 s search still
/// reports a gap of 0.44), so the search stops at a node limit, which
/// gives the same incumbent on any host, and the test checks that the
/// incumbent runs the two GPUs in parallel.
#[test]
fn figure2_style_instance_finds_parallelism() {
    // Mirror of the paper's toy DAG (Fig. 2a): small ops A..E feeding a
    // sink H, heavy ops F, G. Numbers in parentheses are compute times.
    let mut g = OpGraph::new("figure2");
    let a = g.add_op("A", DeviceKind::Gpu, 10.0, 16);
    let b = g.add_op("B", DeviceKind::Gpu, 10.0, 16);
    let c = g.add_op("C", DeviceKind::Gpu, 10.0, 16);
    let d = g.add_op("D", DeviceKind::Gpu, 20.0, 16);
    let e = g.add_op("E", DeviceKind::Gpu, 20.0, 16);
    let f = g.add_op("F", DeviceKind::Gpu, 40.0, 16);
    let h = g.add_op("G", DeviceKind::Gpu, 40.0, 16);
    let sink = g.add_op("H", DeviceKind::Gpu, 10.0, 16);
    g.add_edge(a, d, 1024).unwrap();
    g.add_edge(b, d, 1024).unwrap();
    g.add_edge(b, e, 1024).unwrap();
    g.add_edge(c, e, 1024).unwrap();
    g.add_edge(d, sink, 1024).unwrap();
    g.add_edge(e, sink, 1024).unwrap();
    g.add_edge(f, sink, 1024).unwrap();
    g.add_edge(h, sink, 1024).unwrap();
    let g = g.freeze().unwrap();
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let config = IlpConfig {
        congestion: true,
        memory: MemoryRule::Off,
        milp: MilpConfig {
            node_limit: 1_000,
            ..MilpConfig::default()
        },
    };
    let model = IlpModel::build(&g, &cluster, &comm, &config).unwrap();
    let out = model.solve(&config.milp).unwrap();

    // Single-GPU serial time is 160; with two GPUs and tiny tensors the
    // heavy F/G chain should overlap the A..E work.
    assert!(out.cmax_us < 160.0, "no parallelism found: {}", out.cmax_us);
    let sim = Simulator::new(&g, &cluster, comm).with_memory_check(false);
    let simulated = sim.run(&out.plan).unwrap().makespan_us;
    assert!(simulated < 160.0, "decoded plan is serial: {simulated}");
}
