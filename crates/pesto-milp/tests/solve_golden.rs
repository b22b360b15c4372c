//! Golden digests of the deterministic (`threads = 1`) branch and bound.
//!
//! Each case solves a fixed model with an enabled `Obs` and pins three
//! things: an FNV-1a digest of the `Debug` text of the whole result
//! (every `MilpSolution` field, floats printed round-trip exact, or the
//! error), a digest of the solver-event sequence (source and payload, not
//! the timestamps), and the node, pivot and prune counters. The cases
//! cover every exit: an exhausted tree, node limits, a gap-tolerance
//! stop, warm starts, an infeasible root and a zero node budget. No case
//! uses a wall-clock limit, so every run takes the same path.

use pesto_lp::{Problem, Relation, Sense, VarId};
use pesto_milp::{MilpConfig, MilpProblem};
use pesto_obs::Obs;
use std::time::Duration;

/// FNV-1a over the bytes of a string.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The two-row knapsack family of the workspace's parallel-solver tests.
fn branchy(n: usize) -> MilpProblem {
    let mut lp = Problem::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..n)
        .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (3 * i % 7 + 1) as f64))
        .collect();
    let t1: Vec<(VarId, f64)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (2 * i % 5 + 1) as f64))
        .collect();
    lp.add_constraint(t1, Relation::Le, 1.3 * n as f64);
    let t2: Vec<(VarId, f64)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i % 3 + 1) as f64))
        .collect();
    lp.add_constraint(t2, Relation::Le, 0.9 * n as f64);
    MilpProblem::new(lp, vars)
}

/// The near-symmetric equality partition of `limits.rs`.
fn hard_partition(n: usize) -> MilpProblem {
    let mut lp = Problem::new(Sense::Minimize);
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let weights: Vec<f64> = (0..n).map(|i| 13.0 + ((i * 29) % 7) as f64).collect();
    let total: f64 = weights.iter().sum();
    let xs: Vec<_> = (0..n)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, 1.0, 0.0))
        .collect();
    let mut t1 = vec![(t, 1.0)];
    let mut t2 = vec![(t, 1.0)];
    for (j, &x) in xs.iter().enumerate() {
        t1.push((x, -weights[j]));
        t2.push((x, weights[j]));
    }
    lp.add_constraint(t1, Relation::Ge, 0.0);
    lp.add_constraint(t2, Relation::Ge, total);
    MilpProblem::new(lp, xs)
}

fn infeasible() -> MilpProblem {
    let mut lp = Problem::new(Sense::Minimize);
    let a = lp.add_var("a", 0.0, 1.0, 1.0);
    let b = lp.add_var("b", 0.0, 1.0, 1.0);
    lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
    MilpProblem::new(lp, vec![a, b])
}

/// Limits of one case; the time limit never binds.
fn config(node_limit: Option<usize>, gap: Option<f64>, warm: Option<Vec<f64>>) -> MilpConfig {
    let default = MilpConfig::default();
    MilpConfig {
        time_limit: Duration::from_secs(3600),
        node_limit: node_limit.unwrap_or(default.node_limit),
        gap_tolerance: gap.unwrap_or(default.gap_tolerance),
        warm_start: warm,
        obs: Obs::enabled(),
        ..default
    }
}

/// One solve's pinned outputs, printed as a row of the golden table.
fn row(label: &str, problem: &MilpProblem, config: MilpConfig) -> String {
    let obs = config.obs.clone();
    let result = problem.solve(&config);
    let events: String = obs
        .solver_events()
        .iter()
        .map(|e| format!("{}:{:?};", e.source, e.kind))
        .collect();
    let counters: Vec<u64> = [
        "milp.nodes",
        "milp.lp_pivots",
        "milp.prune.parent_bound",
        "milp.prune.bound",
        "milp.prune.infeasible",
        "milp.prune.iteration_limit",
    ]
    .iter()
    .map(|name| obs.counter(name))
    .collect();
    format!(
        "(\"{label}\", {:#018x}, {:#018x}, {counters:?}),",
        fnv(&format!("{result:?}")),
        fnv(&events)
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for n in [8, 10, 12, 14, 16] {
        let problem = branchy(n);
        out.push(row(
            &format!("branchy{n}"),
            &problem,
            config(None, None, None),
        ));
        for limit in [3, 7, 20, 40] {
            out.push(row(
                &format!("branchy{n}/nodes{limit}"),
                &problem,
                config(Some(limit), None, None),
            ));
        }
    }
    for n in [10, 12, 14] {
        out.push(row(
            &format!("partition{n}"),
            &hard_partition(n),
            config(None, None, None),
        ));
    }
    out.push(row(
        "partition16/nodes50/gap0",
        &hard_partition(16),
        config(Some(50), Some(0.0), None),
    ));
    out.push(row(
        "partition14/gap0.25",
        &hard_partition(14),
        config(None, Some(0.25), None),
    ));
    let problem = hard_partition(12);
    let optimum = problem
        .solve(&config(None, None, None))
        .expect("partition12 solves")
        .values;
    for (label, limit) in [
        ("warm", None),
        ("warm/nodes0", Some(0)),
        ("warm/nodes5", Some(5)),
    ] {
        out.push(row(
            &format!("partition12/{label}"),
            &problem,
            config(limit, None, Some(optimum.clone())),
        ));
    }
    out.push(row("infeasible", &infeasible(), config(None, None, None)));
    out.push(row(
        "branchy10/nodes0",
        &branchy(10),
        config(Some(0), None, None),
    ));
    out
}

/// `(case, result digest, event digest, [nodes, pivots, prune.parent_bound,
/// prune.bound, prune.infeasible, prune.iteration_limit])`.
const GOLDEN: &[(&str, u64, u64, [u64; 6])] = &[
    (
        "branchy8",
        0xc52f33f3eea958a9,
        0x8a22e577ab8ffbf4,
        [9, 70, 0, 5, 0, 0],
    ),
    (
        "branchy8/nodes3",
        0x00d6cc3d41247fc2,
        0x76cd91a230c44104,
        [3, 24, 0, 0, 0, 0],
    ),
    (
        "branchy8/nodes7",
        0x0d4c749031f157e0,
        0x8be91bac40f32294,
        [7, 56, 0, 3, 0, 0],
    ),
    (
        "branchy8/nodes20",
        0xc52f33f3eea958a9,
        0x8a22e577ab8ffbf4,
        [9, 70, 0, 5, 0, 0],
    ),
    (
        "branchy8/nodes40",
        0xc52f33f3eea958a9,
        0x8a22e577ab8ffbf4,
        [9, 70, 0, 5, 0, 0],
    ),
    (
        "branchy10",
        0xfe57717bc61f2e41,
        0x0182be5b0462b45f,
        [7, 38, 1, 1, 0, 0],
    ),
    (
        "branchy10/nodes3",
        0xf99c6aa264a90153,
        0x4a1a39bb4d198799,
        [3, 19, 0, 0, 0, 0],
    ),
    (
        "branchy10/nodes7",
        0xfe57717bc61f2e41,
        0x0182be5b0462b45f,
        [7, 38, 1, 1, 0, 0],
    ),
    (
        "branchy10/nodes20",
        0xfe57717bc61f2e41,
        0x0182be5b0462b45f,
        [7, 38, 1, 1, 0, 0],
    ),
    (
        "branchy10/nodes40",
        0xfe57717bc61f2e41,
        0x0182be5b0462b45f,
        [7, 38, 1, 1, 0, 0],
    ),
    (
        "branchy12",
        0xe207bb819f289774,
        0xa3991d14921dfb71,
        [115, 999, 10, 43, 5, 0],
    ),
    (
        "branchy12/nodes3",
        0xf99c6aa264a90153,
        0xcde9ab5ebebaf37a,
        [3, 26, 0, 0, 0, 0],
    ),
    (
        "branchy12/nodes7",
        0xe4b464f0e2457f54,
        0x9822ac4627f24e1f,
        [7, 40, 0, 0, 0, 0],
    ),
    (
        "branchy12/nodes20",
        0x5a0220b4e9d973e1,
        0x7b7f75a2a10d05e6,
        [20, 148, 0, 0, 2, 0],
    ),
    (
        "branchy12/nodes40",
        0x78e73c4fdba9cd21,
        0xba7c9e5d7a39659e,
        [40, 345, 0, 1, 4, 0],
    ),
    (
        "branchy14",
        0x490f8af1e8e2d3e4,
        0xd47fbce8626ff41a,
        [87, 1017, 0, 44, 0, 0],
    ),
    (
        "branchy14/nodes3",
        0xa08d86d63c403bfd,
        0x6f42faeb6b0d9a17,
        [3, 35, 0, 0, 0, 0],
    ),
    (
        "branchy14/nodes7",
        0xeafa4872c1b24d25,
        0x18be815d949066d6,
        [7, 85, 0, 0, 0, 0],
    ),
    (
        "branchy14/nodes20",
        0x4e0abbdab9993f5b,
        0x1732a813bd3d2762,
        [20, 250, 0, 2, 0, 0],
    ),
    (
        "branchy14/nodes40",
        0x9ac8e810e5db942b,
        0xe712a1833d13aaa4,
        [40, 455, 0, 9, 0, 0],
    ),
    (
        "branchy16",
        0xa28200d608e2a9cd,
        0x176044e15d2c1a84,
        [111, 1489, 0, 52, 4, 0],
    ),
    (
        "branchy16/nodes3",
        0xf99c6aa264a90153,
        0xcb273ef40935cc92,
        [3, 35, 0, 0, 0, 0],
    ),
    (
        "branchy16/nodes7",
        0xf99c6aa264a90153,
        0xcb273ef40935cc92,
        [7, 88, 0, 0, 0, 0],
    ),
    (
        "branchy16/nodes20",
        0x51c8aeb64f67e9cb,
        0x4651cd87e73c0c42,
        [20, 246, 0, 0, 1, 0],
    ),
    (
        "branchy16/nodes40",
        0x12b58fc4f8513e26,
        0x0c58c0ee41a8bde7,
        [40, 510, 0, 2, 3, 0],
    ),
    (
        "partition10",
        0x02b9978a87f8e2c0,
        0xb04a016bc34f9dc3,
        [72, 507, 0, 30, 0, 0],
    ),
    (
        "partition12",
        0x7e261659c62b46fc,
        0x88f3be32c29630f7,
        [2971, 24412, 0, 1484, 0, 0],
    ),
    (
        "partition14",
        0xd6cbd023f9b4221d,
        0xbc738657d35967e7,
        [86, 809, 0, 35, 0, 0],
    ),
    (
        "partition16/nodes50/gap0",
        0x97c2472146985f44,
        0xde6f49c75d870ab1,
        [50, 542, 0, 18, 0, 0],
    ),
    (
        "partition14/gap0.25",
        0x54adee51010f9b83,
        0xe8ed6961d2cd7584,
        [9, 108, 0, 0, 0, 0],
    ),
    (
        "partition12/warm",
        0x7e261659c62b46fc,
        0x8a99afc693e27e43,
        [2971, 24412, 0, 1486, 0, 0],
    ),
    (
        "partition12/warm/nodes0",
        0x549808f213edd7a6,
        0xe33e605650e35d7e,
        [0, 0, 0, 0, 0, 0],
    ),
    (
        "partition12/warm/nodes5",
        0x2f87bb590c920440,
        0xe38360f5f539c1c1,
        [5, 45, 0, 0, 0, 0],
    ),
    (
        "infeasible",
        0x9cff6cccac5b2f6d,
        0xcbf29ce484222325,
        [1, 0, 0, 0, 0, 0],
    ),
    (
        "branchy10/nodes0",
        0xf99c6aa264a90153,
        0xcbf29ce484222325,
        [0, 0, 0, 0, 0, 0],
    ),
];

#[test]
fn serial_search_matches_the_goldens() {
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|(label, result, events, counters)| {
            format!("(\"{label}\", {result:#018x}, {events:#018x}, {counters:?}),")
        })
        .collect();
    let got = rows();
    assert_eq!(got.len(), 35);
    assert!(
        got == want,
        "golden table drifted; now:\n{}",
        got.join("\n")
    );
}
