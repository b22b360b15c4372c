//! Golden digests of the exact 2-GPU ILP solved to proven optimality.
//!
//! Each case builds the model of one coarsened NASNet-2-8 graph with
//! `IlpModel::build` and solves it with the `threads = 1` branch and
//! bound under the `ilp_exact` benchmark's settings: congestion rows on,
//! the balanced memory rule with slack 0.2, no node limit and a time limit
//! that never binds. It pins an FNV-1a digest of the `Debug` text of the
//! whole result (or the error), a digest of the solver-event sequence, the
//! node, pivot and prune counters, and the bits of the decoded `C_max`.
//! Every node LP runs the simplex from a fresh tableau, so a change to a
//! pivot's arithmetic that moves one pricing decision or ratio test shows
//! up here as moved counters or digests. One case ends without a solution
//! when a node LP runs out of pivots.

use pesto_coarsen::{coarsen, CoarsenConfig};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, FrozenGraph};
use pesto_ilp::{IlpConfig, IlpModel, MemoryRule};
use pesto_milp::MilpConfig;
use pesto_models::ModelSpec;
use pesto_obs::Obs;
use std::time::Duration;

/// FNV-1a over the bytes of a string.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn coarsened(seed: u64, vertices: usize) -> FrozenGraph {
    let graph = ModelSpec::nasnet(2, 8).generate(16, seed);
    coarsen(&graph, &CoarsenConfig::to_target(vertices))
        .coarse()
        .clone()
}

/// One solve's pinned outputs, printed as a row of the golden table.
fn row(seed: u64, vertices: usize) -> String {
    let graph = coarsened(seed, vertices);
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let obs = Obs::enabled();
    let config = IlpConfig {
        congestion: true,
        memory: MemoryRule::Balance { slack: 0.2 },
        milp: MilpConfig {
            time_limit: Duration::from_secs(3600),
            node_limit: usize::MAX,
            threads: 1,
            obs: obs.clone(),
            ..MilpConfig::default()
        },
    };
    let model = IlpModel::build(&graph, &cluster, &comm, &config).expect("2-GPU model builds");
    let result = model.milp().solve(&config.milp);
    let cmax = match &result {
        Ok(solution) => format!("{:#018x}", model.decode(solution).cmax_us.to_bits()),
        Err(_) => "-".to_string(),
    };
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
        "(\"nasnet{seed}/{vertices}\", {:#018x}, {:#018x}, {counters:?}, \"{cmax}\"),",
        fnv(&format!("{result:?}")),
        fnv(&events)
    )
}

/// `(case, result digest, event digest, [nodes, pivots, prune.parent_bound,
/// prune.bound, prune.infeasible, prune.iteration_limit], C_max bits or
/// "-" for an error)`.
const GOLDEN: &[(&str, u64, u64, [u64; 6], &str)] = &[
    (
        "nasnet1000/6",
        0xd0a08cada3c38620,
        0x458ad021c059583e,
        [129, 10786, 5, 39, 17, 0],
        "0x40c015fe7ea48357",
    ),
    (
        "nasnet1001/6",
        0x04d182fd4ee46633,
        0xeb6cb32e20521c46,
        [147, 13224, 0, 56, 13, 0],
        "0x40c0152d532aa7cb",
    ),
    (
        "nasnet1002/6",
        0xff814971042b5f43,
        0x07632d202f03b65e,
        [143, 12761, 3, 46, 18, 0],
        "0x40c019a68b11c82a",
    ),
    (
        "nasnet1003/6",
        0x14bcb892b03b5aeb,
        0xc889b6c98ad8db0a,
        [167, 16288, 0, 57, 19, 0],
        "0x40c017a0f4367c03",
    ),
    (
        "nasnet1000/7",
        0x79c4ab9d551c8c24,
        0x39438928182383c3,
        [365, 57744, 0, 113, 40, 0],
        "0x40b759eade8bf018",
    ),
    (
        "nasnet1001/8",
        0xd277795430ac0c3e,
        0xdf7c2fd72b815176,
        [303, 82441, 1, 100, 29, 0],
        "0x40a7af883d7fd800",
    ),
    (
        "nasnet1000/8",
        0xf99c6aa264a90153,
        0x8bf8c46e845b9b36,
        [6, 1242, 0, 0, 0, 1],
        "-",
    ),
];

#[test]
fn exact_solves_match_the_goldens() {
    let cases = [
        (1000, 6),
        (1001, 6),
        (1002, 6),
        (1003, 6),
        (1000, 7),
        (1001, 8),
        (1000, 8),
    ];
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|(label, result, events, counters, cmax)| {
            format!("(\"{label}\", {result:#018x}, {events:#018x}, {counters:?}, \"{cmax}\"),")
        })
        .collect();
    let got: Vec<String> = cases.iter().map(|&(seed, v)| row(seed, v)).collect();
    assert!(
        got == want,
        "golden table drifted; now:\n{}",
        got.join("\n")
    );
}
