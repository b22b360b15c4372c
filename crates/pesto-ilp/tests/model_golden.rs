//! Golden digests of the 2-GPU Pesto ILP as built by `IlpModel::build`.
//!
//! Each case builds the model of one graph under one memory rule, with
//! congestion rows on or off, and hashes the `Debug` text of the LP (every
//! variable's name, bounds and cost, every row's terms, relation and
//! right-hand side, in order), the binary list and the big-M horizon. A
//! change to the formulation that moves a single coefficient, renames a
//! variable or reorders a row fails here.

use pesto_coarsen::{coarsen, CoarsenConfig};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, OpGraph};
use pesto_ilp::{IlpConfig, IlpModel, MemoryRule};
use pesto_models::ModelSpec;

/// FNV-1a over the bytes of a string.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seven ops: two CPU ops feeding and draining five GPU ops over CPU↔GPU
/// edges, two of the GPU ops in one colocation group.
fn toy() -> FrozenGraph {
    let mut g = OpGraph::new("toy");
    let input = g.add_op("input", DeviceKind::Cpu, 20.0, 0);
    let a = g.add_op("a", DeviceKind::Gpu, 40.0, 1 << 20);
    let b = g.add_op("b", DeviceKind::Gpu, 60.0, 3 << 20);
    let c = g.add_op("c", DeviceKind::Gpu, 30.0, 2 << 20);
    let d = g.add_op("d", DeviceKind::Gpu, 50.0, 1 << 20);
    let e = g.add_op("e", DeviceKind::Gpu, 25.0, 4 << 20);
    let output = g.add_op("output", DeviceKind::Cpu, 15.0, 0);
    g.add_edge(input, a, 1 << 16).unwrap();
    g.add_edge(input, b, 1 << 18).unwrap();
    g.add_edge(a, c, 1 << 20).unwrap();
    g.add_edge(b, d, 1 << 14).unwrap();
    g.add_edge(a, e, 1 << 12).unwrap();
    g.add_edge(c, output, 1 << 10).unwrap();
    g.add_edge(d, output, 1 << 10).unwrap();
    g.op_mut(c).set_colocation_group(Some(3));
    g.op_mut(d).set_colocation_group(Some(3));
    g.freeze().unwrap()
}

fn coarsened(graph: &FrozenGraph, vertices: usize) -> FrozenGraph {
    coarsen(graph, &CoarsenConfig::to_target(vertices))
        .coarse()
        .clone()
}

/// Every graph of the table, labelled.
fn graphs() -> Vec<(String, FrozenGraph)> {
    let mut out = vec![("toy".to_string(), toy())];
    let nasnet = ModelSpec::nasnet(2, 8);
    for (seed, vertices) in (1000..=1003).zip([6, 6, 8, 10]) {
        out.push((
            format!("nasnet{seed}/{vertices}"),
            coarsened(&nasnet.generate(16, seed), vertices),
        ));
    }
    let transformer = ModelSpec::transformer(1, 2, 64).generate(16, 1000);
    out.push(("transformer/8".to_string(), coarsened(&transformer, 8)));
    out
}

fn rows() -> Vec<String> {
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let rules = [
        ("off", MemoryRule::Off),
        ("balance", MemoryRule::Balance { slack: 0.2 }),
        ("capacity", MemoryRule::Capacity),
    ];
    let mut out = Vec::new();
    for (label, graph) in graphs() {
        for (rule_label, memory) in rules {
            for congestion in [true, false] {
                let config = IlpConfig {
                    congestion,
                    memory,
                    ..IlpConfig::default()
                };
                let model = IlpModel::build(&graph, &cluster, &comm, &config).unwrap();
                let text = format!(
                    "{:?}|{:?}|{}",
                    model.milp().lp(),
                    model.milp().binaries(),
                    model.horizon_us()
                );
                out.push(format!(
                    "(\"{label}/{rule_label}/congestion={congestion}\", {:#018x}),",
                    fnv(&text)
                ));
            }
        }
    }
    out
}

/// `(case, digest)`.
const GOLDEN: &[(&str, u64)] = &[
    ("toy/off/congestion=true", 0x1e3bbb387b0e89f0),
    ("toy/off/congestion=false", 0xac666354dffd4001),
    ("toy/balance/congestion=true", 0x7098d6ef5c43e795),
    ("toy/balance/congestion=false", 0x869b80c792c2ce36),
    ("toy/capacity/congestion=true", 0x038d5111442d6b38),
    ("toy/capacity/congestion=false", 0xa7d640cfe37b80e7),
    ("nasnet1000/6/off/congestion=true", 0xb29ff347f01f8b7f),
    ("nasnet1000/6/off/congestion=false", 0x8c23e7a09f740f4e),
    ("nasnet1000/6/balance/congestion=true", 0xe1a82e3008f98688),
    ("nasnet1000/6/balance/congestion=false", 0x49edcbd9fc9bdda5),
    ("nasnet1000/6/capacity/congestion=true", 0x907f4075066af166),
    ("nasnet1000/6/capacity/congestion=false", 0x4f1b0bc5f15c8487),
    ("nasnet1001/6/off/congestion=true", 0x775d3a5d30af331f),
    ("nasnet1001/6/off/congestion=false", 0xe544832d4a17674c),
    ("nasnet1001/6/balance/congestion=true", 0xfb2a88175028d114),
    ("nasnet1001/6/balance/congestion=false", 0x066df591f1e4adff),
    ("nasnet1001/6/capacity/congestion=true", 0x62c7c218b6c28f1e),
    ("nasnet1001/6/capacity/congestion=false", 0xd29aeba0500ff2b1),
    ("nasnet1002/8/off/congestion=true", 0xff071c97f38f88c4),
    ("nasnet1002/8/off/congestion=false", 0xa3bac892dfc108f0),
    ("nasnet1002/8/balance/congestion=true", 0xd239384c560a5d39),
    ("nasnet1002/8/balance/congestion=false", 0x975bda73fb80f8f5),
    ("nasnet1002/8/capacity/congestion=true", 0xcfc54ba86df1a267),
    ("nasnet1002/8/capacity/congestion=false", 0xe41e3b2596cb0ec1),
    ("nasnet1003/10/off/congestion=true", 0x26e7dc6bf756d050),
    ("nasnet1003/10/off/congestion=false", 0x7148bc18a74f04f2),
    ("nasnet1003/10/balance/congestion=true", 0xedbdeb8b0d44d9bd),
    ("nasnet1003/10/balance/congestion=false", 0x65dd70c31126bbf3),
    ("nasnet1003/10/capacity/congestion=true", 0x25e259f7238c2c29),
    (
        "nasnet1003/10/capacity/congestion=false",
        0x927ce6fc02868a73,
    ),
    ("transformer/8/off/congestion=true", 0x2a7add0ecdb4e801),
    ("transformer/8/off/congestion=false", 0xe1ade0872f35790f),
    ("transformer/8/balance/congestion=true", 0xc21acb0a55b4c9c5),
    ("transformer/8/balance/congestion=false", 0x2c6cc71a7ebb595f),
    ("transformer/8/capacity/congestion=true", 0x76ce6275c7e39e8f),
    (
        "transformer/8/capacity/congestion=false",
        0x99a1b5e5033f02f5,
    ),
];

#[test]
fn two_gpu_model_matches_the_goldens() {
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|(label, digest)| format!("(\"{label}\", {digest:#018x}),"))
        .collect();
    let got = rows();
    assert_eq!(got.len(), 36);
    assert!(
        got == want,
        "golden table drifted; now:\n{}",
        got.join("\n")
    );
}
