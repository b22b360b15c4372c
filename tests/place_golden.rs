//! Golden digests of whole placements (`Pesto::place`).
//!
//! Each case places one model graph on `Cluster::two_gpus()` with
//! telemetry on and pins what the run returned and how hard it searched:
//!
//! - the placement as the benchmark prints it (FNV-1a over device
//!   indices, so a pinned value can be compared with a `perfbench` run);
//! - an FNV-1a digest of the placement, the per-device order and the
//!   makespan bits;
//! - the makespan's bits;
//! - the annealing and refinement counters.
//!
//! The two large cases are the benchmark's graph 0 of `place_rnnlm` and
//! of `place_sharded`, under the benchmark's configurations. A change to
//! the evaluator, the annealer or the refinement that moves one cost, one
//! RNG draw or one accept decision fails here. No case sets a time budget;
//! a deadline depends on the wall clock.

use pesto::graph::{Cluster, FrozenGraph, Plan};
use pesto::models::ModelSpec;
use pesto::obs::Obs;
use pesto::shard::ShardConfig;
use pesto::{Pesto, PestoConfig, PestoOutcome};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// The benchmark's placement digest: FNV-1a folding in one device index
/// per op, not its bytes.
fn placement_digest(plan: &Plan) -> u64 {
    plan.placement
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, d| {
            (h ^ d.index() as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a over the placement, every device's order and the makespan bits.
fn plan_digest(outcome: &PestoOutcome) -> u64 {
    let plan = &outcome.plan;
    let mut d = Digest::new();
    d.word(plan.placement.op_count() as u64);
    for dev in plan.placement.as_slice() {
        d.word(dev.index() as u64);
    }
    let order = plan
        .order
        .as_ref()
        .expect("the pipeline schedules explicitly");
    d.word(order.device_count() as u64);
    for k in 0..order.device_count() {
        let ops = order.on_device(pesto::graph::DeviceId::from_index(k));
        d.word(ops.len() as u64);
        for op in ops {
            d.word(op.index() as u64);
        }
    }
    d.word(outcome.makespan_us.to_bits());
    d.0
}

const COUNTERS: [&str; 5] = [
    "hybrid.evaluations",
    "hybrid.accepted",
    "hybrid.unchanged_swaps",
    "refine.evaluations",
    "refine.improvements",
];

/// What one case pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    placement: u64,
    plan: u64,
    makespan_bits: u64,
    counters: [u64; 5],
}

fn place(graph: &FrozenGraph, config: PestoConfig) -> Pinned {
    let obs = Obs::enabled();
    let outcome = Pesto::new(PestoConfig {
        obs: obs.clone(),
        ..config
    })
    .place(graph, &Cluster::two_gpus())
    .expect("the graph places");
    assert_eq!(outcome.degradation, None, "{}", graph.name());
    Pinned {
        placement: placement_digest(&outcome.plan),
        plan: plan_digest(&outcome),
        makespan_bits: outcome.makespan_us.to_bits(),
        counters: COUNTERS.map(|name| obs.counter(name)),
    }
}

/// `place_rnnlm`'s graph 0: RNNLM-2-1024 at a quarter of its unrolled
/// length (1,110 ops), default configuration, one solver thread.
#[test]
fn rnnlm_2_default_config() {
    let spec = ModelSpec::rnnlm(2, 1024);
    let graph = spec.generate_scaled(128, 1000, 0.25);
    let got = place(
        &graph,
        PestoConfig {
            solver_threads: 1,
            ..PestoConfig::default()
        },
    );
    assert_eq!(
        got,
        Pinned {
            placement: 0x2a8a_bf74_0acf_fddc,
            plan: 0x49ca_c389_a63a_32e8,
            makespan_bits: 0x40e3_9525_ce25_0493,
            counters: [12_505, 6_183, 1_690, 519, 34],
        }
    );
}

/// `place_sharded`'s graph 0: RNNLM-4-1024 at a quarter of its unrolled
/// length (2,074 ops), sharded with the default region cap, two threads.
#[test]
fn rnnlm_4_sharded() {
    let spec = ModelSpec::rnnlm(4, 1024);
    let graph = spec.generate_scaled(128, 1000, 0.25);
    let got = place(
        &graph,
        PestoConfig {
            solver_threads: 2,
            shard: Some(ShardConfig::default()),
            ..PestoConfig::default()
        },
    );
    assert_eq!(
        got,
        Pinned {
            placement: 0xd917_4b22_cf13_dff6,
            plan: 0xe86c_c2a1_4d3c_3608,
            makespan_bits: 0x40ed_4119_bc6f_c5c2,
            counters: [10_004, 4_526, 1_321, 1_563, 61],
        }
    );
}

/// Two small graphs under the test configuration.
#[test]
fn small_graphs_fast_config() {
    let transformer = ModelSpec::transformer(1, 2, 64).generate(4, 1000);
    let nasnet = ModelSpec::nasnet(2, 8).generate(16, 1000);
    let got = [&transformer, &nasnet].map(|g| place(g, PestoConfig::fast()));
    assert_eq!(
        got,
        [
            Pinned {
                placement: 0x28cf_0918_3224_a301,
                plan: 0xb92a_8990_046f_359a,
                makespan_bits: 0x40bb_ed97_8434_4b8c,
                counters: [2_005, 965, 301, 64, 9],
            },
            Pinned {
                placement: 0x346c_15cb_4289_340a,
                plan: 0xa99e_8102_a72b_4e05,
                makespan_bits: 0x4095_0553_71ed_18f9,
                counters: [2_005, 662, 430, 63, 0],
            },
        ]
    );
}
