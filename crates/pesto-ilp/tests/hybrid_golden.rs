//! Golden digests of the annealing search (`HybridSolver::solve`).
//!
//! Each case solves one coarsened model graph under `HybridConfig::quick()`
//! with the mSCT and mETF placements as seeds, and hashes three things:
//! the returned plan with its makespan, the final search state (every
//! restart's RNG, iteration, temperatures, placements and incumbent cost,
//! floats by their bits), and the `hybrid.evaluations` and
//! `hybrid.accepted` counters. The digests pin the whole trajectory: a
//! change to the evaluator or the annealer that moves one candidate's
//! cost, one RNG draw or one accept decision fails here. No case sets a
//! deadline or a cancel token; both depend on the wall clock.

use pesto_baselines::{m_etf, m_sct};
use pesto_coarsen::{coarsen, CoarsenConfig};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, Placement};
use pesto_ilp::{CheckpointSink, HybridConfig, HybridOutcome, HybridSearchState, HybridSolver};
use pesto_models::ModelSpec;
use pesto_obs::Obs;
use std::sync::{Arc, Mutex};

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

    fn placement(&mut self, p: &Placement) {
        self.word(p.op_count() as u64);
        p.as_slice()
            .iter()
            .for_each(|d| self.word(d.index() as u64));
    }
}

fn state_digest(state: &HybridSearchState) -> u64 {
    let mut d = Digest::new();
    d.word(state.restarts.len() as u64);
    for r in &state.restarts {
        r.rng.iter().for_each(|&w| d.word(w));
        d.word(r.next_iter as u64);
        d.word(r.temp.to_bits());
        d.word(r.t0.to_bits());
        d.placement(&r.placement);
        d.placement(&r.best_placement);
        d.word(r.best_cost.to_bits());
    }
    d.0
}

/// The three digests of one solve: plan and makespan, final search state,
/// and the search-effort counters.
fn digests(label: &str, out: &HybridOutcome, obs: &Obs) -> Vec<(String, u64)> {
    let mut plan = Digest::new();
    plan.bytes(format!("{:?}", out.plan).as_bytes());
    plan.word(out.makespan_us.to_bits());
    let state = state_digest(out.search_state.as_ref().expect("every chain finished"));
    let mut counters = Digest::new();
    counters.word(obs.counter("hybrid.evaluations"));
    counters.word(obs.counter("hybrid.accepted"));
    vec![
        (format!("{label} plan"), plan.0),
        (format!("{label} state"), state),
        (format!("{label} counters"), counters.0),
    ]
}

fn coarse(graph: &FrozenGraph, target: usize) -> FrozenGraph {
    let coarse = coarsen(graph, &CoarsenConfig::to_target(target))
        .coarse()
        .clone();
    assert!(coarse.op_count() > target / 2 && coarse.op_count() <= target);
    coarse
}

/// `HybridConfig::quick()` seeded with the graph's mSCT and mETF
/// placements, recording into `obs`.
fn seeded(graph: &FrozenGraph, cluster: &Cluster, obs: &Obs) -> HybridConfig {
    let comm = CommModel::default_v100();
    HybridConfig {
        initial_placements: vec![
            m_sct(graph, cluster, &comm).placement,
            m_etf(graph, cluster, &comm).placement,
        ],
        obs: obs.clone(),
        ..HybridConfig::quick()
    }
}

fn solve(
    label: &str,
    graph: &FrozenGraph,
    cluster: &Cluster,
    tweak: impl Fn(&mut HybridConfig),
) -> Vec<(String, u64)> {
    let obs = Obs::enabled();
    let mut config = seeded(graph, cluster, &obs);
    tweak(&mut config);
    let out = HybridSolver::new(config)
        .solve(graph, cluster, &CommModel::default_v100())
        .expect("search succeeds");
    digests(label, &out, &obs)
}

/// Every pinned solve, as `(case, digest)` pairs.
fn all_digests() -> Vec<(String, u64)> {
    let nasnet = coarse(&ModelSpec::nasnet(2, 8).generate(32, 7), 32);
    let transformer = coarse(&ModelSpec::transformer(1, 2, 64).generate(32, 7), 32);
    let rnnlm = coarse(&ModelSpec::rnnlm(2, 256).generate_scaled(64, 7, 0.1), 64);
    let two = Cluster::two_gpus();
    let four = Cluster::homogeneous(4, 16 << 30);
    let mut got = Vec::new();
    for (name, graph) in [
        ("nasnet", &nasnet),
        ("transformer", &transformer),
        ("rnnlm", &rnnlm),
    ] {
        got.extend(solve(&format!("{name} 2gpu"), graph, &two, |_| {}));
        got.extend(solve(&format!("{name} 4gpu"), graph, &four, |_| {}));
    }
    // Every third vertex pinned: unseeded restarts keep the units holding
    // one at the first seed's placement.
    let pinned: Vec<bool> = (0..rnnlm.op_count()).map(|i| i % 3 == 0).collect();
    got.extend(solve("rnnlm pinned", &rnnlm, &four, |c| {
        c.pinned = Some(pinned.clone());
    }));

    // Colocation groups: GPU vertices are drawn into three groups, every
    // fourth vertex staying ungrouped, so units of one to several ops mix.
    let mut grouped = transformer.clone().thaw();
    let gpu_ops: Vec<_> = transformer
        .op_ids()
        .filter(|&id| transformer.op(id).kind() == DeviceKind::Gpu)
        .collect();
    for (k, &id) in gpu_ops.iter().enumerate() {
        if k % 4 != 0 {
            grouped
                .op_mut(id)
                .set_colocation_group(Some((k % 3) as u32));
        }
    }
    let grouped = grouped.freeze().expect("same edges");
    got.extend(solve("transformer colocation", &grouped, &two, |_| {}));

    // Incumbent exchange, then a resume from its first mid-run snapshot.
    // Under exchange the chains run in lockstep segments and publish at
    // each boundary; with the checkpoint cadence equal to the segment
    // length no chain publishes mid-segment, so the first snapshot is the
    // same on every run (all chains at iteration 100).
    let seen: Arc<Mutex<Vec<HybridSearchState>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = seen.clone();
    let sink = CheckpointSink::new(move |s| sink_seen.lock().unwrap().push(s.clone()));
    got.extend(solve("nasnet exchange", &nasnet, &two, |c| {
        c.exchange_every = 100;
        c.checkpoint_every = 100;
        c.checkpoint_sink = Some(sink.clone());
    }));
    let first = seen
        .lock()
        .unwrap()
        .iter()
        .find(|s| s.restarts.iter().any(|r| !r.finished))
        .expect("a mid-run snapshot")
        .clone();
    assert!(first.restarts.iter().all(|r| r.next_iter == 100));
    let obs = Obs::enabled();
    let resumed = HybridSolver::new(HybridConfig {
        exchange_every: 100,
        obs: obs.clone(),
        ..HybridConfig::quick()
    })
    .resume(&nasnet, &two, &CommModel::default_v100(), first)
    .expect("resume succeeds");
    got.extend(digests("nasnet resumed", &resumed, &obs));
    got
}

const GOLDEN: &[(&str, u64)] = &[
    ("nasnet 2gpu plan", 0xb675ae5c738f079f),
    ("nasnet 2gpu state", 0x7c7fa4e6f03e3030),
    ("nasnet 2gpu counters", 0xce6441edc38780f4),
    ("nasnet 4gpu plan", 0xf5e0546bdc42a927),
    ("nasnet 4gpu state", 0xe5204973ff919b90),
    ("nasnet 4gpu counters", 0x8844ec2405233dba),
    ("transformer 2gpu plan", 0xf4a2482bf8c5090d),
    ("transformer 2gpu state", 0x329c0832a9dc8dc9),
    ("transformer 2gpu counters", 0xaf9f67a0fb41d536),
    ("transformer 4gpu plan", 0x9d142b525bfe9e82),
    ("transformer 4gpu state", 0xde6c461932cc8557),
    ("transformer 4gpu counters", 0x24f8734460301ae0),
    ("rnnlm 2gpu plan", 0x59aa4ec19a9ccfe4),
    ("rnnlm 2gpu state", 0x94f554025cb76e99),
    ("rnnlm 2gpu counters", 0x3a5504c46585f74d),
    ("rnnlm 4gpu plan", 0x42cb387c11f9fadc),
    ("rnnlm 4gpu state", 0x56c8daa7e46fd04b),
    ("rnnlm 4gpu counters", 0x19889f384762196b),
    ("rnnlm pinned plan", 0x835c1f5ecfd439c6),
    ("rnnlm pinned state", 0x62dd8126d036b4e3),
    ("rnnlm pinned counters", 0x5c748c0453849b29),
    ("transformer colocation plan", 0xf4a2482bf8c5090d),
    ("transformer colocation state", 0xc45014ddb6dd6653),
    ("transformer colocation counters", 0xb975872e3aeef5ed),
    ("nasnet exchange plan", 0xb675ae5c738f079f),
    ("nasnet exchange state", 0x6a590008fcf59312),
    ("nasnet exchange counters", 0x2c941c9699143018),
    ("nasnet resumed plan", 0xb675ae5c738f079f),
    ("nasnet resumed state", 0x6a590008fcf59312),
    ("nasnet resumed counters", 0xf1cc631ff6d32467),
];

#[test]
fn hybrid_search_matches_its_golden_digests() {
    let got = all_digests();
    let rendered: Vec<String> = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", 0x{d:016x}),"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "digests:\n{}", rendered.join("\n"));
    for ((case, digest), &(want_case, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(case, want_case);
        assert_eq!(*digest, want, "{case}: search digest changed");
    }
}
