//! Golden digests of `Simulator::run` reports on generated model graphs.
//!
//! Each case simulates a fixed plan of an RNNLM, a NASNet-2-8 or a
//! Transformer-1-2-64 graph and hashes every field of the report: the
//! makespan, every op and transfer span, device and link busy times, the
//! fault attribution and the pipeline stats. The digests pin the
//! engine's output: an engine change that moves a single bit of any
//! report fails here.

use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, DeviceKind, FrozenGraph, LinkId, OpId, Placement, Plan};
use pesto_ilp::etf_schedule;
use pesto_models::ModelSpec;
use pesto_sim::{FaultPlan, SimReport, Simulator};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }
}

fn report_digest(r: &SimReport) -> u64 {
    let mut d = Digest::new();
    d.f(r.makespan_us);
    d.usize(r.op_spans.len());
    for s in &r.op_spans {
        d.usize(s.op.index());
        d.usize(s.device.index());
        d.f(s.start_us);
        d.f(s.finish_us);
        d.word(u64::from(s.step));
    }
    d.usize(r.transfer_spans.len());
    for t in &r.transfer_spans {
        d.usize(t.link.index());
        d.usize(t.src.index());
        d.usize(t.dst.index());
        d.word(t.bytes);
        d.f(t.queued_us);
        d.f(t.start_us);
        d.f(t.finish_us);
        d.word(u64::from(t.step));
    }
    d.usize(r.device_busy_us.len());
    r.device_busy_us.iter().for_each(|&b| d.f(b));
    d.usize(r.link_busy_us.len());
    r.link_busy_us.iter().for_each(|&b| d.f(b));
    d.f(r.faults.straggler_extra_us);
    d.f(r.faults.jitter_extra_us);
    d.f(r.faults.stall_delay_us);
    d.f(r.faults.degraded_transfer_extra_us);
    match &r.pipeline {
        None => d.word(0),
        Some(p) => {
            d.word(1);
            d.usize(p.steps);
            p.step_finish_us.iter().for_each(|&t| d.f(t));
            d.f(p.fill_us);
            d.f(p.steady_step_us);
            d.f(p.drain_us);
        }
    }
    d.0
}

fn plan_digest(plan: &Plan) -> u64 {
    let mut d = Digest::new();
    plan.placement
        .as_slice()
        .iter()
        .for_each(|dev| d.usize(dev.index()));
    if let Some(order) = &plan.order {
        for dev in 0..order.device_count() {
            let ops = order.on_device(DeviceId::from_index(dev));
            d.usize(ops.len());
            ops.iter().for_each(|op| d.usize(op.index()));
        }
    }
    d.0
}

/// A fixed scattered placement: GPU op `i` goes to GPU `hash(i) % k`, so
/// every case has cross-device traffic on every link.
fn scattered(graph: &FrozenGraph, cluster: &Cluster) -> Placement {
    let gpus = cluster.gpus();
    let mut p = Placement::affinity_default(graph, cluster);
    for i in 0..graph.op_count() {
        let id = OpId::from_index(i);
        if graph.op(id).kind() == DeviceKind::Gpu {
            let h = (i as u64 ^ 0x9e37_79b9).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 40;
            p.set_device(id, gpus[(h % gpus.len() as u64) as usize]);
        }
    }
    p
}

/// Every pinned run of one graph, as `(case, digest)` pairs.
fn digests(label: &str, graph: &FrozenGraph, cluster: &Cluster) -> Vec<(String, u64)> {
    let comm = CommModel::default_v100();
    let sim = || Simulator::new(graph, cluster, comm);
    let placement = scattered(graph, cluster);
    let etf = etf_schedule(graph, cluster, &comm, placement.clone(), &sim())
        .expect("ETF schedules the fixed placement")
        .plan;
    let loose = Plan::placement_only(placement);
    let run = |s: Simulator<'_>, plan: &Plan| report_digest(&s.run(plan).expect("plan simulates"));

    let clean = sim().run(&etf).expect("plan simulates");
    // Jitter and a straggler, plus a stall window on the busiest link that
    // opens just before its middle transfer of the stall-free faulted run:
    // everything before the window is unchanged, so that transfer stalls.
    let faults = FaultPlan::new(5)
        .with_compute_jitter(0.2)
        .with_straggler(cluster.gpu(1), 1.5);
    let unstalled = sim()
        .with_faults(faults.clone())
        .run(&etf)
        .expect("plan simulates");
    let mut per_link = vec![0usize; cluster.link_count()];
    for t in &unstalled.transfer_spans {
        per_link[t.link.index()] += 1;
    }
    let busiest = (0..per_link.len())
        .max_by_key(|&l| per_link[l])
        .expect("a link");
    let on_busiest: Vec<f64> = unstalled
        .transfer_spans
        .iter()
        .filter(|t| t.link.index() == busiest)
        .map(|t| t.start_us)
        .collect();
    let faults = faults.with_link_stall(
        LinkId::from_index(busiest),
        on_busiest[on_busiest.len() / 2] - 1.0,
        50.0,
    );

    let faulted = sim()
        .with_faults(faults.clone())
        .run(&etf)
        .expect("plan simulates");
    // The cases must exercise what they pin: cross-device transfers and
    // every injected fault class.
    assert!(!clean.transfer_spans.is_empty(), "{label}: no transfers");
    assert!(faulted.faults.jitter_extra_us != 0.0, "{label}: no jitter");
    assert!(
        faulted.faults.straggler_extra_us > 0.0,
        "{label}: no straggler"
    );
    assert!(faulted.faults.stall_delay_us > 0.0, "{label}: no stall");

    vec![
        ("etf plan", plan_digest(&etf)),
        ("etf", report_digest(&clean)),
        ("random seed 1", run(sim().with_seed(1), &loose)),
        ("random seed 2", run(sim().with_seed(2), &loose)),
        ("steps 3", run(sim().with_steps(3), &etf)),
        ("infinite links", run(sim().with_infinite_links(true), &etf)),
        ("faults", report_digest(&faulted)),
        (
            "steps 3 faults",
            run(sim().with_steps(3).with_faults(faults), &etf),
        ),
    ]
    .into_iter()
    .map(|(case, digest)| (format!("{label} {case}"), digest))
    .collect()
}

const GOLDEN: &[(&str, u64)] = &[
    ("rnnlm etf plan", 0x2c658dcd6c6ab251),
    ("rnnlm etf", 0xb720548577d56688),
    ("rnnlm random seed 1", 0x0eff9ea87f5393fa),
    ("rnnlm random seed 2", 0x050067b417db37e0),
    ("rnnlm steps 3", 0x162a8c6ff9d611b3),
    ("rnnlm infinite links", 0x96b16ca3fda6a403),
    ("rnnlm faults", 0x47d662e0e583eb73),
    ("rnnlm steps 3 faults", 0xea21dd3a2a893d4f),
    ("nasnet etf plan", 0xa0eb9c6add806ed8),
    ("nasnet etf", 0x85dd751ee922c307),
    ("nasnet random seed 1", 0x9147dc6dc9056c1a),
    ("nasnet random seed 2", 0xb239fb41452aa92b),
    ("nasnet steps 3", 0x96179e5cc343617a),
    ("nasnet infinite links", 0xb893b0795b7ca917),
    ("nasnet faults", 0x82e63a9f56acbabd),
    ("nasnet steps 3 faults", 0xb4113c86ff07c030),
    ("transformer etf plan", 0x7c9ccacb9768dd41),
    ("transformer etf", 0xe9a455d9d2af1baf),
    ("transformer random seed 1", 0xb5204b15df1b150b),
    ("transformer random seed 2", 0x243d10813a85bf7f),
    ("transformer steps 3", 0x6eaded375e73d5bb),
    ("transformer infinite links", 0x1668792945b26c91),
    ("transformer faults", 0x5a327f08aa3d7bdc),
    ("transformer steps 3 faults", 0xc4e318e8ffa67875),
];

#[test]
fn simulator_reports_match_their_golden_digests() {
    let rnnlm = ModelSpec::rnnlm(2, 256).generate_scaled(64, 7, 0.1);
    let nasnet = ModelSpec::nasnet(2, 8).generate(32, 7);
    let transformer = ModelSpec::transformer(1, 2, 64).generate(32, 7);
    let two = Cluster::two_gpus();
    let four = Cluster::homogeneous(4, 16 << 30);
    let mut got = digests("rnnlm", &rnnlm, &two);
    got.extend(digests("nasnet", &nasnet, &two));
    got.extend(digests("transformer", &transformer, &four));
    let rendered: Vec<String> = got
        .iter()
        .map(|(case, d)| format!("    (\"{case}\", 0x{d:016x}),"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "digests:\n{}", rendered.join("\n"));
    for ((case, digest), &(want_case, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(case, want_case);
        assert_eq!(*digest, want, "{case}: report digest changed");
    }
}
