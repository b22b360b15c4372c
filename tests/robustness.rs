//! Robustness integration tests: the degradation ladder under a wall-clock
//! budget, post-outage plan repair, Monte-Carlo sweep determinism, and
//! degenerate inputs (empty graphs, deadlocked schedules, dead clusters).

use pesto::cost::CommModel;
use pesto::graph::{Cluster, DeviceKind, GraphError, OpGraph, Placement, Plan, ScheduleOrder};
use pesto::ilp::{HybridConfig, PlacerConfig, SolvePath};
use pesto::models::ModelSpec;
use pesto::sim::{FaultPlan, SimError, Simulator};
use pesto::{
    evaluate_plan, evaluate_robustness, repair_after_outage, Pesto, PestoConfig, PestoError,
    RobustnessConfig, StepOutcome,
};
use std::time::{Duration, Instant};

fn comm() -> CommModel {
    CommModel::default_v100()
}

#[test]
fn tight_budget_degrades_instead_of_overrunning() {
    // A search that would run for minutes (millions of annealing
    // iterations) under a sub-second budget: the ladder must hand back a
    // valid plan with the fallback recorded, in roughly the budget.
    let graph = ModelSpec::nasnet(3, 16).generate(32, 1);
    let cluster = Cluster::two_gpus();
    let budget = Duration::from_millis(800);
    let config = PestoConfig {
        placer: PlacerConfig {
            hybrid: HybridConfig {
                iterations: 2_000_000,
                restarts: 8,
                ..HybridConfig::default()
            },
            ..PlacerConfig::default()
        },
        time_budget: Some(budget),
        ..PestoConfig::fast()
    };
    let start = Instant::now();
    let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
    let elapsed = start.elapsed();
    assert!(
        outcome.degradation.is_some(),
        "a search this large cannot finish inside {budget:?}"
    );
    assert!(outcome.plan.validate(&graph, &cluster).is_ok());
    assert!(outcome.makespan_us > 0.0);
    // "~2x the budget": the deadline is cooperative, so allow the final
    // profiling/simulation work its share, but minutes would be a bug.
    assert!(
        elapsed < budget * 4,
        "ladder overran: {elapsed:?} for a {budget:?} budget"
    );
}

#[test]
fn zero_budget_lands_on_the_bottom_rung() {
    let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
    let cluster = Cluster::two_gpus();
    let config = PestoConfig {
        time_budget: Some(Duration::ZERO),
        ..PestoConfig::fast()
    };
    let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
    assert_eq!(outcome.path, SolvePath::SingleDevice);
    assert!(outcome.degradation.is_some());
    assert!(outcome.plan.validate(&graph, &cluster).is_ok());
}

#[test]
fn outage_kills_the_plan_and_repair_revives_it() {
    let graph = ModelSpec::transformer(2, 2, 64).generate(4, 1);
    let cluster = Cluster::homogeneous(3, 1 << 34);
    let outcome = Pesto::new(PestoConfig::fast())
        .place(&graph, &cluster)
        .unwrap();

    // Fail a GPU that actually hosts work.
    let failed = graph
        .op_ids()
        .map(|op| outcome.plan.placement.device(op))
        .find(|&d| d != cluster.cpu())
        .expect("some op runs on a GPU");

    // The original plan cannot survive the outage...
    let err = Simulator::new(&graph, &cluster, comm())
        .with_faults(FaultPlan::new(1).with_outage(failed, 0.0))
        .run(&outcome.plan)
        .unwrap_err();
    assert!(
        matches!(err, SimError::DeviceLost { device, .. } if device == failed),
        "expected DeviceLost for {failed:?}, got {err}"
    );

    // ...but the repaired plan runs on the survivors. A small budget buys
    // the bounded local search on top of the greedy re-placement.
    let repair = repair_after_outage(
        &graph,
        &cluster,
        comm(),
        &outcome.plan,
        failed,
        Duration::from_millis(200),
    )
    .unwrap();
    assert!(repair.moved_ops > 0, "the failed device hosted ops");
    assert_eq!(repair.cluster.gpu_count(), cluster.gpu_count() - 1);
    assert!(repair.plan.validate(&graph, &repair.cluster).is_ok());
    let report = Simulator::new(&graph, &repair.cluster, comm())
        .run(&repair.plan)
        .unwrap();
    assert!((report.makespan_us - repair.makespan_us).abs() < 1e-9);
}

#[test]
fn perturbation_sweep_is_reproducible_end_to_end() {
    let graph = ModelSpec::nmt(1, 64).generate(4, 1);
    let cluster = Cluster::two_gpus();
    let outcome = Pesto::new(PestoConfig::fast())
        .place(&graph, &cluster)
        .unwrap();
    let config = RobustnessConfig {
        draws: 24,
        ..RobustnessConfig::default()
    };
    let a = evaluate_robustness(&graph, &cluster, comm(), &outcome.plan, &config).unwrap();
    let b = evaluate_robustness(&graph, &cluster, comm(), &outcome.plan, &config).unwrap();
    assert_eq!(a.p50_us, b.p50_us);
    assert_eq!(a.p95_us, b.p95_us);
    assert_eq!(a.p99_us, b.p99_us);
    assert_eq!(a.device_sensitivity_us, b.device_sensitivity_us);
    assert!(a.clean_makespan_us > 0.0);
    assert!(a.p95_us >= a.p50_us);
}

#[test]
fn empty_graph_is_a_typed_error() {
    let err = OpGraph::new("empty").freeze().unwrap_err();
    assert_eq!(err, GraphError::Empty);
}

#[test]
fn cpu_only_cluster_is_rejected_not_panicked() {
    let graph = ModelSpec::rnnlm(1, 64).generate(4, 1);
    let full = Cluster::homogeneous(1, 1 << 34);
    let cpu_only = full.without_gpu(full.gpus()[0]).unwrap();
    let err = Pesto::new(PestoConfig::fast())
        .place(&graph, &cpu_only)
        .unwrap_err();
    assert_eq!(err, PestoError::NoGpus);
}

#[test]
fn deadlocked_schedule_names_the_blocked_op_and_fails_cleanly() {
    // b depends on a but is ordered first on the same device: b is the
    // genuinely blocked op.
    let mut g = OpGraph::new("deadlock");
    let a = g.add_op("a", DeviceKind::Gpu, 1.0, 0);
    let b = g.add_op("b", DeviceKind::Gpu, 1.0, 0);
    g.add_edge(a, b, 1).unwrap();
    let g = g.freeze().unwrap();
    let cluster = Cluster::two_gpus();
    let plan = Plan::with_order(
        Placement::affinity_default(&g, &cluster),
        ScheduleOrder::from_vecs(vec![vec![], vec![b, a], vec![]]),
    );

    let err = Simulator::new(&g, &cluster, comm()).run(&plan).unwrap_err();
    assert_eq!(err, SimError::Deadlock(b));

    // The harness-facing wrapper reports it as a failure, not a crash.
    match evaluate_plan(&g, &cluster, &comm(), &plan, 0) {
        StepOutcome::Failed { reason } => assert!(!reason.is_empty()),
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn pipelined_spans_feed_the_drift_detector() {
    use pesto::cost::{detect_drift, DriftConfig};

    let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
    let cluster = Cluster::two_gpus();
    let config = PestoConfig {
        pipeline_steps: 4,
        ..PestoConfig::fast()
    };
    let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
    let expected: Vec<f64> = graph.op_ids().map(|id| graph.op(id).compute_us()).collect();

    // The pipelined run surfaced its spans as a ready-made observation
    // vector: one entry per op, every executed op measured.
    let observed = outcome
        .observed_op_us
        .clone()
        .expect("pipelined run must record observations");
    assert_eq!(observed.len(), graph.op_count());
    assert!(observed.iter().all(Option::is_some));

    // Clean run: the simulator reproduces the profile exactly, so the
    // 4-sigma detector must stay quiet.
    let drift = DriftConfig::default();
    let clean = detect_drift(&expected, &observed, &drift);
    assert!(!clean.any(), "clean run flagged {:?}", clean.drifted);

    // Straggle the device that runs the heaviest op: every span on it
    // stretches 3x, far past the dispersion threshold (max ~0.8 of the
    // expectation), and the adapter must carry that from the SimReport
    // into a firing detector.
    let heavy = graph
        .op_ids()
        .max_by(|&a, &b| {
            graph
                .op(a)
                .compute_us()
                .total_cmp(&graph.op(b).compute_us())
        })
        .unwrap();
    let victim = outcome.plan.placement.device(heavy);
    let straggled = Simulator::new(&graph, &cluster, comm())
        .with_steps(4)
        .with_faults(FaultPlan::new(9).with_straggler(victim, 3.0))
        .run(&outcome.plan)
        .unwrap();
    let drifted = detect_drift(
        &expected,
        &straggled.observed_op_us(graph.op_count()),
        &drift,
    );
    assert!(
        drifted.any(),
        "a 3x straggler must trip the detector (max drift {:.3})",
        drifted.max_drift_frac
    );
    assert!(drifted.drifted.contains(&heavy.index()));
}
