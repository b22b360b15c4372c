//! End-to-end tests for the hierarchical sharded placement path: a
//! mid-size generated graph goes through partition → per-region solve →
//! stitch → global refine, and the result must be a valid, deterministic,
//! competitive plan.

use pesto::cost::CommModel;
use pesto::graph::{Cluster, FrozenGraph};
use pesto::ilp::SolvePath;
use pesto::models::ModelSpec;
use pesto::shard::ShardConfig;
use pesto::{evaluate_plan, Pesto, PestoConfig};

const EVAL_SEED: u64 = 7;

/// A mid-size RNNLM slice (~900 ops): big enough to split into several
/// regions under the test cap, small enough to keep the test fast.
fn graph() -> FrozenGraph {
    let spec = ModelSpec::rnnlm(2, 512);
    spec.generate_scaled(spec.paper_batch(), 1, 0.2)
}

fn sharded_config(threads: usize) -> PestoConfig {
    PestoConfig {
        shard: Some(ShardConfig {
            region_cap: 300,
            region_coarsen_target: 64,
            region_iterations: 400,
        }),
        solver_threads: threads,
        ..PestoConfig::fast()
    }
}

#[test]
fn sharded_plan_is_valid_and_no_worse_than_msct() {
    let graph = graph();
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();

    let outcome = Pesto::new(sharded_config(1))
        .place(&graph, &cluster)
        .expect("sharded placement succeeds");

    // The large graph actually took the sharded path, and said so.
    assert_eq!(outcome.path, SolvePath::Sharded);
    let report = outcome
        .shard
        .as_ref()
        .expect("sharded outcome carries report");
    assert!(report.regions.len() > 1, "cap 300 on ~900 ops must split");
    assert_eq!(
        report.regions.iter().map(|r| r.ops).sum::<usize>(),
        graph.op_count(),
        "regions partition the op set"
    );

    // Every op is placed and the plan is memory-feasible.
    assert_eq!(outcome.plan.placement.op_count(), graph.op_count());
    assert!(outcome
        .plan
        .placement
        .oom_devices(&graph, &cluster)
        .is_empty());
    assert!(outcome.makespan_us.is_finite() && outcome.makespan_us > 0.0);

    // Sharded stages are surfaced in the stage timings.
    let stages: Vec<&str> = outcome.stage_timings.iter().map(|t| t.stage).collect();
    for stage in ["partition", "solve", "stitch", "simulate"] {
        assert!(
            stages.contains(&stage),
            "missing stage {stage} in {stages:?}"
        );
    }

    // Quality: the stitched+refined plan is no worse than the mSCT
    // baseline on the same graph. Everything here is deterministic
    // (fixed seeds, no wall-clock budget), so this is a stable bound.
    let msct = pesto::baselines::m_sct(&graph, &cluster, &comm);
    let msct_us = evaluate_plan(&graph, &cluster, &comm, &msct, EVAL_SEED)
        .makespan_us()
        .expect("mSCT simulates");
    assert!(
        outcome.makespan_us <= msct_us + 1e-6,
        "sharded {:.1} µs worse than mSCT {msct_us:.1} µs",
        outcome.makespan_us
    );
}

#[test]
fn sharded_solve_is_deterministic_for_fixed_seed_and_threads() {
    let graph = graph();
    let cluster = Cluster::two_gpus();

    // Same seed, same config: bit-identical placements — and the thread
    // count must not matter either (region results land in indexed slots;
    // budget-free runs have no wall-clock dependence).
    let place = |threads: usize| {
        Pesto::new(sharded_config(threads))
            .place(&graph, &cluster)
            .expect("sharded placement succeeds")
    };
    let a = place(1);
    let b = place(1);
    let c = place(3);
    assert_eq!(
        a.plan.placement, b.plan.placement,
        "same seed+threads must repeat"
    );
    assert_eq!(
        a.plan.placement, c.plan.placement,
        "thread count must not change the plan"
    );
    assert_eq!(a.makespan_us, b.makespan_us);
    assert_eq!(a.makespan_us, c.makespan_us);
}

#[test]
fn graphs_under_the_region_cap_stay_monolithic() {
    let spec = ModelSpec::nasnet(3, 16);
    let graph = spec.generate(32, 42);
    let cluster = Cluster::two_gpus();

    let config = PestoConfig {
        shard: Some(ShardConfig {
            region_cap: graph.op_count() + 1,
            ..ShardConfig::default()
        }),
        ..PestoConfig::fast()
    };
    let outcome = Pesto::new(config)
        .place(&graph, &cluster)
        .expect("monolithic placement succeeds");
    assert_ne!(outcome.path, SolvePath::Sharded);
    assert!(outcome.shard.is_none());
}

/// Chrome-trace validity for a sharded multi-worker run: the per-worker
/// telemetry merges into one trace where every span event sits in a lane
/// with a `thread_name` metadata row (no orphan tids), the shard region
/// solves land in the named `shard-worker-*` lanes, and spans within a
/// lane are properly nested (a span never half-overlaps another on the
/// same thread — the invariant `ph:"X"` stacks need to render).
#[test]
fn sharded_chrome_trace_lands_every_span_in_a_named_lane() {
    use pesto::obs::Obs;
    use serde_json::Value;

    let graph = graph();
    let cluster = Cluster::two_gpus();
    let mut config = sharded_config(3);
    config.obs = Obs::enabled();
    let obs = config.obs.clone();
    let outcome = Pesto::new(config)
        .place(&graph, &cluster)
        .expect("sharded placement succeeds");
    assert_eq!(outcome.path, SolvePath::Sharded);

    // Every spawned region worker announced its lane, and there were
    // several of them (threads=3 against >1 regions).
    let lanes = obs.lane_names();
    let worker_lanes = lanes
        .values()
        .filter(|n| n.starts_with("shard-worker-"))
        .count();
    assert!(
        worker_lanes >= 2,
        "expected >=2 worker lanes, got {lanes:?}"
    );

    let trace = obs.chrome_trace();
    let v: Value = serde_json::from_str(&trace).expect("trace parses as JSON");
    let Some(Value::Seq(events)) = v.get("traceEvents").cloned() else {
        panic!("no traceEvents array");
    };

    // Pass 1: collect the named tids from metadata rows.
    let mut named_tids = std::collections::HashMap::new();
    for e in &events {
        if e.get("ph").and_then(Value::as_str) == Some("M")
            && e.get("name").and_then(Value::as_str) == Some("thread_name")
        {
            let tid = e.get("tid").and_then(Value::as_u64).unwrap();
            let label = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            named_tids.insert(tid, label);
        }
    }

    // Pass 2: every span event sits in a named lane, and the region
    // solves specifically in shard-worker lanes.
    let mut by_tid: std::collections::HashMap<u64, Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    let mut region_solves = 0usize;
    for e in &events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Value::as_u64).unwrap();
        let lane = named_tids
            .get(&tid)
            .unwrap_or_else(|| panic!("span on unnamed tid {tid} — orphan lane"));
        let name = e.get("name").and_then(Value::as_str).unwrap();
        if name == "shard.region-solve" {
            assert!(
                lane.starts_with("shard-worker-"),
                "region solve recorded in lane {lane:?}"
            );
            region_solves += 1;
        }
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        let dur = e.get("dur").and_then(Value::as_f64).unwrap();
        by_tid.entry(tid).or_default().push((ts, ts + dur));
    }
    let report = outcome.shard.as_ref().expect("shard report");
    assert_eq!(
        region_solves,
        report.regions.len(),
        "one region-solve span per region"
    );

    // Pass 3: proper nesting per lane — any two spans on one tid are
    // either disjoint or one contains the other. Walk each lane with a
    // stack of enclosing-span end times (the render model of `ph:"X"`).
    let eps = 1e-6;
    for (tid, mut spans) in by_tid {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<f64> = Vec::new();
        for (start, end) in spans {
            while open.last().is_some_and(|&e| e <= start + eps) {
                open.pop();
            }
            if let Some(&enclosing) = open.last() {
                assert!(
                    end <= enclosing + eps,
                    "span [{start},{end}] half-overlaps its enclosing span \
                     (ends {enclosing}) on tid {tid}"
                );
            }
            open.push(end);
        }
    }
}
