//! `expfig` — regenerates every table and figure of the Pesto paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! Usage: `expfig <experiment> [--quick] [--steps K]` where experiment is
//! one of `fig2 fig4a fig4b table1 fig5 fig7 table2 table3 fig8a fig8b
//! coarsen-sweep budget-sweep robustness pipeline kill-resume
//! drift-recovery gap shard obs-overhead all`.
//!
//! `kill-resume` truncates a checkpointed placement run at its deadline,
//! resumes it from the checkpoint file, and compares against a cold
//! restart given the same total budget. `drift-recovery` slows the
//! hottest ops past the profile's dispersion threshold, checks that the
//! drift detector flags them, and compares the stale plan under the
//! observed times against a from-scratch placement under a time budget.
//!
//! `gap` prints the branch-and-bound gap-over-time column set per warm-up
//! strategy (cold vs. hybrid-warm-started), from the telemetry event
//! stream in `pesto-obs`.
//!
//! `--steps K` selects the number of pipelined training steps per
//! simulation: the `robustness` sweep then ranks plans by steady-state
//! step time (default 1 = single-step makespans), and the `pipeline`
//! experiment compares strategies' fill/steady/drain breakdowns
//! (default 4 steps).

use pesto::baselines::{expert, naive_critical_path, random_placement};
use pesto::coarsen::{coarsen, CoarsenConfig};
use pesto::cost::{CommModel, HardwareScaling, Profiler, TransferBench};
use pesto::graph::{Cluster, LinkType, OpId, Placement};
use pesto::ilp::{IlpConfig, IlpModel, MemoryRule};
use pesto::milp::MilpConfig;
use pesto::models::{figure2, paper_variants, ModelSpec};
use pesto::sim::Simulator;
use pesto::{evaluate_plan, Pesto, StepOutcome};
use pesto_bench::{
    expert_vs_pesto, pesto_config, pesto_timed, record_json, run_variant, VariantRow, EVAL_SEED,
};
use serde::Serialize;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let steps: Option<usize> = args
        .iter()
        .position(|a| a == "--steps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&k| k >= 1);
    let which = args.first().map(String::as_str).unwrap_or("all");
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();

    let run = |name: &str| which == name || which == "all";
    if run("fig2") {
        fig2(&cluster, &comm);
    }
    if run("fig4a") {
        fig4a();
    }
    if run("fig4b") {
        fig4b(&comm);
    }
    if run("table1") {
        table1();
    }
    if run("fig5") {
        fig5(&cluster, &comm);
    }
    if run("fig7") {
        fig7(&cluster, &comm, quick);
    }
    if run("table2") {
        table2(&cluster, &comm, quick);
    }
    if run("table3") {
        table3(&cluster, &comm, quick);
    }
    if run("fig8a") {
        fig8a(&cluster, &comm, quick);
    }
    if run("fig8b") {
        fig8b(&cluster, &comm, quick);
    }
    if run("coarsen-sweep") {
        coarsen_sweep(&cluster, &comm);
    }
    if run("budget-sweep") {
        budget_sweep(&cluster, &comm);
    }
    if run("robustness") {
        robustness(&cluster, &comm, quick, steps.unwrap_or(1));
    }
    if run("pipeline") {
        pipeline(&cluster, &comm, quick, steps.unwrap_or(4));
    }
    if run("kill-resume") {
        kill_resume(&cluster, &comm, quick);
    }
    if run("drift-recovery") {
        drift_recovery(&cluster, &comm, quick);
    }
    if run("gap") {
        gap(&cluster, &comm);
    }
    if run("shard") {
        shard(&cluster, &comm, quick);
    }
    if run("obs-overhead") {
        obs_overhead(quick);
    }
}

/// Wall-clock cost of the telemetry layer's hot paths, disabled vs
/// enabled; records `results/obs_overhead.json`. Each case reports ns
/// per *operation* (one span+counter+histogram record, one event push,
/// one snapshot or render), not per batch.
fn obs_overhead(quick: bool) {
    use pesto::obs::{Obs, SolverEventKind};

    #[derive(Serialize)]
    struct Row {
        case: String,
        iters: u64,
        ns_per_op: f64,
    }

    let reps: u64 = if quick { 20 } else { 200 };
    let batch: u64 = 1000;
    let mut rows: Vec<Row> = Vec::new();
    let mut case = |name: &str, per_rep_ops: u64, f: &mut dyn FnMut()| {
        // One warm-up rep, then the timed block.
        f();
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / (reps * per_rep_ops) as f64;
        println!("{name:<44} {ns:>10.1} ns/op");
        rows.push(Row {
            case: name.to_string(),
            iters: reps * per_rep_ops,
            ns_per_op: ns,
        });
    };

    let primitives = |obs: &Obs| {
        for i in 0..batch {
            let mut span = obs.span("hot.span");
            span.set_attr("i", i);
            obs.counter_add("hot.counter", 1);
            obs.observe("hot.histogram", i as f64);
        }
    };
    let disabled = Obs::disabled();
    case("primitives disabled", batch, &mut || primitives(&disabled));
    case("primitives enabled (fresh sink)", batch, &mut || {
        primitives(&Obs::enabled())
    });
    case("span ring saturated cap=256", batch, &mut || {
        let obs = Obs::enabled_with_capacities(4096, 256);
        for i in 0..batch {
            let mut span = obs.span("hot.span");
            span.set_attr("i", i);
        }
    });
    case("event ring saturated cap=256", batch, &mut || {
        let obs = Obs::enabled_with_event_capacity(256);
        for i in 0..batch {
            obs.solver_event(
                "bench",
                SolverEventKind::Incumbent {
                    objective: i as f64,
                },
            );
        }
    });

    // A sink loaded the way a mid-run daemon's looks, for scrape costs.
    let loaded = Obs::enabled();
    for i in 0..512u64 {
        let mut span = loaded.span("load.span");
        span.set_attr("i", i);
        loaded.counter_add("load.counter", 1);
        loaded.observe("load.histogram", i as f64);
    }
    case("flight snapshot (loaded sink)", 1, &mut || {
        loaded.record_flight_snapshot()
    });
    case("prometheus render (loaded sink)", 1, &mut || {
        std::hint::black_box(loaded.prometheus_text().len());
    });
    case("flight snapshot disabled", 1, &mut || {
        disabled.record_flight_snapshot()
    });
    case("prometheus render disabled", 1, &mut || {
        std::hint::black_box(disabled.prometheus_text().len());
    });

    record_json("obs_overhead", &rows);
}

/// Sharded-placement scaling experiment (beyond the paper's solver, same
/// goal as its §5.4 scalability discussion): on sizes where the
/// monolithic pipeline is still tractable, run both paths and compare
/// plan quality head-to-head; then push the sharded path alone to a
/// paper-scale graph (~19k ops full mode) under a minutes-level budget.
/// Records `results/shard_scale.json`.
fn shard(cluster: &Cluster, comm: &CommModel, quick: bool) {
    use pesto::shard::ShardConfig;
    use pesto::PestoConfig;

    println!("\n== shard: hierarchical sharded placement vs monolithic ==");
    #[derive(Serialize)]
    struct Row {
        label: String,
        ops: usize,
        edges: usize,
        region_cap: usize,
        regions: Option<usize>,
        budget_secs: Option<f64>,
        shard_place_secs: f64,
        shard_step_ms: Option<f64>,
        mono_place_secs: Option<f64>,
        mono_step_ms: Option<f64>,
        shard_over_mono: Option<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();

    // Overlap sizes run both paths; the last, paper-scale size runs the
    // sharded path only (the monolithic pipeline would take hours there).
    let region_cap = if quick { 400 } else { 1200 };
    let overlap: Vec<(ModelSpec, f64)> = if quick {
        vec![
            (ModelSpec::rnnlm(2, 512), 0.2),
            (ModelSpec::rnnlm(2, 512), 0.4),
        ]
    } else {
        vec![
            (ModelSpec::rnnlm(2, 2048), 0.35),
            (ModelSpec::rnnlm(2, 2048), 0.7),
        ]
    };
    let big: (ModelSpec, f64) = if quick {
        (ModelSpec::rnnlm(4, 512), 0.5)
    } else {
        (ModelSpec::rnnlm(16, 1024), 0.62)
    };
    let budget = if quick {
        Duration::from_secs(30)
    } else {
        Duration::from_secs(300)
    };

    let base_config = |ops: usize| pesto_bench::pesto_config_for(true, ops);
    let place = |graph: &pesto::graph::FrozenGraph, config: PestoConfig| {
        let t0 = Instant::now();
        let result = Pesto::with_comm(*comm, config).place(graph, cluster);
        let secs = t0.elapsed().as_secs_f64();
        let (step_ms, regions) = match &result {
            Ok(o) => (
                evaluate_plan(graph, cluster, comm, &o.plan, EVAL_SEED)
                    .makespan_us()
                    .map(|u| u / 1e3),
                o.shard.as_ref().map(|r| r.regions.len()),
            ),
            Err(_) => (None, None),
        };
        (secs, step_ms, regions)
    };

    println!(
        "{:<20} {:>7} {:>8} {:>11} {:>11} {:>10} {:>10} {:>8}",
        "graph", "ops", "regions", "shard s", "mono s", "shard ms", "mono ms", "ratio"
    );
    for (i, &(ref spec, scale)) in overlap.iter().chain(std::iter::once(&big)).enumerate() {
        let is_big = i == overlap.len();
        let graph = spec.generate_scaled(spec.paper_batch(), 1, scale);
        let label = format!("{}@{scale}", spec.label());

        let mut shard_cfg = base_config(graph.op_count());
        shard_cfg.shard = Some(ShardConfig {
            region_cap,
            ..ShardConfig::default()
        });
        if is_big {
            shard_cfg.time_budget = Some(budget);
        }
        let (shard_secs, shard_ms, regions) = place(&graph, shard_cfg);

        let (mono_secs, mono_ms) = if is_big {
            (None, None)
        } else {
            let (s, m, _) = place(&graph, base_config(graph.op_count()));
            (Some(s), m)
        };
        let ratio = match (shard_ms, mono_ms) {
            (Some(s), Some(m)) if m > 0.0 => Some(s / m),
            _ => None,
        };
        let opt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.1}"));
        println!(
            "{:<20} {:>7} {:>8} {:>11.1} {:>11} {:>10} {:>10} {:>8}",
            label,
            graph.op_count(),
            regions.map_or("-".into(), |r| r.to_string()),
            shard_secs,
            opt(mono_secs),
            opt(shard_ms),
            opt(mono_ms),
            ratio.map_or("-".into(), |r| format!("{r:.3}")),
        );
        rows.push(Row {
            label,
            ops: graph.op_count(),
            edges: graph.edge_count(),
            region_cap,
            regions,
            budget_secs: is_big.then_some(budget.as_secs_f64()),
            shard_place_secs: shard_secs,
            shard_step_ms: shard_ms,
            mono_place_secs: mono_secs,
            mono_step_ms: mono_ms,
            shard_over_mono: ratio,
        });
    }
    println!(
        "(ratio <= 1.10 = sharding keeps plan quality while scaling past the monolithic solver)"
    );
    record_json("shard_scale", &rows);
}

/// Solver gap over time: how fast branch-and-bound closes the
/// incumbent-vs-bound gap on the exactly solvable toy instance, per
/// warm-up strategy — a cold start vs. the production configuration that
/// warm-starts from the hybrid annealer's incumbent. Columns come from
/// the `pesto-obs` gap event stream the MILP emits while solving.
fn gap(cluster: &Cluster, comm: &CommModel) {
    use pesto::ilp::{HybridConfig, HybridSolver};
    use pesto::obs::{Obs, SolverEventKind};

    println!("\n== Solver gap over time (exact MILP, per strategy) ==");
    let g = figure2();
    let config = IlpConfig {
        memory: MemoryRule::Off,
        milp: MilpConfig::with_time_limit(Duration::from_secs(60)),
        ..IlpConfig::default()
    };
    let model = IlpModel::build(&g, cluster, comm, &config).expect("2-GPU toy instance");

    #[derive(Serialize)]
    struct GapRow {
        strategy: &'static str,
        t_us: f64,
        incumbent_us: Option<f64>,
        best_bound_us: f64,
        relative_gap: Option<f64>,
        nodes_explored: u64,
    }
    let finite = |v: f64| v.is_finite().then_some(v);
    let mut rows: Vec<GapRow> = Vec::new();

    for (strategy, warm) in [("cold", false), ("warm", true)] {
        let obs = Obs::enabled();
        let mut milp_cfg = MilpConfig {
            obs: obs.clone(),
            ..config.milp.clone()
        };
        if warm {
            let hybrid = HybridSolver::new(HybridConfig::quick())
                .solve(&g, cluster, comm)
                .expect("hybrid solves the toy instance");
            milp_cfg.warm_start = model.warm_start_from(&hybrid.plan, comm);
        }
        let outcome = model.solve(&milp_cfg).expect("toy ILP solves");
        println!(
            "\n{strategy}: cmax {:.1} µs, {} nodes, proven optimal: {}",
            outcome.cmax_us, outcome.nodes_explored, outcome.proven_optimal
        );
        println!(
            "  {:>10} {:>12} {:>12} {:>10} {:>7}",
            "t_us", "incumbent", "best_bound", "gap", "nodes"
        );
        for event in obs.solver_events() {
            let SolverEventKind::Gap {
                incumbent,
                best_bound,
                relative_gap,
                nodes_explored,
            } = event.kind
            else {
                continue;
            };
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
            println!(
                "  {:>10.1} {:>12} {:>12.1} {:>10} {:>7}",
                event.t_us,
                show(finite(incumbent)),
                best_bound,
                finite(relative_gap).map_or("-".to_string(), |v| format!("{:.2}%", v * 100.0)),
                nodes_explored,
            );
            rows.push(GapRow {
                strategy,
                t_us: event.t_us,
                incumbent_us: finite(incumbent),
                best_bound_us: best_bound,
                relative_gap: finite(relative_gap),
                nodes_explored,
            });
        }
    }
    record_json("gap_over_time", &rows);
}

/// Figure 2: the toy DAG under (b) naive scheduling, (c) naive placement,
/// and (d) Pesto's optimal joint placement + scheduling.
fn fig2(cluster: &Cluster, comm: &CommModel) {
    println!("\n== Figure 2: toy-DAG placement and scheduling ==");
    let g = figure2();

    // (b) Good placement, naive hop-count-priority scheduling.
    let mut good = Placement::affinity_default(&g, cluster);
    // Heavy F, G on GPU-1 (indices 5, 6), the rest on GPU-0.
    good.set_device(OpId::from_index(5), cluster.gpu(1));
    good.set_device(OpId::from_index(6), cluster.gpu(1));
    let naive = naive_critical_path(&g, cluster, good.clone());
    let naive_ms = evaluate_plan(&g, cluster, comm, &naive, EVAL_SEED);

    // (c) Naive placement (random), framework scheduling.
    let rand_plan = random_placement(&g, cluster, 3);
    let rand_ms = evaluate_plan(&g, cluster, comm, &rand_plan, EVAL_SEED);

    // (d) Optimal: the exact Pesto ILP.
    let config = IlpConfig {
        memory: MemoryRule::Off,
        milp: MilpConfig::with_time_limit(Duration::from_secs(60)),
        ..IlpConfig::default()
    };
    let model = IlpModel::build(&g, cluster, comm, &config).expect("2-GPU toy instance");
    let ilp = model.solve(&config.milp).expect("toy ILP solves");
    let opt_ms = evaluate_plan(&g, cluster, comm, &ilp.plan, EVAL_SEED);

    #[derive(Serialize)]
    struct Fig2 {
        naive_schedule_us: Option<f64>,
        naive_placement_us: Option<f64>,
        optimal_us: Option<f64>,
        optimal_cmax_us: f64,
        proven_optimal: bool,
    }
    let rec = Fig2 {
        naive_schedule_us: naive_ms.makespan_us(),
        naive_placement_us: rand_ms.makespan_us(),
        optimal_us: opt_ms.makespan_us(),
        optimal_cmax_us: ilp.cmax_us,
        proven_optimal: ilp.proven_optimal,
    };
    println!(
        "(b) naive scheduling:       {:>8.1} us",
        rec.naive_schedule_us.unwrap_or(f64::NAN)
    );
    println!(
        "(c) naive placement:        {:>8.1} us",
        rec.naive_placement_us.unwrap_or(f64::NAN)
    );
    println!(
        "(d) Pesto ILP (optimal):    {:>8.1} us (model C_max {:.1}, proven={})",
        rec.optimal_us.unwrap_or(f64::NAN),
        rec.optimal_cmax_us,
        rec.proven_optimal
    );
    let sim = Simulator::new(&g, cluster, *comm);
    println!(
        "\nOptimal timeline:\n{}",
        sim.run(&ilp.plan)
            .map(|r| r.timeline(cluster, 64))
            .unwrap_or_default()
    );
    record_json("fig2", &rec);
}

/// Figure 4(a): CDF of the normalized standard deviation of per-op compute
/// times across 100 profiled iterations.
fn fig4a() {
    println!("\n== Figure 4(a): normalized stddev of op compute times (CDF deciles) ==");
    #[derive(Serialize)]
    struct Fig4a {
        model: String,
        deciles: Vec<f64>,
    }
    let mut recs = Vec::new();
    for spec in [
        ModelSpec::rnnlm(2, 2048),
        ModelSpec::nmt(2, 1024),
        ModelSpec::transformer(6, 16, 2048),
        ModelSpec::nasnet(4, 212),
    ] {
        let g = spec.generate(spec.paper_batch(), 1);
        let report = Profiler::paper_default(11).profile(&g);
        let cdf = report.normalized_std_cdf(10.0); // ignore tiny ops, as the paper does
        let deciles: Vec<f64> = (1..=10)
            .map(|d| {
                let idx = (cdf.len() * d / 10).saturating_sub(1);
                cdf.get(idx).map_or(0.0, |&(x, _)| x)
            })
            .collect();
        println!(
            "{:<24} p50 {:.3}  p90 {:.3}  p100 {:.3}",
            spec.label(),
            deciles[4],
            deciles[8],
            deciles[9]
        );
        recs.push(Fig4a {
            model: spec.label(),
            deciles,
        });
    }
    record_json("fig4a", &recs);
}

/// Figure 4(b): communication time vs transfer size with the linear fit.
fn fig4b(truth: &CommModel) {
    println!("\n== Figure 4(b): comm time vs transfer size, linear fits ==");
    let bench = TransferBench::new(*truth, 0.08, 99);
    let calibrated = bench.calibrate().expect("calibration succeeds");
    #[derive(Serialize)]
    struct Fig4b {
        link: String,
        beta0_us: f64,
        beta1_us_per_byte: f64,
        r2: f64,
    }
    let mut recs = Vec::new();
    for link in [LinkType::CpuToGpu, LinkType::GpuToCpu, LinkType::GpuToGpu] {
        let fit = calibrated.fit(link);
        println!(
            "{:<10} T = {:.2} + {:.3e} * bytes   (R2 = {:.4})",
            link.to_string(),
            fit.beta0,
            fit.beta1,
            fit.r2
        );
        recs.push(Fig4b {
            link: link.to_string(),
            beta0_us: fit.beta0,
            beta1_us_per_byte: fit.beta1,
            r2: fit.r2,
        });
    }
    println!("(paper reports R2 between 0.92 and 0.99 for all classes)");
    record_json("fig4b", &recs);
}

/// Table 1: op execution-time buckets per model.
fn table1() {
    println!("\n== Table 1: op compute-time distribution ==");
    println!(
        "{:<24} {:>9} {:>10} {:>9}",
        "model", "<10us", "10-100us", ">100us"
    );
    #[derive(Serialize)]
    struct T1 {
        model: String,
        small: usize,
        medium: usize,
        large: usize,
    }
    let mut recs = Vec::new();
    for spec in [
        ModelSpec::transformer(6, 16, 2048),
        ModelSpec::rnnlm(2, 2048),
        ModelSpec::nasnet(4, 212),
        ModelSpec::nmt(2, 1024),
    ] {
        let g = spec.generate(spec.paper_batch(), 1);
        let mut b = [0usize; 3];
        for id in g.op_ids() {
            let t = g.op(id).compute_us();
            if t < 10.0 {
                b[0] += 1;
            } else if t < 100.0 {
                b[1] += 1;
            } else {
                b[2] += 1;
            }
        }
        println!("{:<24} {:>9} {:>10} {:>9}", spec.label(), b[0], b[1], b[2]);
        recs.push(T1 {
            model: spec.label(),
            small: b[0],
            medium: b[1],
            large: b[2],
        });
    }
    record_json("table1", &recs);
}

/// Figure 5: the congestion-constraint ablation on RNNLM-2-2048. The full
/// Pesto pipeline runs twice: once believing links have infinite capacity
/// (the congestion-blind assumption of prior DAG-scheduling work), once
/// with faithful FCFS link modelling (the paper's constraint set (7)).
/// Both resulting plans are executed on the faithful simulator.
fn fig5(cluster: &Cluster, comm: &CommModel) {
    println!("\n== Figure 5: congestion modelling on/off (RNNLM-2-2048, PCIe-class links) ==");
    // Congestion binds when communication pressure is high; like the
    // paper's own Figure 8(b), the 0.1x interconnect is "on the order of
    // PCIe". On NVlink-class links the two optimizers converge.
    let comm = &comm.scaled(0.1);
    let spec = ModelSpec::rnnlm(2, 2048);
    let graph = spec.generate(spec.paper_batch(), 1);
    let real = Simulator::new(&graph, cluster, *comm).with_seed(EVAL_SEED);

    let run_pipeline = |aware: bool| {
        let mut config = pesto_config(true);
        config.congestion_aware = aware;
        let outcome = Pesto::with_comm(*comm, config)
            .place(&graph, cluster)
            .expect("RNNLM places");
        let report = real.run(&outcome.plan).expect("feasible plan");
        (outcome, report)
    };
    let (blind_out, blind_rep) = run_pipeline(false);
    let (aware_out, aware_rep) = run_pipeline(true);

    #[derive(Serialize)]
    struct Fig5 {
        blind_real_us: f64,
        blind_queue_delay_us: f64,
        blind_cut_edges: usize,
        aware_real_us: f64,
        aware_queue_delay_us: f64,
        aware_cut_edges: usize,
        ratio: f64,
    }
    let rec = Fig5 {
        blind_real_us: blind_rep.makespan_us,
        blind_queue_delay_us: blind_rep.total_queue_delay_us(),
        blind_cut_edges: blind_out.plan.placement.cut_edges(&graph),
        aware_real_us: aware_rep.makespan_us,
        aware_queue_delay_us: aware_rep.total_queue_delay_us(),
        aware_cut_edges: aware_out.plan.placement.cut_edges(&graph),
        ratio: blind_rep.makespan_us / aware_rep.makespan_us,
    };
    println!(
        "(a) congestion-blind optimizer: actual {:.1} ms, queueing delay {:.1} ms, {} cross-GPU edges",
        rec.blind_real_us / 1e3,
        rec.blind_queue_delay_us / 1e3,
        rec.blind_cut_edges
    );
    println!(
        "(b) congestion-aware optimizer: actual {:.1} ms, queueing delay {:.1} ms, {} cross-GPU edges",
        rec.aware_real_us / 1e3,
        rec.aware_queue_delay_us / 1e3,
        rec.aware_cut_edges
    );
    println!(
        "actual-makespan reduction factor: {:.2}x (paper reports ~3x on full RNNLM)",
        rec.ratio
    );
    record_json("fig5", &rec);
}

/// Figure 7: per-step training time across all eleven variants.
fn fig7(cluster: &Cluster, comm: &CommModel, quick: bool) {
    println!("\n== Figure 7: per-step training time (ms), all variants ==");
    println!(
        "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "variant", "ops", "expert", "m_topo", "m_etf", "m_sct", "pesto", "red%"
    );
    let mut rows: Vec<VariantRow> = Vec::new();
    for spec in paper_variants() {
        let t0 = Instant::now();
        let row = run_variant(spec, cluster, comm, quick);
        let disp = |s: &str| {
            row.get(s)
                .map_or("-".into(), pesto_bench::StrategyResult::display_ms)
        };
        println!(
            "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} ({:.0}s)",
            row.variant,
            row.ops,
            disp("expert"),
            disp("m_topo"),
            disp("m_etf"),
            disp("m_sct"),
            disp("pesto"),
            row.pesto_reduction_pct()
                .map_or("-".into(), |r| format!("{r:.1}")),
            t0.elapsed().as_secs_f64(),
        );
        rows.push(row);
    }
    let avg: f64 = {
        let reds: Vec<f64> = rows
            .iter()
            .filter_map(VariantRow::pesto_reduction_pct)
            .collect();
        reds.iter().sum::<f64>() / reds.len().max(1) as f64
    };
    println!("average reduction vs best alternative: {avg:.1}% (paper: ~14%)");
    record_json("fig7", &rows);
}

/// Table 2: placement time comparison.
fn table2(cluster: &Cluster, comm: &CommModel, quick: bool) {
    println!("\n== Table 2: placement time (minutes) ==");
    // Reported numbers from the paper for the learning-based approaches.
    let reported: &[(&str, f64, f64)] = &[
        ("NMT-2-1024", 2859.0, 788.0),
        ("NMT-4-1024", 2714.0, 4120.0),
        ("NASNet-6-148", 241.0, 50.0),
    ];
    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>10}",
        "model", "baechi", "rnn-based*", "placeto*", "pesto"
    );
    #[derive(Serialize)]
    struct T2 {
        model: String,
        baechi_min: f64,
        rnn_based_min_reported: f64,
        placeto_min_reported: f64,
        pesto_min: f64,
    }
    let mut recs = Vec::new();
    for (spec, (_, rnn, placeto)) in [
        (ModelSpec::nmt(2, 1024), reported[0]),
        (ModelSpec::nmt(4, 1024), reported[1]),
        (ModelSpec::nasnet(6, 148), reported[2]),
    ] {
        let graph = spec.generate(spec.paper_batch(), 1);
        let t0 = Instant::now();
        let _ = pesto::baselines::m_sct(&graph, cluster, comm);
        let baechi_min = t0.elapsed().as_secs_f64() / 60.0;
        let (pesto_time, _) = pesto_timed(spec, cluster, comm, quick);
        let pesto_min = pesto_time.as_secs_f64() / 60.0;
        println!(
            "{:<16} {:>10.4} {:>12.0} {:>10.0} {:>10.2}",
            spec.label(),
            baechi_min,
            rnn,
            placeto,
            pesto_min
        );
        recs.push(T2 {
            model: spec.label(),
            baechi_min,
            rnn_based_min_reported: rnn,
            placeto_min_reported: placeto,
            pesto_min,
        });
    }
    println!("(* reported by the original papers, quoted as the paper does)");
    record_json("table2", &recs);
}

/// Table 3: end-to-end training effort relative to Expert.
fn table3(cluster: &Cluster, comm: &CommModel, quick: bool) {
    println!("\n== Table 3: training effort relative to Expert ==");
    #[derive(Serialize)]
    struct T3 {
        model: String,
        steps: u64,
        baechi_rel: Option<f64>,
        pesto_rel: Option<f64>,
    }
    let mut recs = Vec::new();
    // (spec, training steps): 350K for NMT (paper cites the NMT repo),
    // 375K for NASNet.
    for (spec, steps) in [
        (ModelSpec::nmt(2, 1024), 350_000u64),
        (ModelSpec::nmt(4, 1024), 350_000),
        (ModelSpec::nasnet(6, 148), 375_000),
    ] {
        let graph = spec.generate(spec.paper_batch(), 1);
        let exp = evaluate_plan(&graph, cluster, comm, &expert(&graph, cluster), EVAL_SEED);
        let t0 = Instant::now();
        let baechi_plan = pesto::baselines::m_sct(&graph, cluster, comm);
        let baechi_place = t0.elapsed();
        let baechi = evaluate_plan(&graph, cluster, comm, &baechi_plan, EVAL_SEED);
        let (pesto_place, pesto_step) = pesto_timed(spec, cluster, comm, quick);

        // Effort = placement time + steps x per-step time; Expert's
        // placement time is taken as zero (known a priori).
        let effort = |place: Duration, step: &StepOutcome| -> Option<f64> {
            step.makespan_us()
                .map(|us| place.as_secs_f64() + steps as f64 * us / 1e6)
        };
        let expert_effort = effort(Duration::ZERO, &exp);
        let rel = |e: Option<f64>| match (e, expert_effort) {
            (Some(e), Some(x)) if x > 0.0 => Some(e / x),
            _ => None,
        };
        let baechi_rel = rel(effort(baechi_place, &baechi));
        let pesto_rel = rel(effort(pesto_place, &pesto_step));
        println!(
            "{:<16} baechi {}  pesto {}",
            spec.label(),
            baechi_rel.map_or("-".into(), |r| format!("{r:.2}x")),
            pesto_rel.map_or("-".into(), |r| format!("{r:.2}x")),
        );
        recs.push(T3 {
            model: spec.label(),
            steps,
            baechi_rel,
            pesto_rel,
        });
    }
    println!(
        "(paper: Baechi 0.94-1.08x, Pesto 0.7-0.89x of Expert for NMT; 0.97x / 0.81x for NASNet)"
    );
    record_json("table3", &recs);
}

/// Figure 8(a): Pesto's improvement over Expert vs device compute speed.
fn fig8a(cluster: &Cluster, comm: &CommModel, quick: bool) {
    println!("\n== Figure 8(a): improvement over Expert vs compute speed ==");
    let spec = ModelSpec::nmt(2, 1024);
    let base = spec.generate(spec.paper_batch(), 1);
    #[derive(Serialize)]
    struct F8a {
        compute_speed: f64,
        expert_ms: Option<f64>,
        pesto_ms: Option<f64>,
        improvement_pct: Option<f64>,
    }
    let mut recs = Vec::new();
    for speed in [0.5, 1.0, 2.0, 5.0, 10.0] {
        let scaling = HardwareScaling::new(speed, 1.0);
        let graph = scaling.scale_graph(base.clone());
        let (e, p) = expert_vs_pesto(&graph, cluster, comm, quick);
        let improvement = match (e.makespan_us(), p.makespan_us()) {
            (Some(e), Some(p)) if e > 0.0 => Some((1.0 - p / e) * 100.0),
            _ => None,
        };
        println!(
            "compute {speed:>4.1}x: expert {:>10.1} ms, pesto {:>10.1} ms, improvement {}",
            e.makespan_us().unwrap_or(f64::NAN) / 1e3,
            p.makespan_us().unwrap_or(f64::NAN) / 1e3,
            improvement.map_or("-".into(), |i| format!("{i:.1}%")),
        );
        recs.push(F8a {
            compute_speed: speed,
            expert_ms: e.makespan_us().map(|u| u / 1e3),
            pesto_ms: p.makespan_us().map(|u| u / 1e3),
            improvement_pct: improvement,
        });
    }
    println!("(paper: improvement grows with compute speed)");
    record_json("fig8a", &recs);
}

/// Figure 8(b): per-step time vs interconnect speed (NMT-2-1024).
fn fig8b(cluster: &Cluster, comm: &CommModel, quick: bool) {
    println!("\n== Figure 8(b): per-step time vs interconnect speed (NMT-2-1024) ==");
    let spec = ModelSpec::nmt(2, 1024);
    let graph = spec.generate(spec.paper_batch(), 1);
    #[derive(Serialize)]
    struct F8b {
        comm_speed: f64,
        expert_ms: Option<f64>,
        pesto_ms: Option<f64>,
    }
    let mut recs = Vec::new();
    for speed in [0.1, 0.5, 1.0, 2.0] {
        let scaled = HardwareScaling::new(1.0, speed).scale_comm(comm);
        let (e, p) = expert_vs_pesto(&graph, cluster, &scaled, quick);
        println!(
            "comm {speed:>4.1}x: expert {:>10.1} ms, pesto {:>10.1} ms",
            e.makespan_us().unwrap_or(f64::NAN) / 1e3,
            p.makespan_us().unwrap_or(f64::NAN) / 1e3,
        );
        recs.push(F8b {
            comm_speed: speed,
            expert_ms: e.makespan_us().map(|u| u / 1e3),
            pesto_ms: p.makespan_us().map(|u| u / 1e3),
        });
    }
    println!("(paper: Pesto adapts to slow links; Expert is oblivious and degrades)");
    record_json("fig8b", &recs);
}

/// §5.3 coarsening sensitivity: solve time and step time vs target size.
fn coarsen_sweep(cluster: &Cluster, comm: &CommModel) {
    println!("\n== §5.3 coarsening sweep (RNNLM-2-2048) ==");
    let spec = ModelSpec::rnnlm(2, 2048);
    let graph = spec.generate(spec.paper_batch(), 1);
    #[derive(Serialize)]
    struct Sweep {
        target: usize,
        coarse_ops: usize,
        placement_secs: f64,
        step_ms: Option<f64>,
    }
    let mut recs = Vec::new();
    for target in [100usize, 200, 400, 800, 1600] {
        let mut config = pesto_config(true);
        config.coarsen_target = target;
        let t0 = Instant::now();
        let result = Pesto::with_comm(*comm, config).place(&graph, cluster);
        let placement_secs = t0.elapsed().as_secs_f64();
        let (coarse_ops, step_ms) = match result {
            Ok(o) => {
                let step = evaluate_plan(&graph, cluster, comm, &o.plan, EVAL_SEED);
                (o.coarse_op_count, step.makespan_us().map(|u| u / 1e3))
            }
            Err(_) => (0, None),
        };
        println!(
            "target {target:>5}: coarse {coarse_ops:>5} ops, placement {placement_secs:>7.1}s, step {}",
            step_ms.map_or("-".into(), |m| format!("{m:.1} ms")),
        );
        recs.push(Sweep {
            target,
            coarse_ops,
            placement_secs,
            step_ms,
        });
    }
    println!("(paper: finer graphs cost solve time; beyond the sweet spot gains vanish)");
    record_json("coarsen_sweep", &recs);
}

/// Placement-budget sweep: how solution quality trades against search
/// budget (the practical knob behind the paper's Table 2/3 "placement time
/// vs training effort" discussion).
fn budget_sweep(cluster: &Cluster, comm: &CommModel) {
    println!("\n== budget sweep (RNNLM-2-2048): annealing iterations vs quality ==");
    let spec = ModelSpec::rnnlm(2, 2048);
    let graph = spec.generate(spec.paper_batch(), 1);
    #[derive(Serialize)]
    struct Budget {
        iterations: usize,
        placement_secs: f64,
        step_ms: Option<f64>,
    }
    let mut recs = Vec::new();
    for iterations in [100usize, 500, 2000, 8000] {
        let mut config = pesto_config(true);
        config.placer.hybrid.iterations = iterations;
        let t0 = Instant::now();
        let result = Pesto::with_comm(*comm, config).place(&graph, cluster);
        let placement_secs = t0.elapsed().as_secs_f64();
        let step_ms = result.ok().and_then(|o| {
            evaluate_plan(&graph, cluster, comm, &o.plan, EVAL_SEED)
                .makespan_us()
                .map(|u| u / 1e3)
        });
        println!(
            "iterations {iterations:>6}: placement {placement_secs:>6.1}s, step {}",
            step_ms.map_or("-".into(), |m| format!("{m:.1} ms")),
        );
        recs.push(Budget {
            iterations,
            placement_secs,
            step_ms,
        });
    }
    println!("(diminishing returns justify the paper's minutes-scale budget)");
    record_json("budget_sweep", &recs);
}

/// Robustness experiment (beyond the paper): Monte-Carlo perturbation
/// sweep comparing how Pesto's, Expert's, and mSCT's plans degrade under
/// stragglers, compute jitter, and degraded links. All strategies face the
/// exact same seeded fault draws, so the distributions are comparable.
fn robustness(cluster: &Cluster, comm: &CommModel, quick: bool, steps: usize) {
    use pesto::{evaluate_robustness, RobustnessConfig};
    if steps > 1 {
        println!("\n== robustness: perturbed steady-state step time ({steps} pipelined steps) ==");
    } else {
        println!("\n== robustness: perturbed per-step time distribution ==");
    }
    let specs = if quick {
        vec![ModelSpec::nmt(2, 256), ModelSpec::transformer(2, 4, 256)]
    } else {
        vec![ModelSpec::nmt(2, 1024), ModelSpec::transformer(6, 8, 512)]
    };
    let config = RobustnessConfig {
        draws: if quick { 16 } else { 64 },
        steps,
        ..RobustnessConfig::default()
    };

    #[derive(Serialize)]
    struct Row {
        model: String,
        strategy: String,
        steps: usize,
        clean_ms: f64,
        p50_ms: f64,
        p95_ms: f64,
        p99_ms: f64,
        worst_ms: f64,
        p95_over_clean: f64,
        most_sensitive_gpu: Option<usize>,
    }
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<20} {:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "model", "strategy", "clean ms", "p50 ms", "p95 ms", "p99 ms", "p95/cln"
    );
    for spec in specs {
        let batch = if quick { 4 } else { spec.paper_batch() };
        let graph = spec.generate(batch, 1);
        let pesto_plan = Pesto::with_comm(*comm, pesto_config(quick))
            .place(&graph, cluster)
            .map(|o| o.plan);
        let plans = [
            ("pesto", pesto_plan.ok()),
            ("expert", Some(expert(&graph, cluster))),
            (
                "m_sct",
                Some(pesto::baselines::m_sct(&graph, cluster, comm)),
            ),
        ];
        for (name, plan) in plans {
            let Some(plan) = plan else {
                println!("{:<20} {:<8} no plan (solver failed)", spec.label(), name);
                continue;
            };
            match evaluate_robustness(&graph, cluster, *comm, &plan, &config) {
                Ok(r) => {
                    let p95_over_clean = if r.clean_makespan_us > 0.0 {
                        r.p95_us / r.clean_makespan_us
                    } else {
                        f64::NAN
                    };
                    println!(
                        "{:<20} {:<8} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.3}",
                        spec.label(),
                        name,
                        r.clean_makespan_us / 1e3,
                        r.p50_us / 1e3,
                        r.p95_us / 1e3,
                        r.p99_us / 1e3,
                        p95_over_clean,
                    );
                    rows.push(Row {
                        model: spec.label(),
                        strategy: name.to_string(),
                        steps: r.steps,
                        clean_ms: r.clean_makespan_us / 1e3,
                        p50_ms: r.p50_us / 1e3,
                        p95_ms: r.p95_us / 1e3,
                        p99_ms: r.p99_us / 1e3,
                        worst_ms: r.worst_us / 1e3,
                        p95_over_clean,
                        most_sensitive_gpu: r.most_sensitive_device.map(|d| d.index()),
                    });
                }
                Err(e) => println!("{:<20} {:<8} sweep failed: {e}", spec.label(), name),
            }
        }
    }
    println!("(lower p95/clean = plan keeps its advantage when the cluster misbehaves)");
    record_json("robustness", &rows);
}

/// Pipelined-throughput experiment (beyond the paper): run each strategy's
/// plan for `steps` consecutive training steps with double-buffered
/// weights and compare sustained throughput (steady-state step time)
/// against one-shot latency (the single-step makespan). Plans that spread
/// work across devices can overlap adjacent steps and close part of their
/// latency gap — or overtake a latency-optimal plan outright.
fn pipeline(cluster: &Cluster, comm: &CommModel, quick: bool, steps: usize) {
    use pesto::evaluate_plan_pipelined;
    println!("\n== pipeline: steady-state step time over {steps} pipelined steps ==");
    let specs = if quick {
        vec![ModelSpec::nmt(2, 256), ModelSpec::transformer(2, 4, 256)]
    } else {
        vec![ModelSpec::nmt(2, 1024), ModelSpec::transformer(6, 8, 512)]
    };

    #[derive(Serialize)]
    struct Row {
        model: String,
        strategy: String,
        steps: usize,
        single_step_ms: Option<f64>,
        steady_step_ms: Option<f64>,
        fill_ms: Option<f64>,
        drain_ms: Option<f64>,
        overlap_gain_pct: Option<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<20} {:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "model", "strategy", "1-step ms", "steady ms", "fill ms", "drain ms", "gain%"
    );
    for spec in specs {
        let batch = if quick { 4 } else { spec.paper_batch() };
        let graph = spec.generate(batch, 1);
        let pesto_plan = Pesto::with_comm(*comm, pesto_config(quick))
            .place(&graph, cluster)
            .map(|o| o.plan);
        let plans = [
            ("pesto", pesto_plan.ok()),
            ("expert", Some(expert(&graph, cluster))),
            (
                "m_sct",
                Some(pesto::baselines::m_sct(&graph, cluster, comm)),
            ),
        ];
        for (name, plan) in plans {
            let Some(plan) = plan else {
                println!("{:<20} {:<8} no plan (solver failed)", spec.label(), name);
                continue;
            };
            let single = evaluate_plan(&graph, cluster, comm, &plan, EVAL_SEED);
            let multi = evaluate_plan_pipelined(&graph, cluster, comm, &plan, EVAL_SEED, steps);
            let stats = multi.pipeline.as_ref();
            let steady = multi.step_time_us();
            let gain = match (single.makespan_us(), steady) {
                (Some(one), Some(s)) if one > 0.0 => Some((1.0 - s / one) * 100.0),
                _ => None,
            };
            let ms = |v: Option<f64>| v.map_or("-".into(), |u| format!("{:.1}", u / 1e3));
            println!(
                "{:<20} {:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
                spec.label(),
                name,
                ms(single.makespan_us()),
                ms(steady),
                ms(stats.map(|s| s.fill_us)),
                ms(stats.map(|s| s.drain_us)),
                gain.map_or("-".into(), |g| format!("{g:.1}")),
            );
            rows.push(Row {
                model: spec.label(),
                strategy: name.to_string(),
                steps,
                single_step_ms: single.makespan_us().map(|u| u / 1e3),
                steady_step_ms: steady.map(|u| u / 1e3),
                fill_ms: stats.map(|s| s.fill_us / 1e3),
                drain_ms: stats.map(|s| s.drain_us / 1e3),
                overlap_gain_pct: gain,
            });
        }
    }
    println!("(gain% = how much of the one-step latency pipelining hides at steady state)");
    record_json("pipeline", &rows);
}

/// Crash-safety experiment (beyond the paper): a deadline-truncated,
/// checkpointed placement run is resumed from its checkpoint file with
/// the remaining budget, and compared against a cold restart granted the
/// same *total* budget. The resumed run keeps the checkpointed incumbent
/// (the pipeline's never-worse guard), so the interesting column is how
/// close resume-after-kill gets to the uninterrupted cold run — i.e. how
/// little of the first phase's work the crash throws away.
fn kill_resume(cluster: &Cluster, comm: &CommModel, quick: bool) {
    use pesto::CheckpointConfig;

    println!("\n== kill-resume: checkpointed search vs cold restart ==");
    let spec = if quick {
        ModelSpec::transformer(2, 4, 256)
    } else {
        ModelSpec::transformer(6, 8, 512)
    };
    let batch = if quick { 4 } else { spec.paper_batch() };
    let graph = spec.generate(batch, 1);
    let half = if quick {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };
    let path = std::env::temp_dir().join(format!(
        "expfig-kill-resume-{}.ckpt.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let budgeted = |budget: Duration, checkpoint: Option<CheckpointConfig>| {
        let mut config = pesto_config(quick);
        // Far more annealing than any of the budgets below afford, so the
        // deadline (not iteration exhaustion) always ends the search.
        config.placer.hybrid.iterations = 2_000_000;
        config.time_budget = Some(budget);
        config.checkpoint = checkpoint;
        Pesto::with_comm(*comm, config).place(&graph, cluster)
    };

    #[derive(Serialize)]
    struct Row {
        phase: String,
        budget_ms: f64,
        step_ms: f64,
        resumed: bool,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut record = |phase: &str, budget: Duration, step_us: f64, resumed: bool| {
        println!(
            "{:<22} {:>7.0} ms budget   step {:>9.1} ms{}",
            phase,
            budget.as_secs_f64() * 1e3,
            step_us / 1e3,
            if resumed { "   (resumed)" } else { "" },
        );
        rows.push(Row {
            phase: phase.to_string(),
            budget_ms: budget.as_secs_f64() * 1e3,
            step_ms: step_us / 1e3,
            resumed,
        });
    };

    let mut checkpointed = CheckpointConfig::new(path.clone());
    checkpointed.every_iters = 50;
    match budgeted(half, Some(checkpointed)) {
        Ok(o) => record("truncated (killed)", half, o.makespan_us, o.resumed),
        Err(e) => println!("truncated run failed: {e}"),
    }
    match budgeted(half, Some(CheckpointConfig::resume(path.clone()))) {
        Ok(o) => record("resumed", half, o.makespan_us, o.resumed),
        Err(e) => println!("resume unavailable: {e}"),
    }
    match budgeted(half * 2, None) {
        Ok(o) => record("cold restart", half * 2, o.makespan_us, o.resumed),
        Err(e) => println!("cold restart failed: {e}"),
    }
    let _ = std::fs::remove_file(&path);
    println!("(resume keeps the checkpointed incumbent, so the crash costs at most the time, never the plan)");
    record_json("kill_resume", &rows);
}

/// Drift-recovery experiment (beyond the paper): the hottest GPU ops run
/// 2.5x slower than their fitted profile (contention, thermal
/// throttling), the drift detector flags them, and the running plan,
/// simulated under the observed times, races a from-scratch
/// `Pesto::place` of the observed graph (profiling, coarsening, search,
/// refinement) under a time budget. A `slowdown` of 1.0 is the control:
/// clean observations must flag nothing.
fn drift_recovery(cluster: &Cluster, comm: &CommModel, quick: bool) {
    use pesto::cost::{detect_drift, DriftConfig};
    use pesto::graph::DeviceKind;
    use pesto::PestoConfig;

    println!("\n== drift-recovery: drift detection, stale plan vs from-scratch placement ==");
    let spec = if quick {
        ModelSpec::nmt(2, 256)
    } else {
        ModelSpec::nmt(2, 1024)
    };
    let batch = if quick { 4 } else { spec.paper_batch() };
    let graph = spec.generate(batch, 1);
    let outcome = match Pesto::with_comm(*comm, pesto_config(quick)).place(&graph, cluster) {
        Ok(o) => o,
        Err(e) => {
            println!("baseline placement failed: {e}");
            return;
        }
    };
    let expected: Vec<f64> = graph.op_ids().map(|id| graph.op(id).compute_us()).collect();
    let budget = if quick {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(1)
    };

    #[derive(Serialize)]
    struct Row {
        slowdown: f64,
        drifted_ops: usize,
        max_drift_frac: f64,
        budget_ms: f64,
        stale_ms: f64,
        scratch_ms: Option<f64>,
        /// The re-placement's degradation tag: `None` when its search
        /// ran to completion within the budget.
        scratch_degradation: Option<&'static str>,
    }
    let mut rows: Vec<Row> = Vec::new();
    println!(
        "{:<9} {:>8} {:>10} {:>10}  scratch path",
        "slowdown", "flagged", "stale ms", "scratch ms"
    );
    for slowdown in [1.0f64, 2.5] {
        // Reality shifts: the heaviest GPU ops now run `slowdown` times
        // their profiled cost.
        let observed = if slowdown == 1.0 {
            graph.clone()
        } else {
            let mut heavy: Vec<OpId> = graph
                .op_ids()
                .filter(|&id| graph.op(id).kind() == DeviceKind::Gpu)
                .collect();
            heavy.sort_by(|&a, &b| {
                graph
                    .op(b)
                    .compute_us()
                    .total_cmp(&graph.op(a).compute_us())
            });
            let hot = (heavy.len() / 20).max(3);
            let mut thawed = graph.clone().thaw();
            for &id in heavy.iter().take(hot) {
                let t = thawed.op(id).compute_us();
                thawed.op_mut(id).set_compute_us(t * slowdown);
            }
            thawed.freeze().expect("perturbed graph stays a DAG")
        };

        let observed_us: Vec<Option<f64>> = observed
            .op_ids()
            .map(|id| Some(observed.op(id).compute_us()))
            .collect();
        let report = detect_drift(&expected, &observed_us, &DriftConfig::default());
        let stale_ms = match Simulator::new(&observed, cluster, *comm).run(&outcome.plan) {
            Ok(r) => r.makespan_us / 1e3,
            Err(e) => {
                println!("{slowdown:<9} stale plan failed to simulate: {e}");
                continue;
            }
        };
        // Forget the running plan and place the observed graph from
        // nothing, through the whole pipeline, under the budget.
        let scratch = Pesto::with_comm(
            *comm,
            PestoConfig {
                time_budget: Some(budget),
                ..pesto_config(quick)
            },
        )
        .place(&observed, cluster);
        let (scratch_ms, scratch_degradation) = match &scratch {
            Ok(o) => (
                Some(o.makespan_us / 1e3),
                o.degradation.as_ref().map(|d| d.tag()),
            ),
            Err(e) => {
                println!("{slowdown:<9} re-placement failed: {e}");
                (None, None)
            }
        };

        println!(
            "{:<9} {:>8} {:>10.1} {:>10}  {}",
            slowdown,
            report.drifted.len(),
            stale_ms,
            scratch_ms.map_or("-".into(), |s| format!("{s:.1}")),
            scratch_degradation.unwrap_or("searched"),
        );
        rows.push(Row {
            slowdown,
            drifted_ops: report.drifted.len(),
            max_drift_frac: report.max_drift_frac,
            budget_ms: budget.as_secs_f64() * 1e3,
            stale_ms,
            scratch_ms,
            scratch_degradation,
        });
    }
    println!(
        "(stale ms: the running plan under the observed times; scratch ms: a from-scratch \
         Pesto::place of the observed graph under a {} ms budget; scratch path: `searched`, \
         or the degradation the budget forced)",
        budget.as_millis()
    );
    record_json("drift_recovery", &rows);
}

/// Quick sanity check for the §3.3 claim that a DAG can always be coarsened
/// to any size (exercised by `all` for completeness).
#[allow(dead_code)]
fn sanity_coarsen(graph: &pesto::graph::FrozenGraph) {
    let c = coarsen(graph, &CoarsenConfig::to_target(1));
    assert!(c.coarse().op_count() >= 1);
}
