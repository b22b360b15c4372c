//! `ilp_exact`: the paper's §3.2 ILP built with `IlpModel::build` and
//! solved by branch and bound to proven optimality, once on each of a set
//! of coarsened NASNet-2-8 instances drawn from the seed.

use crate::calib::{nominal, Reference};
use crate::kernels::{self, KernelInput};
use crate::stats::{cpu_timed, median, process_cpu, tail};
use crate::{input_seed, record_milp_counters, tracer, write_trace, Args, Outcome};
use pesto::coarsen::{coarsen, CoarsenConfig, Coarsening};
use pesto::cost::CommModel;
use pesto::graph::{Cluster, FrozenGraph};
use pesto::ilp::{makespan_lower_bound, IlpConfig, IlpModel, IlpOutcome, MemoryRule};
use pesto::milp::MilpConfig;
use pesto::models::ModelSpec;
use pesto::obs::Obs;
use std::time::{Duration, Instant};

/// The first `RECORDED` instances of a seed have a recorded sum of optima,
/// and a traced run solves only these.
const RECORDED: usize = 12;

/// Time budgeted per instance: a solve takes about 0.45 s of CPU on a
/// 2-core host. The instance count depends only on `--seconds`, so two
/// builds measured with the same arguments solve the same instances, and
/// it is at least `RECORDED`.
const SECONDS_PER_INSTANCE: f64 = 0.6;

/// Vertices each instance is coarsened to. Eight-vertex instances take
/// about 25 s each to prove optimal; six-vertex ones about half a second.
const COARSE_VERTICES: usize = 6;

/// Instance-set generations timed for `setup_s`; the median counts.
const SETUP_REPS: usize = 5;

/// Sum over a seed's first `RECORDED` instances of the proven-optimal
/// `C_max`, µs, as recorded from this benchmark for seeds 1 to 20.
const RECORDED_OPTIMA: &[(u64, f64)] = &[
    (1, 98857.66152987292),
    (2, 98855.43256665027),
    (3, 98809.80573034355),
    (4, 98890.69099454721),
    (5, 98850.76287161073),
    (6, 98867.73897096876),
    (7, 98878.56464387839),
    (8, 98854.33435461308),
    (9, 98838.71873275055),
    (10, 98866.41116448972),
    (11, 98797.76198643664),
    (12, 98854.17992067683),
    (13, 98891.2648597171),
    (14, 98861.66772411019),
    (15, 98832.39581917596),
    (16, 98824.93769724961),
    (17, 98842.05707093843),
    (18, 98860.6578336809),
    (19, 98850.60483984776),
    (20, 98872.26446150558),
];

/// Generates and coarsens `count` instances; also returns the CPU time
/// spent generating graphs.
fn instances(seed: u64, count: usize, obs: &Obs) -> (Vec<(FrozenGraph, Coarsening)>, Duration) {
    let spec = ModelSpec::nasnet(2, 8);
    let mut generating = Duration::ZERO;
    let set = (0..count)
        .map(|k| {
            let (g, dt) = {
                let _s = obs.span("pesto-models.generate");
                cpu_timed(|| spec.generate(16, input_seed(seed, k)))
            };
            generating += dt;
            let c = {
                let _s = obs.span("pesto-coarsen.coarsen");
                coarsen(&g, &CoarsenConfig::to_target(COARSE_VERTICES))
            };
            (g, c)
        })
        .collect();
    (set, generating)
}

/// One solve's outcome with its build and total CPU seconds and total
/// wall seconds.
struct Solve {
    outcome: IlpOutcome,
    build_s: f64,
    cpu_s: f64,
    wall_s: f64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        solver_threads: 1,
        ..Outcome::default()
    };
    pesto::lp::configure_threads(1);
    let obs = tracer(args.trace);
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let count = if args.trace {
        RECORDED
    } else {
        ((args.seconds.as_secs_f64() / SECONDS_PER_INSTANCE).round() as usize).max(RECORDED)
    };

    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut set = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((s, generating), dt) = cpu_timed(|| instances(args.seed, count, &obs));
        setup_s.push(dt.as_secs_f64());
        generate_ms.push(generating.as_secs_f64() * 1e3 / count as f64);
        set = s;
    }
    println!(
        "workload ilp_exact: {count} NASNet-2-8 instances ({} ops) coarsened to {COARSE_VERTICES} \
         vertices, threads 1, seed {}",
        set[0].0.op_count(),
        args.seed
    );

    let solve = |k: usize, obs: Obs, out: &mut Outcome| -> Option<Solve> {
        let coarse = set[k].1.coarse();
        let config = IlpConfig {
            congestion: true,
            memory: MemoryRule::Balance { slack: 0.2 },
            milp: MilpConfig {
                // Never binding: every instance runs to proven optimality.
                time_limit: Duration::from_secs(3600),
                node_limit: usize::MAX,
                threads: 1,
                obs: obs.clone(),
                ..MilpConfig::default()
            },
        };
        out.attempted += 1;
        let _s = obs.span("pesto-ilp.IlpModel::build+solve");
        let (wall, cpu) = (Instant::now(), process_cpu());
        let result = IlpModel::build(coarse, &cluster, &comm, &config).and_then(|model| {
            let build_s = (process_cpu() - cpu).as_secs_f64();
            Ok((model.solve(&config.milp)?, build_s))
        });
        let (cpu_s, wall_s) = (
            (process_cpu() - cpu).as_secs_f64(),
            wall.elapsed().as_secs_f64(),
        );
        let (o, build_s) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("instance {k}: ILP failed: {e}"));
                return None;
            }
        };
        out.check(o.proven_optimal, || {
            format!("instance {k}: not proven optimal (gap {})", o.gap)
        });
        out.check(o.plan.validate(coarse, &cluster).is_ok(), || {
            format!("instance {k}: decoded plan fails Plan::validate")
        });
        let bound = makespan_lower_bound(coarse, &cluster, &comm);
        out.check(o.cmax_us >= bound * (1.0 - 1e-9), || {
            format!(
                "instance {k}: C_max {} below the lower bound {bound}",
                o.cmax_us
            )
        });
        Some(Solve {
            outcome: o,
            build_s,
            cpu_s,
            wall_s,
        })
    };

    // The last set-up step is one warm-up solve of instance 0, which the
    // measured solve must repeat: instance generation alone takes a few
    // ms, a solve about as much as the measured ones.
    let mut host_ref = Reference::new();
    let warm = if args.trace {
        None
    } else {
        match solve(0, Obs::disabled(), &mut out) {
            Some(w) => Some(w),
            None => return out,
        }
    };
    let setup_ms = nominal(
        (median(&setup_s) + warm.as_ref().map_or(0.0, |w| w.cpu_s)) * 1e3,
        host_ref.sample(1),
    );

    // A traced run solves every instance untraced and then traced, which
    // gives its own tracing overhead.
    let mut solves = Vec::with_capacity(count);
    let mut op_ms = Vec::with_capacity(count);
    for k in 0..count {
        let Some(s) = solve(k, Obs::disabled(), &mut out) else {
            return out;
        };
        // About 6% of a solve's time.
        let reference_ms = host_ref.sample(1);
        op_ms.push(nominal(s.cpu_s * 1e3, reference_ms));
        solves.push(s);
    }
    let cmax: Vec<f64> = solves.iter().map(|s| s.outcome.cmax_us).collect();
    if let Some(w) = &warm {
        out.check(w.outcome.cmax_us.to_bits() == cmax[0].to_bits(), || {
            format!(
                "instance 0: C_max {} differs from the warm-up's {}",
                cmax[0], w.outcome.cmax_us
            )
        });
    }
    let recorded_sum: f64 = cmax[..RECORDED].iter().sum();
    if let Some(&(_, recorded)) = RECORDED_OPTIMA.iter().find(|(s, _)| *s == args.seed) {
        out.check((recorded_sum - recorded).abs() <= 1e-9 * recorded, || {
            format!("sum of C_max {recorded_sum} differs from the recorded optimum {recorded}")
        });
    }
    let cpu_ms: Vec<f64> = solves.iter().map(|s| s.cpu_s * 1e3).collect();
    let wall_ms: Vec<f64> = solves.iter().map(|s| s.wall_s * 1e3).collect();
    let (tail_label, tail_ms) = tail(&wall_ms);
    println!(
        "  ilp_solve_s per instance: p50 {:.4} s, {tail_label} {:.4} s wall, p50 {:.4} s CPU over \
         {count} solves, {} nodes; reference {:.4} ms; sum of C_max {recorded_sum:?} us over the \
         first {RECORDED}",
        median(&wall_ms) / 1e3,
        tail_ms / 1e3,
        median(&cpu_ms) / 1e3,
        solves
            .iter()
            .map(|s| s.outcome.nodes_explored)
            .sum::<usize>(),
        host_ref.median_ms(),
    );

    if !args.trace {
        out.set("op_ms", median(&op_ms));
        out.set("quality_ms", cmax.iter().sum::<f64>() / count as f64 / 1e3);
        out.set("setup_s", setup_ms / 1e3);
        return out;
    }

    let mut traced = Vec::with_capacity(count);
    for k in 0..count {
        let Some(s) = solve(k, obs.clone(), &mut out) else {
            return out;
        };
        traced.push(s);
    }
    let n = count as f64;
    let traced_cpu_s: f64 = traced.iter().map(|s| s.cpu_s).sum();
    let traced_solve_s: f64 = traced.iter().map(|s| s.cpu_s - s.build_s).sum();
    let untraced_cpu_s: f64 = solves.iter().map(|s| s.cpu_s).sum();
    let build_ms: Vec<f64> = traced.iter().map(|s| s.build_s * 1e3).collect();
    out.set("generate.ms", median(&generate_ms));
    out.set("op_wall_ms", median(&wall_ms));
    out.set("op_cpu_ms", median(&cpu_ms));
    out.set("ref.ms", host_ref.median_ms());
    out.set("trace_overhead_frac", traced_cpu_s / untraced_cpu_s - 1.0);
    out.set("ilp.build_ms", median(&build_ms));
    record_milp_counters(&obs, &mut out, n);
    let nodes = obs.counter("milp.nodes").max(1) as f64;
    let pivots = obs.counter("milp.lp_pivots").max(1) as f64;
    out.set("milp.ms_per_node", traced_solve_s * 1e3 / nodes);
    out.set("lp.us_per_pivot", traced_solve_s * 1e6 / pivots);
    kernels::measure(
        KernelInput {
            graph: &set[0].0,
            profiler_iterations: 100,
            profile_seed: args.seed,
            coarsen_target: COARSE_VERTICES,
            placement: None,
        },
        &obs,
        &mut out,
    );
    write_trace(args, &obs, &mut out);
    out
}
