//! `place_rnnlm` and `place_sharded`: closed-loop `Pesto::place`, one
//! placement after another over a set of graphs drawn from the seed.

use crate::calib::{nominal, Reference};
use crate::kernels::{self, KernelInput};
use crate::stats::{cpu_timed, median, tail, timed};
use crate::{input_seed, record_milp_counters, tracer, write_trace, Args, Outcome};
use pesto::graph::{Cluster, DeviceId};
use pesto::models::ModelSpec;
use pesto::obs::Obs;
use pesto::shard::ShardConfig;
use pesto::{Pesto, PestoConfig, PestoOutcome};

/// Graph-set generations timed for `setup_s`; the median counts.
const SETUP_REPS: usize = 7;

/// Share of the paper's unrolled sequence length the graphs keep. At full
/// length one graph takes 8-12 s to place and its placement time varies
/// 23% from seed to seed, so a run could not average over enough graphs.
const SCALE: f64 = 0.25;

/// Runs the workload: RNNLM-2-1024 monolithic with one solver thread, or
/// RNNLM-4-1024 sharded (default region cap) with two. Set-up generates a
/// set of graphs drawn from the seed and places the first one; the run
/// then places each graph once, and the first must repeat its plan bit
/// for bit. `setup_s` is the median set generation plus that warm-up
/// placement, in CPU time scaled like `op_ms`: generation alone takes a
/// few ms and varied by half between runs, a placement about as much as
/// the measured ones.
pub fn run(args: &Args, sharded: bool) -> Outcome {
    // The time budgeted per graph sets how many graphs a run of
    // `--seconds` places; on a 2-core host a placement takes most of it
    // (about 1.7 s and 2.6 s). The count depends only on `--seconds`, so
    // two builds measured with the same arguments place the same graphs.
    let (spec, threads, seconds_per_graph) = if sharded {
        (ModelSpec::rnnlm(4, 1024), 2, 3.0)
    } else {
        (ModelSpec::rnnlm(2, 1024), 1, 2.0)
    };
    let count = ((args.seconds.as_secs_f64() / seconds_per_graph).round() as usize).max(2);
    let mut out = Outcome {
        solver_threads: threads,
        ..Outcome::default()
    };
    pesto::lp::configure_threads(threads);
    let obs = tracer(args.trace);
    let cluster = Cluster::two_gpus();

    let mut setup_s = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        let _s = obs.span("pesto-models.generate");
        let (g, dt) = cpu_timed(|| {
            (0..count)
                .map(|k| spec.generate_scaled(spec.paper_batch(), input_seed(args.seed, k), SCALE))
                .collect::<Vec<_>>()
        });
        setup_s.push(dt.as_secs_f64());
        graphs = g;
    }
    println!(
        "workload {}: {count} {} graphs at {} of the unrolled length ({} ops each), \
         {threads} solver thread(s), seed {}",
        args.workload,
        spec.label(),
        SCALE,
        graphs[0].op_count(),
        args.seed
    );

    let config = |obs: Obs| PestoConfig {
        solver_threads: threads,
        shard: sharded.then(ShardConfig::default),
        obs,
        ..PestoConfig::default()
    };
    // Returns the outcome with the placement's wall and CPU seconds.
    let place = |k: usize, obs: Obs, out: &mut Outcome| -> Option<(PestoOutcome, f64, f64)> {
        let graph = &graphs[k];
        out.attempted += 1;
        let _s = obs.span("pesto.Pesto::place");
        let ((result, wall), cpu) =
            cpu_timed(|| timed(|| Pesto::new(config(obs.clone())).place(graph, &cluster)));
        match result {
            Ok(o) => {
                out.check(o.plan.validate(graph, &cluster).is_ok(), || {
                    format!("graph {k}: plan fails Plan::validate")
                });
                out.check(o.degradation.is_none(), || {
                    format!("graph {k}: placement degraded: {:?}", o.degradation)
                });
                Some((o, wall.as_secs_f64(), cpu.as_secs_f64()))
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("graph {k}: placement failed: {e}"));
                None
            }
        }
    };
    let same_plan = |a: &PestoOutcome, b: &PestoOutcome| {
        a.plan.placement.as_slice() == b.plan.placement.as_slice()
            && a.plan.order == b.plan.order
            && a.makespan_us.to_bits() == b.makespan_us.to_bits()
    };

    if args.trace {
        // One untraced and one traced placement of the first graph: the
        // pair gives the tracing overhead, the traced one the stages.
        let (Some((plain, plain_s, plain_cpu_s)), Some((traced, traced_s, _))) = (
            place(0, Obs::disabled(), &mut out),
            place(0, obs.clone(), &mut out),
        ) else {
            return out;
        };
        out.check(same_plan(&plain, &traced), || {
            "graph 0: traced plan differs".into()
        });
        out.set("generate.ms", median(&setup_s) * 1e3 / count as f64);
        out.set("op_wall_ms", plain_s * 1e3);
        out.set("op_cpu_ms", plain_cpu_s * 1e3);
        out.set("ref.ms", Reference::measure_ms());
        out.set("trace_overhead_frac", traced_s / plain_s - 1.0);
        let mut stage_sum_ms = 0.0;
        for st in &traced.stage_timings {
            stage_sum_ms += st.wall_us / 1e3;
            out.set(&format!("{}.ms", st.stage), st.wall_us / 1e3);
        }
        out.set("place_overhead.ms", traced_s * 1e3 - stage_sum_ms);
        if let Some(shard) = &traced.shard {
            out.set("shard_solve.ms", shard.solve_ms);
            out.set("shard.regions", shard.regions.len() as f64);
            out.set("shard.cut_edges", shard.cut_edges as f64);
            out.set("shard.refine_moves", shard.refine_moves as f64);
        }
        record_milp_counters(&obs, &mut out, 1.0);
        kernels::measure(
            KernelInput {
                graph: &graphs[0],
                profiler_iterations: 100,
                profile_seed: PestoConfig::default().seed,
                coarsen_target: coarsen_target(graphs[0].op_count(), sharded),
                placement: Some(traced.plan.placement.clone()),
            },
            &obs,
            &mut out,
        );
        write_trace(args, &obs, &mut out);
        return out;
    }

    // The last set-up step is one warm-up placement of graph 0; the
    // measured placement of graph 0 must repeat its plan.
    let mut host_ref = Reference::new();
    let Some((warm, _, warm_cpu_s)) = place(0, Obs::disabled(), &mut out) else {
        return out;
    };
    let setup_ms = nominal((median(&setup_s) + warm_cpu_s) * 1e3, host_ref.sample(3));
    let mut place_s = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut op_ms = Vec::new();
    for k in 0..count {
        let Some((o, secs, cpu_s)) = place(k, Obs::disabled(), &mut out) else {
            return out;
        };
        println!(
            "  graph {k}: {secs:.3} s wall, {cpu_s:.3} s CPU, step {:.4} ms, plan digest {:016x}",
            o.makespan_us / 1e3,
            digest(o.plan.placement.as_slice())
        );
        if k == 0 {
            out.check(same_plan(&warm, &o), || {
                "graph 0: a second placement returned a different plan".into()
            });
        }
        // About 2% of a placement's time.
        let reference_ms = host_ref.sample(2);
        op_ms.push(nominal(cpu_s * 1e3, reference_ms));
        place_s.push(secs);
        cpu_ms.push(cpu_s * 1e3);
        step_ms.push(o.makespan_us / 1e3);
    }
    let (tail_label, tail_s) = tail(&place_s);
    let mean_step_ms = step_ms.iter().sum::<f64>() / step_ms.len() as f64;
    println!(
        "  place_s p50 {:.4} s, {tail_label} {tail_s:.4} s wall; CPU p50 {:.4} s over {count} graphs; \
         reference {:.4} ms; mean step_ms {mean_step_ms:.4}",
        median(&place_s),
        median(&cpu_ms) / 1e3,
        host_ref.median_ms(),
    );
    out.set("op_ms", median(&op_ms));
    out.set("quality_ms", mean_step_ms);
    out.set("setup_s", setup_ms / 1e3);
    out
}

/// The coarsening target the pipeline uses: the monolithic path coarsens
/// to `coarsen_target` but at least 4x (never below 200 vertices); the
/// sharded path's global refinement coarsens to `coarsen_target`.
fn coarsen_target(ops: usize, sharded: bool) -> usize {
    let target = PestoConfig::default().coarsen_target;
    if sharded {
        target
    } else {
        target.min((ops / 4).max(200))
    }
}

/// FNV-1a over a placement's device indices, so runs of one seed can be
/// compared across processes.
fn digest(devices: &[DeviceId]) -> u64 {
    devices.iter().fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h ^ d.index() as u64).wrapping_mul(0x0100_0000_01b3)
    })
}
