//! Per-layer kernel timings on one workload's graph: profiling,
//! coarsening, mSCT, and the ETF list schedule and simulator run every
//! placement search evaluates, each timed by calling the crate's public
//! function directly.

use crate::stats::{per_call_us, timed};
use crate::Outcome;
use pesto::coarsen::{coarsen_with_stats, CoarsenConfig};
use pesto::cost::{CommModel, Profiler};
use pesto::graph::{Cluster, FrozenGraph, LinkType, Placement};
use pesto::ilp::etf_schedule;
use pesto::obs::Obs;
use pesto::sim::Simulator;
use std::time::Duration;

/// Time budget of each repeated-call measurement.
const BUDGET: Duration = Duration::from_millis(300);

/// What to measure the kernels on.
pub struct KernelInput<'a> {
    /// The fine graph with its true op times.
    pub graph: &'a FrozenGraph,
    /// Profiling iterations and seed, as the workload's pipeline uses them.
    pub profiler_iterations: usize,
    pub profile_seed: u64,
    /// Coarsening target, as the workload's pipeline uses it.
    pub coarsen_target: usize,
    /// The fine placement to evaluate (the workload's plan); `None`
    /// evaluates the mSCT placement.
    pub placement: Option<Placement>,
}

/// Measures the kernels and records `profile.call_ms`, `coarsen.*`,
/// `msct.call_ms`, `etf.*`, `sim.*` and `eval.us_per_call` in `out`.
pub fn measure(input: KernelInput<'_>, obs: &Obs, out: &mut Outcome) {
    let cluster = Cluster::two_gpus();
    let comm = CommModel::default_v100();
    let graph = input.graph;
    let n = graph.op_count() as f64;

    let profiler = Profiler::new(input.profiler_iterations, input.profile_seed);
    let profile_us = {
        let _s = obs.span("pesto-cost.Profiler::profile");
        per_call_us(3, BUDGET, || {
            std::hint::black_box(profiler.profile(graph));
        })
    };
    out.set("profile.call_ms", profile_us / 1e3);
    let estimated = profiler.profile(graph).apply_to(graph.clone());

    // The pipeline's coarsening: parallel fine edges that collapse into one
    // coarse edge are charged the link's fixed latency in bytes.
    let gg = comm.fit(LinkType::GpuToGpu);
    let config = CoarsenConfig {
        parallel_edge_penalty_bytes: if gg.beta1 > 0.0 {
            (gg.beta0 / gg.beta1) as u64
        } else {
            0
        },
        ..CoarsenConfig::to_target(input.coarsen_target)
    };
    let coarsen_us = {
        let _s = obs.span("pesto-coarsen.coarsen_with_stats");
        per_call_us(3, BUDGET, || {
            std::hint::black_box(coarsen_with_stats(&estimated, &config));
        })
    };
    let (coarsening, rounds) = coarsen_with_stats(&estimated, &config);
    out.set("coarsen.call_ms", coarsen_us / 1e3);
    out.set("coarsen.ops_after", coarsening.coarse().op_count() as f64);
    out.set("coarsen.rounds", rounds.len() as f64);

    let (msct, msct_time) = {
        let _s = obs.span("pesto-baselines.m_sct");
        timed(|| pesto::baselines::m_sct(&estimated, &cluster, &comm))
    };
    out.set("msct.call_ms", msct_time.as_secs_f64() * 1e3);

    let placement = input.placement.unwrap_or(msct.placement);
    let sim = Simulator::new(&estimated, &cluster, comm).with_memory_check(false);
    let etf = |p: &Placement| {
        etf_schedule(&estimated, &cluster, &comm, p.clone(), &sim)
            .expect("ETF schedules a valid placement")
    };
    let plan = etf(&placement).plan;
    let (etf_us, sim_us, eval_us) = {
        let _s = obs.span("pesto-ilp.etf_schedule+pesto-sim.run (fine)");
        let etf_us = per_call_us(5, BUDGET, || {
            std::hint::black_box(etf(&placement));
        });
        let sim_us = per_call_us(5, BUDGET, || {
            std::hint::black_box(sim.run(&plan).expect("plan simulates"));
        });
        // One candidate evaluation as group-flip refinement pays it: the
        // ETF schedule plus the per-device memory penalty.
        let eval_us = per_call_us(5, BUDGET, || {
            let s = etf(&placement);
            let mut cost = s.report.makespan_us;
            let usage = s.plan.placement.memory_per_device(&estimated, &cluster);
            for (d, &used) in usage.iter().enumerate() {
                let cap = cluster.devices()[d].memory_bytes();
                if used > cap {
                    cost += estimated.total_compute_us()
                        * (1.0 + (used - cap) as f64 / cap.max(1) as f64);
                }
            }
            std::hint::black_box(cost);
        });
        (etf_us, sim_us, eval_us)
    };
    out.set("etf.fine.us_per_call", etf_us);
    out.set("etf.fine.ns_per_op", etf_us * 1e3 / n);
    out.set("sim.fine.us_per_call", sim_us);
    out.set("sim.fine.ns_per_op", sim_us * 1e3 / n);
    out.set("eval.us_per_call", eval_us);

    let coarse = coarsening.coarse();
    let cn = coarse.op_count() as f64;
    let coarse_placement = pesto::baselines::m_sct(coarse, &cluster, &comm).placement;
    let coarse_sim = Simulator::new(coarse, &cluster, comm).with_memory_check(false);
    let (cetf_us, csim_us) = {
        let _s = obs.span("pesto-ilp.etf_schedule+pesto-sim.run (coarse)");
        let cetf = || {
            etf_schedule(
                coarse,
                &cluster,
                &comm,
                coarse_placement.clone(),
                &coarse_sim,
            )
            .expect("ETF schedules the coarse graph")
        };
        let coarse_plan = cetf().plan;
        let cetf_us = per_call_us(5, BUDGET, || {
            std::hint::black_box(cetf());
        });
        let csim_us = per_call_us(5, BUDGET, || {
            std::hint::black_box(coarse_sim.run(&coarse_plan).expect("coarse plan simulates"));
        });
        (cetf_us, csim_us)
    };
    out.set("etf.coarse.us_per_call", cetf_us);
    out.set("etf.coarse.ns_per_op", cetf_us * 1e3 / cn);
    out.set("sim.coarse.us_per_call", csim_us);
    out.set("sim.coarse.ns_per_op", csim_us * 1e3 / cn);
}
