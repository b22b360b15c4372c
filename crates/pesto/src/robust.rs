//! Robustness analysis for placement plans: Monte-Carlo perturbation
//! sweeps and post-outage plan repair.
//!
//! The paper optimizes for clean conditions; real clusters have
//! stragglers, contended links, and the occasional dead device. This
//! module asks two questions of a finished [`Plan`]:
//!
//! 1. **How fragile is it?** [`evaluate_robustness`] replays the plan
//!    under `N` deterministic fault draws (see
//!    [`PerturbationSpec`][pesto_sim::PerturbationSpec]) and reports the
//!    makespan distribution (p50/p95/p99) plus which device hurts most
//!    when it straggles.
//! 2. **Can it survive an outage?** [`repair_after_outage`] removes a
//!    failed GPU from the cluster, keeps every placement on the
//!    survivors, re-places only the stranded operations (greedily, then —
//!    given a time budget — by bounded local search over the stranded
//!    ops and their neighbors), and re-derives an ETF schedule on the
//!    surviving cluster.
//!
//! Whether a plan's profile is still true is a third question, answered
//! by [`detect_drift`][pesto_cost::detect_drift] on the observed per-op
//! times ([`pesto_sim::SimReport::observed_op_us`]).

use crate::pipeline::PestoError;
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceId, DeviceKind, LinkType, OpId, Placement, Plan};
use pesto_ilp::{EtfTrace, Evaluator, IlpError};
use pesto_sim::{FaultPlan, PerturbationSpec, SimError, Simulator};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Schema version stamped into every serialized [`RobustnessReport`], as
/// `major.minor`. Readers should refuse majors they do not understand.
pub const ROBUSTNESS_SCHEMA_VERSION: &str = "1.0";

/// Configuration for [`evaluate_robustness`].
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Number of Monte-Carlo fault draws. Each draw is seeded
    /// deterministically from [`RobustnessConfig::seed`], so the same
    /// config always yields the same percentiles.
    pub draws: usize,
    /// Base seed for the sweep.
    pub seed: u64,
    /// The perturbation distribution each draw samples from.
    pub spec: PerturbationSpec,
    /// Straggler slowdown used for the per-device sensitivity probes.
    pub sensitivity_factor: f64,
    /// Number of pipelined training steps per simulation (see
    /// [`pesto_sim::Simulator::with_steps`]). With `steps > 1` every
    /// reported time is the *steady-state step time* instead of the
    /// single-step makespan, ranking plans by sustained throughput under
    /// faults. Defaults to 1.
    pub steps: usize,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            draws: 64,
            seed: 0x0b57,
            spec: PerturbationSpec::default(),
            sensitivity_factor: 1.5,
            steps: 1,
        }
    }
}

/// Makespan distribution of a plan under perturbation.
///
/// When [`RobustnessConfig::steps`] is greater than 1 every time below is
/// a *steady-state step time* (see
/// [`SimReport::steady_state_step_us`][pesto_sim::SimReport::steady_state_step_us])
/// rather than a single-step makespan.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// Serialization format version ([`ROBUSTNESS_SCHEMA_VERSION`]).
    pub schema_version: String,
    /// Pipelined steps per simulation ([`RobustnessConfig::steps`]).
    pub steps: usize,
    /// Makespan under clean (fault-free) conditions, µs.
    pub clean_makespan_us: f64,
    /// Number of fault draws behind the percentiles.
    pub draws: usize,
    /// Mean perturbed makespan, µs.
    pub mean_us: f64,
    /// Median perturbed makespan (nearest-rank), µs.
    pub p50_us: f64,
    /// 95th-percentile perturbed makespan (nearest-rank), µs.
    pub p95_us: f64,
    /// 99th-percentile perturbed makespan (nearest-rank), µs.
    pub p99_us: f64,
    /// Worst perturbed makespan observed, µs.
    pub worst_us: f64,
    /// Makespan increase (vs clean) when GPU *i* alone straggles by
    /// [`RobustnessConfig::sensitivity_factor`], µs. Indexed like
    /// [`Cluster::gpus`].
    pub device_sensitivity_us: Vec<f64>,
    /// The GPU whose straggling hurts the makespan most, if any probe
    /// increased it.
    pub most_sensitive_device: Option<DeviceId>,
}

/// Nearest-rank percentile of an ascending-sorted non-empty slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Replays `plan` under `config.draws` deterministic fault draws and
/// reports the resulting makespan distribution plus per-device straggler
/// sensitivity.
///
/// The same `(plan, config)` pair always produces the same report: draw
/// `i` uses fault seed `config.seed + i`.
///
/// # Errors
///
/// * [`PestoError::InvalidConfig`] for a zero-draw sweep — percentiles
///   of an empty sample would be lies, not statistics;
/// * [`PestoError::NoGpus`] for a cluster with no surviving GPU;
/// * simulation failures, propagated as [`PestoError::Sim`]. A plan that
///   runs clean cannot fail under the sweep's faults (stragglers, jitter,
///   and degraded links only slow things down; the sweep injects no
///   outages).
pub fn evaluate_robustness(
    graph: &pesto_graph::FrozenGraph,
    cluster: &Cluster,
    comm: CommModel,
    plan: &Plan,
    config: &RobustnessConfig,
) -> Result<RobustnessReport, PestoError> {
    if config.draws == 0 {
        return Err(PestoError::InvalidConfig(
            "robustness sweep needs at least one fault draw (draws == 0)".into(),
        ));
    }
    if cluster.gpu_count() == 0 {
        return Err(PestoError::NoGpus);
    }
    let steps = config.steps.max(1);
    let clean = Simulator::new(graph, cluster, comm)
        .with_steps(steps)
        .run(plan)?
        .steady_state_step_us();

    let mut samples = Vec::with_capacity(config.draws);
    for i in 0..config.draws {
        let faults = config
            .spec
            .draw(cluster, config.seed.wrapping_add(i as u64));
        let report = Simulator::new(graph, cluster, comm)
            .with_faults(faults)
            .with_steps(steps)
            .run(plan)?;
        samples.push(report.steady_state_step_us());
    }
    samples.sort_by(f64::total_cmp);

    // `draws >= 1` is enforced above, so the sample set is never empty
    // and every percentile is backed by a real observation.
    let (mean, p50, p95, p99, worst) = (
        samples.iter().sum::<f64>() / samples.len() as f64,
        percentile(&samples, 0.50),
        percentile(&samples, 0.95),
        percentile(&samples, 0.99),
        *samples.last().expect("non-empty"),
    );

    // Sensitivity probes: one straggler at a time, everything else clean.
    let mut sensitivity = Vec::with_capacity(cluster.gpu_count());
    for gpu in cluster.gpus() {
        let faults = FaultPlan::new(config.seed).with_straggler(gpu, config.sensitivity_factor);
        let perturbed = Simulator::new(graph, cluster, comm)
            .with_faults(faults)
            .with_steps(steps)
            .run(plan)?;
        sensitivity.push(perturbed.steady_state_step_us() - clean);
    }
    let most_sensitive = sensitivity
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .filter(|(_, &extra)| extra > 1e-9)
        .map(|(i, _)| cluster.gpus()[i]);

    Ok(RobustnessReport {
        schema_version: ROBUSTNESS_SCHEMA_VERSION.to_string(),
        steps,
        clean_makespan_us: clean,
        draws: config.draws,
        mean_us: mean,
        p50_us: p50,
        p95_us: p95,
        p99_us: p99,
        worst_us: worst,
        device_sensitivity_us: sensitivity,
        most_sensitive_device: most_sensitive,
    })
}

/// A plan repaired onto the surviving cluster after a device outage.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The surviving cluster (failed GPU removed, devices renumbered
    /// densely).
    pub cluster: Cluster,
    /// The repaired plan, valid on [`RepairOutcome::cluster`].
    pub plan: Plan,
    /// Simulated per-step time of the repaired plan on the survivors, µs.
    pub makespan_us: f64,
    /// How many operations had to move off the failed device.
    pub moved_ops: usize,
}

/// Repairs `plan` after `failed` dies: placements on surviving devices
/// are kept (renumbered), only the stranded operations are re-placed —
/// greedily, in topological order, onto the GPU minimizing accumulated
/// load plus cross-device transfer cost to already-placed neighbors,
/// subject to device memory — and the schedule is re-derived by ETF on
/// the surviving cluster.
///
/// With `budget == Duration::ZERO` the greedy placement is the answer: a
/// valid plan *now*, nothing re-searched. A positive `budget` buys a
/// bounded local search on top: hill climbing restricted to the stranded
/// ops and their direct neighbors (the only region the outage disturbed),
/// each flip scored by a full ETF re-schedule, stopping at the first
/// whole pass without improvement or when the budget expires — whichever
/// comes first. The search only ever replaces the greedy placement with
/// something that schedules strictly better, so any budget is safe.
///
/// # Errors
///
/// * [`PestoError::Sim`] with [`SimError::InvalidPlan`] if `plan` does
///   not validate against `graph` and `cluster`;
/// * [`PestoError::NoGpus`] if no GPU survives;
/// * [`PestoError::Repair`] if `failed` is not a GPU of `cluster` or a
///   stranded op fits on no surviving device;
/// * simulation errors from the final honest evaluation.
pub fn repair_after_outage(
    graph: &pesto_graph::FrozenGraph,
    cluster: &Cluster,
    comm: CommModel,
    plan: &Plan,
    failed: DeviceId,
    budget: Duration,
) -> Result<RepairOutcome, PestoError> {
    let search_deadline = Instant::now() + budget;
    plan.validate(graph, cluster)
        .map_err(SimError::InvalidPlan)?;
    let survivors = cluster
        .without_gpu(failed)
        .map_err(|e| PestoError::Repair(format!("cannot remove {failed:?}: {e}")))?;
    if survivors.gpu_count() == 0 {
        return Err(PestoError::NoGpus);
    }
    // Dense renumbering: devices after the failed one shift down by one.
    let map = |old: DeviceId| {
        DeviceId::from_index(old.index() - usize::from(old.index() > failed.index()))
    };

    let mut placement = Placement::affinity_default(graph, &survivors);
    let mut stranded: Vec<OpId> = Vec::new();
    let mut load_us = vec![0.0f64; survivors.device_count()];
    let mut used_bytes = vec![0u64; survivors.device_count()];
    let mut placed = vec![false; graph.op_count()];
    for &op in graph.topo_order() {
        let old = plan.placement.device(op);
        if old == failed {
            stranded.push(op);
            continue;
        }
        let new = map(old);
        placement.set_device(op, new);
        placed[op.index()] = true;
        load_us[new.index()] += graph.op(op).compute_us();
        used_bytes[new.index()] =
            used_bytes[new.index()].saturating_add(graph.op(op).memory_bytes());
    }
    let moved_ops = stranded.len();

    let cpu = survivors.cpu();
    let link_type = |src: DeviceId, dst: DeviceId| {
        if src == cpu {
            LinkType::CpuToGpu
        } else if dst == cpu {
            LinkType::GpuToCpu
        } else {
            LinkType::GpuToGpu
        }
    };
    for &op in &stranded {
        let mem = graph.op(op).memory_bytes();
        let mut best: Option<(f64, DeviceId)> = None;
        for gpu in survivors.gpus() {
            let cap = survivors.devices()[gpu.index()].memory_bytes();
            if used_bytes[gpu.index()].saturating_add(mem) > cap {
                continue;
            }
            // Load so far plus the transfers this choice would create.
            let mut cost = load_us[gpu.index()];
            for &(pred, bytes) in graph.preds_with_bytes(op) {
                if placed[pred.index()] && placement.device(pred) != gpu {
                    cost += comm.transfer_us(link_type(placement.device(pred), gpu), bytes);
                }
            }
            for &(succ, bytes) in graph.succs_with_bytes(op) {
                if placed[succ.index()] && placement.device(succ) != gpu {
                    cost += comm.transfer_us(link_type(gpu, placement.device(succ)), bytes);
                }
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, gpu));
            }
        }
        let Some((_, gpu)) = best else {
            return Err(PestoError::Repair(format!(
                "stranded op {op:?} ({mem} bytes) fits on no surviving GPU"
            )));
        };
        placement.set_device(op, gpu);
        placed[op.index()] = true;
        load_us[gpu.index()] += graph.op(op).compute_us();
        used_bytes[gpu.index()] = used_bytes[gpu.index()].saturating_add(mem);
    }

    // Bounded local search on top of greedy (zero budget skips it): the
    // outage only disturbed the stranded ops and the neighbors they now
    // talk to, so flips are restricted to that region. Each flip is
    // scored by an ETF re-schedule on the survivors, resumed from the
    // incumbent's trace; first-improvement hill climbing repeats until a
    // pass yields nothing or the budget expires. Greedy is only ever
    // replaced by something strictly better.
    // Ops only move onto GPUs with room, so for a plan that fit before
    // the outage every scored cost is the plain makespan.
    let eval = Evaluator::new(graph, &survivors, comm, false);
    if budget > Duration::ZERO && survivors.gpu_count() >= 2 && !stranded.is_empty() {
        let mut region: Vec<OpId> = Vec::new();
        let mut in_region = vec![false; graph.op_count()];
        for &op in &stranded {
            for cand in std::iter::once(op)
                .chain(graph.preds(op).iter().copied())
                .chain(graph.succs(op).iter().copied())
            {
                if !in_region[cand.index()] && graph.op(cand).kind() == DeviceKind::Gpu {
                    in_region[cand.index()] = true;
                    region.push(cand);
                }
            }
        }
        let (mut best_score, mut best_trace) = eval.score(&placement).map_err(IlpError::from)?;
        let mut cand_trace = EtfTrace::default();
        let expired = || Instant::now() >= search_deadline;
        'passes: loop {
            let mut improved = false;
            for &op in &region {
                if expired() {
                    break 'passes;
                }
                let current = placement.device(op);
                let mem = graph.op(op).memory_bytes();
                for gpu in survivors.gpus() {
                    if gpu == current {
                        continue;
                    }
                    let cap = survivors.devices()[gpu.index()].memory_bytes();
                    if used_bytes[gpu.index()].saturating_add(mem) > cap {
                        continue;
                    }
                    let mut cand = placement.clone();
                    cand.set_device(op, gpu);
                    let score = eval
                        .rescore(&placement, &best_trace, &cand, &mut cand_trace)
                        .map_err(IlpError::from)?;
                    if score < best_score - 1e-9 {
                        best_score = score;
                        std::mem::swap(&mut best_trace, &mut cand_trace);
                        used_bytes[current.index()] =
                            used_bytes[current.index()].saturating_sub(mem);
                        used_bytes[gpu.index()] = used_bytes[gpu.index()].saturating_add(mem);
                        placement = cand;
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    let repaired = eval.schedule(placement).map_err(IlpError::from)?.plan;
    repaired
        .validate(graph, &survivors)
        .map_err(|e| PestoError::Repair(format!("repaired plan is invalid: {e}")))?;
    let makespan_us = Simulator::new(graph, &survivors, comm)
        .run(&repaired)?
        .makespan_us;

    Ok(RepairOutcome {
        cluster: survivors,
        plan: repaired,
        makespan_us,
        moved_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pesto, PestoConfig};
    use pesto_models::ModelSpec;

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    #[test]
    fn robustness_sweep_is_deterministic_and_ordered() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let config = RobustnessConfig {
            draws: 16,
            ..RobustnessConfig::default()
        };
        let a = evaluate_robustness(&graph, &cluster, comm(), &outcome.plan, &config).unwrap();
        let b = evaluate_robustness(&graph, &cluster, comm(), &outcome.plan, &config).unwrap();
        assert_eq!(a.p50_us, b.p50_us);
        assert_eq!(a.p95_us, b.p95_us);
        assert_eq!(a.p99_us, b.p99_us);
        assert!(
            a.clean_makespan_us <= a.p50_us + 1e-9,
            "faults only slow things down"
        );
        assert!(a.p50_us <= a.p95_us && a.p95_us <= a.p99_us && a.p99_us <= a.worst_us);
        assert_eq!(a.device_sensitivity_us.len(), cluster.gpu_count());
    }

    #[test]
    fn pipelined_robustness_measures_steady_state_step_time() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let single = evaluate_robustness(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            &RobustnessConfig {
                draws: 8,
                ..RobustnessConfig::default()
            },
        )
        .unwrap();
        let piped = evaluate_robustness(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            &RobustnessConfig {
                draws: 8,
                steps: 4,
                ..RobustnessConfig::default()
            },
        )
        .unwrap();
        assert_eq!(single.steps, 1);
        assert_eq!(piped.steps, 4);
        // Per-step steady-state time never exceeds the one-shot makespan:
        // overlap can only help, back-to-back execution is the worst case.
        assert!(piped.clean_makespan_us <= single.clean_makespan_us + 1e-9);
        assert!(piped.p50_us <= piped.p95_us && piped.p95_us <= piped.p99_us);
    }

    #[test]
    fn sensitivity_identifies_a_loaded_device() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let report = evaluate_robustness(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            &RobustnessConfig {
                draws: 4,
                ..RobustnessConfig::default()
            },
        )
        .unwrap();
        // Some GPU carries critical-path work, so slowing it must hurt.
        assert!(report.most_sensitive_device.is_some());
    }

    #[test]
    fn repair_moves_only_stranded_ops_and_validates() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::homogeneous(3, 1 << 34);
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let failed = cluster.gpus()[1];
        let stranded: Vec<OpId> = graph
            .op_ids()
            .filter(|&op| outcome.plan.placement.device(op) == failed)
            .collect();
        let repair = repair_after_outage(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            failed,
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(repair.moved_ops, stranded.len());
        assert_eq!(repair.cluster.gpu_count(), cluster.gpu_count() - 1);
        assert!(repair.makespan_us > 0.0);
        // Ops that were NOT on the failed device kept their (renumbered)
        // placement.
        for op in graph.op_ids() {
            let old = outcome.plan.placement.device(op);
            if old == failed {
                continue;
            }
            let expect =
                DeviceId::from_index(old.index() - usize::from(old.index() > failed.index()));
            assert_eq!(repair.plan.placement.device(op), expect);
        }
    }

    #[test]
    fn zero_draw_sweep_is_a_typed_error() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let err = evaluate_robustness(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            &RobustnessConfig {
                draws: 0,
                ..RobustnessConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PestoError::InvalidConfig(_)), "got {err:?}");
    }

    #[test]
    fn sweeping_an_all_dead_cluster_is_a_typed_error() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let full = Cluster::homogeneous(1, 1 << 34);
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &full)
            .unwrap();
        let dead = full.without_gpu(full.gpus()[0]).unwrap();
        let err = evaluate_robustness(
            &graph,
            &dead,
            comm(),
            &outcome.plan,
            &RobustnessConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, PestoError::NoGpus);
    }

    #[test]
    fn reports_carry_the_schema_version() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let report = evaluate_robustness(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            &RobustnessConfig {
                draws: 2,
                ..RobustnessConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.schema_version, ROBUSTNESS_SCHEMA_VERSION);
    }

    #[test]
    fn budgeted_repair_never_loses_to_greedy() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::homogeneous(3, 1 << 34);
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let failed = cluster.gpus()[1];
        let greedy = repair_after_outage(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            failed,
            Duration::ZERO,
        )
        .unwrap();
        let budgeted = repair_after_outage(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            failed,
            Duration::from_millis(500),
        )
        .unwrap();
        assert_eq!(budgeted.moved_ops, greedy.moved_ops);
        assert!(
            budgeted.makespan_us <= greedy.makespan_us + 1e-9,
            "local search regressed: {} > {}",
            budgeted.makespan_us,
            greedy.makespan_us
        );
        assert!(budgeted.plan.validate(&graph, &budgeted.cluster).is_ok());
    }

    #[test]
    fn repair_with_no_survivors_is_no_gpus() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::homogeneous(1, 1 << 34);
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let err = repair_after_outage(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            cluster.gpus()[0],
            Duration::ZERO,
        )
        .unwrap_err();
        assert_eq!(err, PestoError::NoGpus);
    }

    #[test]
    fn repair_rejects_a_non_gpu_device() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let err = repair_after_outage(
            &graph,
            &cluster,
            comm(),
            &outcome.plan,
            cluster.cpu(),
            Duration::ZERO,
        )
        .unwrap_err();
        assert!(matches!(err, PestoError::Repair(_)));
    }

    #[test]
    fn repair_rejects_an_invalid_plan_as_the_simulator_does() {
        // A placement one op short (a plan of another graph) and one on a
        // device the cluster lacks: both fail validation, with the error
        // `Simulator::run` gives, instead of indexing out of range.
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let valid = Placement::affinity_default(&graph, &cluster);
        let n = graph.op_count();
        let short = Placement::from_vec(valid.as_slice()[..n - 1].to_vec());
        let mut off_cluster = valid;
        off_cluster.set_device(OpId::from_index(n / 2), DeviceId::from_index(7));
        for placement in [short, off_cluster] {
            let plan = Plan::placement_only(placement);
            let sim_err = Simulator::new(&graph, &cluster, comm())
                .run(&plan)
                .unwrap_err();
            assert!(matches!(sim_err, SimError::InvalidPlan(_)), "{sim_err:?}");
            let err = repair_after_outage(
                &graph,
                &cluster,
                comm(),
                &plan,
                cluster.gpus()[1],
                Duration::ZERO,
            )
            .unwrap_err();
            assert_eq!(err, PestoError::Sim(sim_err));
        }
    }
}
