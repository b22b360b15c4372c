//! The hybrid placement solver: simulated annealing over placements with a
//! list-scheduling + simulation evaluator.
//!
//! The paper solves its ILP with CPLEX after coarsening to ~200 vertices
//! (§3.3, §5.3). A from-scratch branch-and-bound cannot close big-M
//! scheduling formulations of that size in reasonable time, so this module
//! provides the search horsepower instead: an annealed local search over
//! the *placement* variables `x_i` — the same decision space as the ILP —
//! whose inner objective is the simulated makespan of the ETF schedule for
//! that placement, plus a penalty for memory-capacity violations.
//!
//! The result is used directly for large instances and as a warm-start
//! incumbent for the exact ILP on small ones (see [`crate::PestoPlacer`]).
//! Restarts run in parallel on scoped threads, all scoring candidates
//! with one shared [`Evaluator`].
//!
//! # Crash safety
//!
//! Long searches are resumable: each restart chain periodically snapshots
//! its complete state — RNG ([`crate::SearchRng`]), temperature, iteration
//! counter, current and incumbent placements — into a shared
//! [`HybridSearchState`], which a [`CheckpointSink`] can persist. Feeding
//! that state back via [`HybridConfig::resume_from`] continues every chain
//! *bit-identically*: a resumed search reaches the same final plan as the
//! uninterrupted run.

use crate::error::IlpError;
use crate::listsched::{EtfTrace, Evaluator};
use crate::rng::SearchRng;
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, OpId, Placement, Plan};
use pesto_obs::{CancelToken, Obs, RobustMutex, SolverEventKind};
use pesto_sim::Simulator;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Initial annealing temperature as a fraction of a chain's starting cost.
const INITIAL_TEMP_FRAC: f64 = 0.08;

/// Serialized mid-search state of one annealing restart chain: everything
/// needed to continue the chain bit-identically from `next_iter`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestartState {
    /// Original restart index (labels telemetry; also derives the RNG seed
    /// of a fresh chain).
    pub restart: u64,
    /// Raw RNG state at the `next_iter` iteration boundary.
    pub rng: [u64; 4],
    /// First iteration the resumed chain will execute.
    pub next_iter: usize,
    /// Annealing temperature at the boundary.
    pub temp: f64,
    /// Initial temperature of the chain (the cooling rate is re-derived
    /// from `t0` and the iteration count, so it must be preserved).
    pub t0: f64,
    /// Current placement of the chain.
    pub placement: Placement,
    /// Best placement the chain has seen.
    pub best_placement: Placement,
    /// Penalized cost of `best_placement`.
    pub best_cost: f64,
    /// Whether the chain ran to completion.
    pub finished: bool,
    /// Whether a deadline truncated the chain at this state.
    pub truncated: bool,
}

/// Serialized state of a whole hybrid search (all restart chains), as
/// handed to a [`CheckpointSink`] and accepted by
/// [`HybridConfig::resume_from`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridSearchState {
    /// Base RNG seed of the search.
    pub seed: u64,
    /// Total annealing iterations per restart (resume re-derives the
    /// cooling schedule from this, so it overrides the config's value).
    pub iterations: usize,
    /// One state per restart chain.
    pub restarts: Vec<RestartState>,
}

impl HybridSearchState {
    /// The best placement across all chains, with its penalized cost.
    pub fn incumbent(&self) -> Option<(&Placement, f64)> {
        self.restarts
            .iter()
            .min_by(|a, b| a.best_cost.total_cmp(&b.best_cost))
            .map(|r| (&r.best_placement, r.best_cost))
    }
}

/// Receives search-state snapshots as the annealer runs (on the
/// [`HybridConfig::checkpoint_every`] cadence, on deadline truncation, and
/// once at completion). The callback must be cheap-ish and thread-safe: it
/// is invoked from restart threads while the search is live.
#[derive(Clone)]
pub struct CheckpointSink(pub Arc<dyn Fn(&HybridSearchState) + Send + Sync>);

impl CheckpointSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&HybridSearchState) + Send + Sync + 'static) -> Self {
        CheckpointSink(Arc::new(f))
    }
}

impl fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CheckpointSink(..)")
    }
}

/// Hybrid solver knobs.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Annealing steps per restart.
    pub iterations: usize,
    /// Independent restarts (run in parallel threads), *in addition to* one
    /// restart per seed placement.
    pub restarts: usize,
    /// RNG seed; restart `r` uses `seed + r`.
    pub seed: u64,
    /// Constructive placements to seed extra restarts with (e.g. the Baechi
    /// heuristics run on the same graph). Invalid-length seeds are ignored.
    pub initial_placements: Vec<Placement>,
    /// Evaluate candidates believing links have infinite capacity (the
    /// congestion-blind assumption of prior work). Exists for the Figure 5
    /// ablation; leave `false` for faithful optimization.
    pub infinite_links: bool,
    /// Cooperative wall-clock deadline: every restart polls it between
    /// annealing iterations and returns its incumbent when it passes. The
    /// search still produces a valid plan (the best seen so far);
    /// [`HybridOutcome::deadline_hit`] records the truncation.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation, polled between annealing iterations
    /// alongside the deadline. Unlike a deadline (which keeps the
    /// incumbent), a raised token abandons the whole solve with
    /// [`IlpError::Cancelled`]: no result, and no further snapshots are
    /// saved or published after the flag is observed.
    pub cancel: Option<CancelToken>,
    /// Snapshot cadence for crash safety: every restart saves its state
    /// (and the [`HybridConfig::checkpoint_sink`] fires) whenever its
    /// iteration counter is a positive multiple of this. `0` disables the
    /// cadence; the sink then only sees the deadline-truncation and final
    /// snapshots.
    pub checkpoint_every: usize,
    /// Where search-state snapshots go (e.g. an atomic file writer).
    /// `None` disables checkpointing entirely.
    pub checkpoint_sink: Option<CheckpointSink>,
    /// Continue a previously checkpointed search instead of starting
    /// fresh. Overrides `restarts`/`iterations`/`seed` with the state's
    /// own values so every chain resumes bit-identically.
    pub resume_from: Option<HybridSearchState>,
    /// Telemetry sink. An enabled handle receives a `hybrid.solve` span,
    /// one `hybrid.restart` span per restart, and sampled `anneal` solver
    /// events (temperature, accept rate, best cost); the default disabled
    /// handle keeps the annealing loop free of recording.
    pub obs: Obs,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            iterations: 2500,
            restarts: 2,
            seed: 0x9e37,
            initial_placements: Vec::new(),
            infinite_links: false,
            deadline: None,
            cancel: None,
            checkpoint_every: 0,
            checkpoint_sink: None,
            resume_from: None,
            obs: Obs::disabled(),
        }
    }
}

impl HybridConfig {
    /// A light configuration for quick warm starts and tests.
    pub fn quick() -> Self {
        HybridConfig {
            iterations: 400,
            restarts: 2,
            ..HybridConfig::default()
        }
    }
}

/// Result of a hybrid search: a complete plan and its simulated makespan.
#[derive(Debug, Clone)]
pub struct HybridOutcome {
    /// Best plan found (placement + ETF-derived order).
    pub plan: Plan,
    /// Simulated makespan of the plan, µs.
    pub makespan_us: f64,
    /// Whether the plan fits in device memory.
    pub memory_feasible: bool,
    /// Whether any restart was cut short by [`HybridConfig::deadline`].
    pub deadline_hit: bool,
    /// Final search state (every chain's terminal snapshot), suitable for
    /// persisting and later resuming. `None` only if a restart failed
    /// before recording its state.
    pub search_state: Option<HybridSearchState>,
}

/// Simulated-annealing placement solver. Works for any GPU count.
///
/// # Example
///
/// ```
/// use pesto_graph::{OpGraph, DeviceKind, Cluster};
/// use pesto_cost::CommModel;
/// use pesto_ilp::{HybridSolver, HybridConfig};
///
/// # fn main() -> Result<(), pesto_ilp::IlpError> {
/// let mut g = OpGraph::new("two-independent");
/// g.add_op("a", DeviceKind::Gpu, 100.0, 16);
/// g.add_op("b", DeviceKind::Gpu, 100.0, 16);
/// let g = g.freeze().unwrap();
/// let out = HybridSolver::new(HybridConfig::quick())
///     .solve(&g, &Cluster::two_gpus(), &CommModel::default_v100())?;
/// assert!((out.makespan_us - 100.0).abs() < 1e-6); // spread across GPUs
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct HybridSolver {
    config: HybridConfig,
}

impl HybridSolver {
    /// Creates a solver with the given knobs.
    pub fn new(config: HybridConfig) -> Self {
        HybridSolver { config }
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Unsupported`] for a graph without GPU ops on a
    /// cluster without GPUs (nothing to place) or a resume state that
    /// does not match the graph, and propagates simulator errors for
    /// plans that cannot be evaluated at all.
    pub fn solve(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
        comm: &CommModel,
    ) -> Result<HybridOutcome, IlpError> {
        // Fast path: a job cancelled before the search starts does no work
        // (and writes no initial snapshots).
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
        {
            return Err(IlpError::Cancelled);
        }
        // Move units: colocation groups move as a whole (paper §3.2.2:
        // colocated ops share one placement variable); ungrouped GPU ops
        // are singleton units.
        let mut groups: std::collections::HashMap<u32, Vec<OpId>> =
            std::collections::HashMap::new();
        let mut units: Vec<Vec<OpId>> = Vec::new();
        for id in graph.op_ids() {
            if graph.op(id).kind() != DeviceKind::Gpu {
                continue;
            }
            match graph.op(id).colocation_group() {
                Some(gid) => groups.entry(gid).or_default().push(id),
                None => units.push(vec![id]),
            }
        }
        let mut grouped: Vec<(u32, Vec<OpId>)> = groups.into_iter().collect();
        grouped.sort_by_key(|(gid, _)| *gid); // determinism
        units.extend(grouped.into_iter().map(|(_, ops)| ops));

        // A resume overrides the knobs that define chain trajectories.
        let mut config = self.config.clone();
        if let Some(state) = &config.resume_from {
            if state.restarts.is_empty() {
                return Err(IlpError::Unsupported("resume state has no restarts".into()));
            }
            if state.restarts.iter().any(|r| {
                r.placement.op_count() != graph.op_count()
                    || r.best_placement.op_count() != graph.op_count()
            }) {
                return Err(IlpError::Unsupported(
                    "resume state placements do not match the graph".into(),
                ));
            }
            config.seed = state.seed;
            config.iterations = state.iterations;
        }
        let config = &config;

        let seeds: Vec<&Placement> = config
            .initial_placements
            .iter()
            .filter(|p| p.op_count() == graph.op_count())
            .collect();
        let resume_states = config.resume_from.as_ref().map(|s| &s.restarts);
        let restarts = match resume_states {
            Some(states) => states.len(),
            None => config.restarts.max(1) + seeds.len(),
        };
        let steps = config.iterations.max(1);
        let mut span = config.obs.span("hybrid.solve");
        span.set_attr("units", units.len());
        span.set_attr("restarts", restarts);
        span.set_attr("iterations", config.iterations);
        span.set_attr("resumed", resume_states.is_some());

        // Shared per-restart state slots for checkpointing. A snapshot is
        // published only once every chain has recorded at least its
        // initial state, so a checkpoint always covers every restart and
        // a resumed search never silently drops a chain.
        let slots: RobustMutex<Vec<Option<RestartState>>> = RobustMutex::new(vec![None; restarts]);
        let snapshot = || -> Option<HybridSearchState> {
            let guard = slots.lock();
            if guard.iter().any(|s| s.is_none()) {
                return None;
            }
            Some(HybridSearchState {
                seed: config.seed,
                iterations: steps,
                restarts: guard.iter().flatten().cloned().collect(),
            })
        };
        let publish = || {
            if let Some(sink) = &config.checkpoint_sink {
                if let Some(state) = snapshot() {
                    (sink.0)(&state);
                }
            }
        };

        let eval = Evaluator::new(graph, cluster, *comm, config.infinite_links);

        // One scoped thread per restart chain, each annealing to its last
        // iteration.
        let results: Vec<ChainOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..restarts)
                .map(|slot_idx| {
                    let resume = resume_states.map(|states| &states[slot_idx]);
                    let seed_placement = if resume.is_some() {
                        None
                    } else {
                        seeds.get(slot_idx).copied()
                    };
                    let task = AnnealTask {
                        graph,
                        cluster,
                        eval: &eval,
                        units: &units,
                        config,
                        slot_idx,
                        resume,
                        seed_placement,
                        first_unseeded: resume.is_none() && slot_idx == seeds.len(),
                        slots: &slots,
                        publish: &publish,
                    };
                    scope.spawn(move || anneal_once(task))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("restart panicked"))
                .collect()
        });

        // Cancellation wins over any chains that happened to finish: the
        // caller abandoned the job, so no terminal snapshot is published
        // and no plan is returned.
        if results
            .iter()
            .any(|r| matches!(r, Err(IlpError::Cancelled)))
        {
            return Err(IlpError::Cancelled);
        }

        let mut best: Option<(Placement, f64)> = None;
        let mut last_err = None;
        let mut deadline_hit = false;
        for res in results {
            match res {
                Ok((placement, cost, truncated)) => {
                    deadline_hit |= truncated;
                    if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                        best = Some((placement, cost));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        let (placement, _) = best.ok_or_else(|| last_err.unwrap_or(IlpError::NoSolution))?;
        // The incumbent's plan, derived once: the evaluator is
        // deterministic, so this is the plan its cost was measured on.
        let plan = eval.schedule(placement)?.plan;

        // Terminal snapshot: every chain has written its final state.
        let search_state = snapshot();
        if let (Some(sink), Some(state)) = (&config.checkpoint_sink, &search_state) {
            (sink.0)(state);
        }

        // Final honest evaluation.
        let sim = Simulator::new(graph, cluster, *comm).with_memory_check(false);
        let report = sim.run(&plan)?;
        let memory_feasible = plan.placement.oom_devices(graph, cluster).is_empty();
        Ok(HybridOutcome {
            plan,
            makespan_us: report.makespan_us,
            memory_feasible,
            deadline_hit,
            search_state,
        })
    }
}

/// What one restart chain produces: its best placement, that placement's
/// cost, and whether a deadline truncated the chain.
type ChainOutcome = Result<(Placement, f64, bool), IlpError>;

/// Everything one restart chain needs (bundled to keep `anneal_once`'s
/// signature manageable).
struct AnnealTask<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    eval: &'a Evaluator<'a>,
    units: &'a [Vec<OpId>],
    config: &'a HybridConfig,
    slot_idx: usize,
    resume: Option<&'a RestartState>,
    seed_placement: Option<&'a Placement>,
    first_unseeded: bool,
    slots: &'a RobustMutex<Vec<Option<RestartState>>>,
    publish: &'a (dyn Fn() + Sync),
}

fn anneal_once(task: AnnealTask<'_>) -> ChainOutcome {
    let AnnealTask {
        graph,
        cluster,
        eval,
        units,
        config,
        slot_idx,
        resume,
        seed_placement,
        first_unseeded,
        slots,
        publish,
    } = task;
    let restart = resume.map_or(slot_idx as u64, |r| r.restart);
    let mut rng = match resume {
        Some(r) => SearchRng::from_state(r.rng),
        None => SearchRng::seed_from_u64(config.seed.wrapping_add(restart)),
    };
    let gpus = cluster.gpus();

    // Initial placement: a resumed chain continues from its saved state;
    // seeded restarts use the provided constructive placement; the first
    // unseeded restart splits by contiguous topological halves
    // (Expert-like); the rest start randomly balanced.
    let mut placement = Placement::affinity_default(graph, cluster);
    if let Some(r) = resume {
        placement = r.placement.clone();
    } else if let Some(seed) = seed_placement {
        placement = seed.clone();
    } else if first_unseeded && !units.is_empty() {
        let mut order: Vec<OpId> = graph
            .topo_order()
            .iter()
            .copied()
            .filter(|&id| graph.op(id).kind() == DeviceKind::Gpu)
            .collect();
        let total: f64 = order.iter().map(|&id| graph.op(id).compute_us()).sum();
        let per_gpu = total / gpus.len() as f64;
        let mut acc = 0.0;
        let mut g = 0usize;
        for id in order.drain(..) {
            placement.set_device(id, gpus[g]);
            acc += graph.op(id).compute_us();
            if acc > per_gpu * (g + 1) as f64 && g + 1 < gpus.len() {
                g += 1;
            }
        }
    } else {
        for unit in units {
            let g = gpus[rng.gen_range(0..gpus.len())];
            for &id in unit {
                placement.set_device(id, g);
            }
        }
    }
    // Normalize: every unit shares one device (the unit leader's), so
    // colocation holds regardless of how the seed placement was built.
    for unit in units {
        let lead = placement.device(unit[0]);
        for &id in &unit[1..] {
            placement.set_device(id, lead);
        }
    }

    let obs = &config.obs;
    let mut restart_span = obs.span("hybrid.restart");
    restart_span.set_attr("restart", restart);
    restart_span.set_attr("seeded", seed_placement.is_some());
    restart_span.set_attr("resumed", resume.is_some());

    // Search effort, added to the telemetry once when the chain returns.
    // `evaluations` counts every scored candidate, including the swaps
    // within one device scored without an evaluation.
    let mut evaluations = 1u64;
    let mut accepted = 0u64;
    let mut unchanged_swaps = 0u64;
    let mut etf_steps_skipped = 0u64;
    // The current placement's cost and ETF trace; a candidate resumes from
    // that trace into `cand_trace`, and the two swap when it is accepted.
    let (mut cur_cost, mut cur_trace) = eval.score(&placement)?;
    let mut cand_trace = EtfTrace::default();
    let mut best = match resume {
        // Re-score the saved incumbent (the evaluator is deterministic, so
        // this reproduces the cost the interrupted run held).
        Some(r) => {
            evaluations += 1;
            (r.best_placement.clone(), eval.cost(&r.best_placement)?)
        }
        None => (placement.clone(), cur_cost),
    };
    let mut truncated = false;

    let steps = config.iterations.max(1);
    let start_iter = resume.map_or(0, |r| r.next_iter.min(steps));
    let t0 = resume.map_or_else(|| (cur_cost * INITIAL_TEMP_FRAC).max(1e-6), |r| r.t0);
    let t_end = t0 / 1000.0;
    let cooling = (t_end / t0).powf(1.0 / steps as f64);
    let mut temp = resume.map_or(t0, |r| r.temp);

    // Saves this chain's state at an iteration boundary: `next_iter` is
    // the first iteration a resume would execute, with `rng`/`temp`/
    // placements captured at that exact boundary.
    let save = |rng: &SearchRng,
                next_iter: usize,
                temp: f64,
                placement: &Placement,
                best: &(Placement, f64),
                finished: bool,
                truncated: bool| {
        slots.lock()[slot_idx] = Some(RestartState {
            restart,
            rng: rng.state(),
            next_iter,
            temp,
            t0,
            placement: placement.clone(),
            best_placement: best.0.clone(),
            best_cost: best.1,
            finished,
            truncated,
        });
    };

    if units.is_empty() || gpus.len() < 2 {
        save(&rng, steps, temp, &placement, &best, true, false);
        obs.counter_add("hybrid.evaluations", evaluations);
        return Ok((best.0, best.1, truncated)); // nothing to search
    }
    save(
        &rng,
        start_iter,
        temp,
        &placement,
        &best,
        start_iter >= steps,
        false,
    );

    // ~64 anneal events per restart, with a windowed accept rate.
    let sample_every = (steps / 64).max(1);
    let mut window_accepts = 0usize;

    for it in start_iter..steps {
        // Checkpoint cadence on absolute iteration numbers, so a resumed
        // chain keeps the same snapshot boundaries as the original run.
        if config.checkpoint_every > 0 && it > start_iter && it % config.checkpoint_every == 0 {
            save(&rng, it, temp, &placement, &best, false, false);
            publish();
        }
        // Cooperative cancellation: abandon the chain *without* saving or
        // publishing — a cancelled job must not grow new checkpoint state.
        if config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(IlpError::Cancelled);
        }
        // Cooperative deadline: keep the incumbent, stop searching — but
        // first persist the boundary state so a resume can continue.
        if config.deadline.is_some_and(|d| Instant::now() >= d) {
            truncated = true;
            save(&rng, it, temp, &placement, &best, false, true);
            publish();
            break;
        }
        // Move: flip one GPU op to a different GPU, or (25%) swap two ops.
        // Half of the single flips target *boundary* ops (ops with at least
        // one cross-device edge), where placement changes actually move the
        // communication structure. A swap of two units on one device proposes the current placement
        // again; it is scored as `cur_cost`, which is the evaluator's cost
        // of the current placement, and goes through the same accept rule
        // and RNG draws as any candidate.
        let mut cand = placement.clone();
        let mut unchanged = false;
        let move_unit = |cand: &mut Placement, unit: &[OpId], dev| {
            for &id in unit {
                cand.set_device(id, dev);
            }
        };
        if units.len() >= 2 && rng.gen_bool(0.25) {
            let a = &units[rng.gen_range(0..units.len())];
            let b = &units[rng.gen_range(0..units.len())];
            let (da, db) = (cand.device(a[0]), cand.device(b[0]));
            unchanged = da == db;
            move_unit(&mut cand, a, db);
            move_unit(&mut cand, b, da);
        } else {
            let pick_boundary = rng.gen_bool(0.5);
            let is_boundary = |unit: &[OpId], cand: &Placement| {
                unit.iter().any(|&o| {
                    let d = cand.device(o);
                    graph.succs(o).iter().any(|&s| cand.device(s) != d)
                        || graph.preds(o).iter().any(|&p| cand.device(p) != d)
                })
            };
            let mut u = rng.gen_range(0..units.len());
            if pick_boundary {
                // Rejection-sample a boundary unit with a bounded number of
                // tries (cheap; boundary units are common after warm-up).
                for _ in 0..12 {
                    if is_boundary(&units[u], &cand) {
                        break;
                    }
                    u = rng.gen_range(0..units.len());
                }
            }
            let unit = &units[u];
            let cur_dev = cand.device(unit[0]);
            let mut next = gpus[rng.gen_range(0..gpus.len())];
            if next == cur_dev {
                next =
                    gpus[(gpus.iter().position(|&g| g == cur_dev).expect("gpu") + 1) % gpus.len()];
            }
            move_unit(&mut cand, unit, next);
        }
        let cand_cost = if unchanged {
            unchanged_swaps += 1;
            cur_cost
        } else {
            let cost = eval.rescore(&placement, &cur_trace, &cand, &mut cand_trace)?;
            etf_steps_skipped += cand_trace.skipped_steps() as u64;
            cost
        };
        evaluations += 1;
        let accept = cand_cost < cur_cost
            || rng.gen_bool(((cur_cost - cand_cost) / temp).exp().clamp(0.0, 1.0));
        if accept {
            window_accepts += 1;
            accepted += 1;
            cur_cost = cand_cost;
            if cur_cost < best.1 {
                best = (cand.clone(), cur_cost);
            }
            if !unchanged {
                std::mem::swap(&mut cur_trace, &mut cand_trace);
            }
            placement = cand;
        }
        temp *= cooling;
        if obs.is_enabled() && (it + 1) % sample_every == 0 {
            obs.solver_event(
                "hybrid",
                SolverEventKind::Anneal {
                    restart,
                    iteration: (it + 1) as u64,
                    temperature: temp,
                    accept_rate: window_accepts as f64 / sample_every as f64,
                    best_cost: best.1,
                },
            );
            window_accepts = 0;
        }
    }
    if !truncated {
        save(&rng, steps, temp, &placement, &best, true, false);
    }
    obs.counter_add("hybrid.evaluations", evaluations);
    obs.counter_add("hybrid.accepted", accepted);
    obs.counter_add("hybrid.unchanged_swaps", unchanged_swaps);
    obs.counter_add("hybrid.etf_steps_skipped", etf_steps_skipped);
    Ok((best.0, best.1, truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::OpGraph;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    #[test]
    fn pre_cancelled_solve_is_a_typed_error() {
        let mut g = OpGraph::new("pre-cancel");
        for i in 0..8 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16);
        }
        let g = g.freeze().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = HybridConfig {
            cancel: Some(token),
            ..HybridConfig::quick()
        };
        let err = HybridSolver::new(cfg)
            .solve(&g, &Cluster::two_gpus(), &comm())
            .unwrap_err();
        assert_eq!(err, IlpError::Cancelled);
    }

    #[test]
    fn cancel_mid_search_stops_within_one_cadence_and_stops_publishing() {
        let mut g = OpGraph::new("mid-cancel");
        for i in 0..16 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 50.0, 16);
        }
        let g = g.freeze().unwrap();
        // The sink raises the token on its first snapshot: a deterministic
        // mid-search cancellation. Each chain then has at most one cadence
        // window left before it observes the flag, so the publish count
        // stays far below an uninterrupted run's ~200 cadence firings.
        let fires = Arc::new(AtomicUsize::new(0));
        let token = CancelToken::new();
        let sink_fires = Arc::clone(&fires);
        let sink_token = token.clone();
        let cfg = HybridConfig {
            iterations: 5000,
            restarts: 2,
            checkpoint_every: 25,
            checkpoint_sink: Some(CheckpointSink::new(move |_| {
                sink_fires.fetch_add(1, Ordering::SeqCst);
                sink_token.cancel();
            })),
            cancel: Some(token),
            ..HybridConfig::default()
        };
        let err = HybridSolver::new(cfg)
            .solve(&g, &Cluster::two_gpus(), &comm())
            .unwrap_err();
        assert_eq!(err, IlpError::Cancelled);
        let fired = fires.load(Ordering::SeqCst);
        assert!(fired >= 1, "the sink fired at least once to cancel");
        assert!(
            fired <= 8,
            "publishing must stop once the token is observed, got {fired}"
        );
    }

    #[test]
    fn finds_parallel_split_for_independent_work() {
        // 8 independent heavy GPU ops: best makespan is half of serial.
        let mut g = OpGraph::new("indep");
        for i in 0..8 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        assert!(out.memory_feasible);
        assert!(
            out.makespan_us <= 500.0,
            "makespan {} should approach the 400 optimum",
            out.makespan_us
        );
    }

    #[test]
    fn keeps_heavy_chain_together() {
        let mut g = OpGraph::new("chain");
        let mut prev = None;
        for i in 0..6 {
            let id = g.add_op(format!("op{i}"), DeviceKind::Gpu, 10.0, 16);
            if let Some(p) = prev {
                g.add_edge(p, id, 64 << 20).unwrap(); // heavy tensors
            }
            prev = Some(id);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        // Serial on one GPU is 60; any split pays >5000 in transfers.
        assert!(
            (out.makespan_us - 60.0).abs() < 1e-6,
            "makespan {}",
            out.makespan_us
        );
        assert_eq!(out.plan.placement.cut_edges(&g), 0);
    }

    #[test]
    fn respects_memory_via_penalty() {
        // Two fat independent ops that cannot share a GPU.
        let mut g = OpGraph::new("fat");
        g.add_op("a", DeviceKind::Gpu, 10.0, 900);
        g.add_op("b", DeviceKind::Gpu, 10.0, 900);
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(2, 1000);
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        assert!(out.memory_feasible, "penalty must push ops apart");
    }

    #[test]
    fn works_with_four_gpus() {
        let mut g = OpGraph::new("wide4");
        for i in 0..8 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        assert!(
            out.makespan_us <= 300.0,
            "4 GPUs should reach ~200, got {}",
            out.makespan_us
        );
    }

    #[test]
    fn cpu_only_graph_is_fine() {
        let mut g = OpGraph::new("cpu");
        let a = g.add_op("a", DeviceKind::Cpu, 5.0, 0);
        let b = g.add_op("b", DeviceKind::Cpu, 5.0, 0);
        g.add_edge(a, b, 64).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        assert!((out.makespan_us - 10.0).abs() < 1e-9);
    }

    #[test]
    fn colocation_groups_move_as_units() {
        // Two heavy independent ops in one colocation group plus two free
        // ops: the group must end up on one GPU even though splitting it
        // would halve the makespan.
        let mut g = OpGraph::new("coloc");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        g.op_mut(a).set_colocation_group(Some(1));
        g.op_mut(b).set_colocation_group(Some(1));
        let _c = g.add_op("c", DeviceKind::Gpu, 100.0, 16);
        let _d = g.add_op("d", DeviceKind::Gpu, 100.0, 16);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        assert_eq!(
            out.plan.placement.device(a),
            out.plan.placement.device(b),
            "colocation group split"
        );
        // Optimal with the group intact: {a,b} on one GPU, {c,d} on the
        // other = 200.
        assert!(
            (out.makespan_us - 200.0).abs() < 1e-6,
            "got {}",
            out.makespan_us
        );
    }

    #[test]
    fn expired_deadline_still_returns_a_valid_plan() {
        let mut g = OpGraph::new("deadline");
        for i in 0..8 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let cfg = HybridConfig {
            iterations: 1_000_000, // would take minutes without the deadline
            restarts: 1,
            deadline: Some(Instant::now()),
            ..HybridConfig::default()
        };
        let t0 = Instant::now();
        let out = HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        assert!(out.deadline_hit, "deadline in the past must truncate");
        assert!(t0.elapsed().as_secs() < 30, "search must stop early");
        out.plan.validate(&g, &cluster).unwrap();
    }

    #[test]
    fn anneal_telemetry_samples_temperature_and_accept_rate() {
        let mut g = OpGraph::new("telemetry");
        for i in 0..8 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16);
        }
        let g = g.freeze().unwrap();
        let obs = Obs::enabled();
        let cfg = HybridConfig {
            obs: obs.clone(),
            ..HybridConfig::quick()
        };
        HybridSolver::new(cfg)
            .solve(&g, &Cluster::two_gpus(), &comm())
            .unwrap();
        let anneals: Vec<_> = obs
            .solver_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                SolverEventKind::Anneal {
                    restart,
                    temperature,
                    accept_rate,
                    best_cost,
                    ..
                } => Some((restart, temperature, accept_rate, best_cost)),
                _ => None,
            })
            .collect();
        assert!(!anneals.is_empty());
        for &(_, temperature, accept_rate, best_cost) in &anneals {
            assert!(temperature > 0.0);
            assert!((0.0..=1.0).contains(&accept_rate));
            assert!(best_cost.is_finite());
        }
        // Within one restart the temperature must cool monotonically.
        let r0: Vec<f64> = anneals
            .iter()
            .filter(|(r, ..)| *r == 0)
            .map(|&(_, t, ..)| t)
            .collect();
        assert!(r0.windows(2).all(|w| w[1] < w[0]));
        let span_names: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert!(span_names.contains(&"hybrid.solve".to_string()));
        assert!(span_names.contains(&"hybrid.restart".to_string()));
    }

    #[test]
    fn search_effort_counts_every_evaluation_only_when_enabled() {
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let obs = Obs::enabled();
        let cfg = HybridConfig {
            obs: obs.clone(),
            ..HybridConfig::quick()
        };
        let traced = HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        // Two chains of 400 iterations: each scores its start placement
        // and one candidate per iteration.
        assert_eq!(obs.counter("hybrid.evaluations"), 2 * 401);
        let accepted = obs.counter("hybrid.accepted");
        assert!(accepted > 0 && accepted <= 2 * 400, "accepted {accepted}");
        // A swap within one device re-proposes the current placement: it
        // scores `cur_cost` and the accept rule always takes it.
        let unchanged = obs.counter("hybrid.unchanged_swaps");
        assert!(
            unchanged > 0 && unchanged <= accepted,
            "unchanged {unchanged}, accepted {accepted}"
        );

        let off = Obs::disabled();
        let cfg = HybridConfig {
            obs: off.clone(),
            ..HybridConfig::quick()
        };
        let plain = HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        assert_eq!(off.counter("hybrid.evaluations"), 0);
        assert_eq!(off.counter("hybrid.accepted"), 0);
        assert_eq!(off.counter("hybrid.unchanged_swaps"), 0);
        assert_eq!(off.metrics_json(), Obs::disabled().metrics_json());
        assert_eq!(
            traced.plan, plain.plan,
            "counting must not steer the search"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g = OpGraph::new("det");
        for i in 0..6 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, (i * 10 + 5) as f64, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let solver = HybridSolver::new(HybridConfig::quick());
        let a = solver.solve(&g, &cluster, &comm()).unwrap();
        let b = solver.solve(&g, &cluster, &comm()).unwrap();
        assert_eq!(a.plan, b.plan);
        assert!((a.makespan_us - b.makespan_us).abs() < 1e-12);
    }

    fn search_graph(ops: usize) -> FrozenGraph {
        let mut g = OpGraph::new("resumable");
        let mut prev: Option<OpId> = None;
        for i in 0..ops {
            let id = g.add_op(
                format!("op{i}"),
                DeviceKind::Gpu,
                (i % 7 + 1) as f64 * 12.0,
                16,
            );
            if i % 3 == 0 {
                if let Some(p) = prev {
                    g.add_edge(p, id, 1 << 16).unwrap();
                }
            }
            prev = Some(id);
        }
        g.freeze().unwrap()
    }

    #[test]
    fn final_state_round_trips_through_serde() {
        let g = search_graph(10);
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        let state = out.search_state.expect("every chain finished");
        assert!(state.restarts.iter().all(|r| r.finished));
        let json = serde_json::to_string(&state).unwrap();
        let back: HybridSearchState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, back);
        let (inc, cost) = state.incumbent().unwrap();
        assert_eq!(inc.op_count(), g.op_count());
        assert!(cost.is_finite());
    }

    #[test]
    fn sink_receives_periodic_snapshots_covering_every_restart() {
        let g = search_graph(10);
        let cluster = Cluster::two_gpus();
        let seen: Arc<RobustMutex<Vec<HybridSearchState>>> = Arc::new(RobustMutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let cfg = HybridConfig {
            checkpoint_every: 40,
            checkpoint_sink: Some(CheckpointSink::new(move |s| {
                sink_seen.lock().push(s.clone())
            })),
            ..HybridConfig::quick()
        };
        let restarts = cfg.restarts;
        HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        let states = seen.lock();
        assert!(states.len() >= 2, "cadence plus final snapshot");
        for s in states.iter() {
            assert_eq!(s.restarts.len(), restarts);
        }
        assert!(states.last().unwrap().restarts.iter().all(|r| r.finished));
    }

    #[test]
    fn resume_from_midrun_checkpoint_matches_uninterrupted_run() {
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let seen: Arc<RobustMutex<Vec<HybridSearchState>>> = Arc::new(RobustMutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let cfg = HybridConfig {
            checkpoint_every: 50,
            checkpoint_sink: Some(CheckpointSink::new(move |s| {
                sink_seen.lock().push(s.clone())
            })),
            ..HybridConfig::quick()
        };
        let solver = HybridSolver::new(cfg);
        let full = solver.solve(&g, &cluster, &comm()).unwrap();
        // Pick a snapshot with unfinished chains (a genuine mid-run state).
        let states = seen.lock().clone();
        let mid = states
            .iter()
            .find(|s| s.restarts.iter().any(|r| !r.finished))
            .expect("cadence fired before completion")
            .clone();
        let resumed = HybridSolver::new(HybridConfig {
            resume_from: Some(mid),
            ..HybridConfig::quick()
        })
        .solve(&g, &cluster, &comm())
        .unwrap();
        assert_eq!(resumed.plan, full.plan, "resume must be bit-identical");
        assert!((resumed.makespan_us - full.makespan_us).abs() < 1e-12);
    }

    #[test]
    fn resume_never_loses_the_checkpointed_incumbent() {
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let out = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        let state = out.search_state.clone().unwrap();
        let (_, inc_cost) = state.incumbent().unwrap();
        let resumed = HybridSolver::new(HybridConfig {
            resume_from: Some(state),
            ..HybridConfig::quick()
        })
        .solve(&g, &cluster, &comm())
        .unwrap();
        let resumed_cost = resumed.search_state.unwrap().incumbent().unwrap().1;
        assert!(resumed_cost <= inc_cost + 1e-12);
    }

    #[test]
    fn mismatched_resume_state_is_a_typed_error() {
        let g_small = search_graph(4);
        let g_big = search_graph(12);
        let cluster = Cluster::two_gpus();
        let state = HybridSolver::new(HybridConfig::quick())
            .solve(&g_small, &cluster, &comm())
            .unwrap()
            .search_state
            .unwrap();
        let err = HybridSolver::new(HybridConfig {
            resume_from: Some(state),
            ..HybridConfig::quick()
        })
        .solve(&g_big, &cluster, &comm())
        .unwrap_err();
        assert!(matches!(err, IlpError::Unsupported(_)));
    }

    #[test]
    fn resume_from_every_published_snapshot_matches_uninterrupted_run() {
        // Each chain saves its own state at every cadence boundary, so a
        // published snapshot holds chains at assorted iterations; each of
        // them, through the terminal one, replays to the same final plan.
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let seen: Arc<RobustMutex<Vec<HybridSearchState>>> = Arc::new(RobustMutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let cfg = HybridConfig {
            checkpoint_every: 30,
            checkpoint_sink: Some(CheckpointSink::new(move |s| {
                sink_seen.lock().push(s.clone())
            })),
            ..HybridConfig::quick()
        };
        let full = HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        let states = seen.lock().clone();
        assert!(states.len() > 2, "cadence snapshots were published");
        for (i, mid) in states.into_iter().enumerate() {
            let resumed = HybridSolver::new(HybridConfig {
                resume_from: Some(mid),
                ..HybridConfig::quick()
            })
            .solve(&g, &cluster, &comm())
            .unwrap();
            assert_eq!(
                resumed.plan, full.plan,
                "snapshot {i} must resume bit-identically"
            );
            assert!((resumed.makespan_us - full.makespan_us).abs() < 1e-12);
        }
    }
}
