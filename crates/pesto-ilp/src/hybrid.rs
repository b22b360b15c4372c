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
//! that state back via [`HybridConfig::resume_from`] (or
//! [`HybridSolver::resume`]) continues every chain *bit-identically*: a
//! resumed search reaches the same final plan as the uninterrupted run.

use crate::error::IlpError;
use crate::listsched::Evaluator;
use crate::rng::SearchRng;
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, OpId, Placement, Plan};
use pesto_obs::{CancelToken, Obs, RobustMutex, SolverEventKind};
use pesto_sim::Simulator;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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
    /// Initial temperature as a fraction of the initial makespan.
    pub initial_temp_frac: f64,
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
    /// Per-op freeze mask for incremental re-solves: a move unit containing
    /// any pinned op is never proposed as a move, so those ops keep
    /// whatever placement they were seeded with. `None` means everything
    /// is movable.
    pub pinned: Option<Vec<bool>>,
    /// Incumbent-exchange cadence between the parallel restart chains, in
    /// iterations. `0` (the default) keeps every chain fully independent —
    /// the historical behavior, whose trajectories existing checkpoints
    /// and goldens expect. A positive value runs the chains in lockstep
    /// segments of this many iterations: at every segment boundary the
    /// globally best incumbent (ties broken toward the lower restart
    /// index) replaces the current and best placement of each lagging
    /// chain, island-migration style. Exchange points are deterministic
    /// iteration boundaries and each chain keeps its own RNG, so a given
    /// configuration stays bit-reproducible, and checkpoints taken under
    /// exchange resume bit-identically **provided the resuming config uses
    /// the same `exchange_every`** (the cadence itself is not stored in
    /// [`HybridSearchState`]).
    pub exchange_every: usize,
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
            initial_temp_frac: 0.08,
            initial_placements: Vec::new(),
            infinite_links: false,
            deadline: None,
            cancel: None,
            checkpoint_every: 0,
            checkpoint_sink: None,
            resume_from: None,
            pinned: None,
            exchange_every: 0,
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

    /// Continues a checkpointed search: equivalent to `solve` with
    /// [`HybridConfig::resume_from`] set to `state`.
    ///
    /// # Errors
    ///
    /// [`IlpError::Unsupported`] if `state` does not match the graph
    /// (wrong placement sizes, no restarts), plus everything `solve`
    /// returns.
    pub fn resume(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
        comm: &CommModel,
        state: HybridSearchState,
    ) -> Result<HybridOutcome, IlpError> {
        let mut solver = self.clone();
        solver.config.resume_from = Some(state);
        solver.solve(graph, cluster, comm)
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Unsupported`] for a graph without GPU ops on a
    /// cluster without GPUs (nothing to place) or a mismatched
    /// resume/pinned configuration, and propagates simulator errors for
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

        // Units containing a pinned op are frozen: only `movable` unit
        // indices are ever proposed as moves.
        let movable: Vec<usize> = match &self.config.pinned {
            Some(mask) => {
                if mask.len() != graph.op_count() {
                    return Err(IlpError::Unsupported(format!(
                        "pinned mask has {} entries for a {}-op graph",
                        mask.len(),
                        graph.op_count()
                    )));
                }
                units
                    .iter()
                    .enumerate()
                    .filter(|(_, unit)| unit.iter().all(|&id| !mask[id.index()]))
                    .map(|(i, _)| i)
                    .collect()
            }
            None => (0..units.len()).collect(),
        };

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
        let snapshot =
            |slots: &RobustMutex<Vec<Option<RestartState>>>| -> Option<HybridSearchState> {
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
        let publish_impl = || {
            if let Some(sink) = &config.checkpoint_sink {
                if let Some(state) = snapshot(&slots) {
                    (sink.0)(&state);
                }
            }
        };
        let publish: &(dyn Fn() + Sync) = &publish_impl;

        let eval = Evaluator::new(graph, cluster, *comm, config.infinite_links);

        // Segment length of the lockstep driver. With exchange off (or a
        // single chain) the whole search is one segment, so each chain runs
        // in a single `anneal_once` call — exactly the historical
        // trajectory.
        let seg = if config.exchange_every > 0 && restarts >= 2 {
            config.exchange_every
        } else {
            steps
        };

        // Driver: run every chain to the next segment boundary, join,
        // exchange incumbents, repeat. Chain state between rounds lives in
        // `round_states` (RestartState is the complete chain state, so a
        // round is just a resume); exchange mutates those states at
        // deterministic iteration boundaries, which keeps the search
        // bit-reproducible and checkpoint/resume-safe: injection is
        // idempotent, so resuming either the pre- or post-exchange boundary
        // snapshot replays identically.
        let mut outcomes: Vec<Option<ChainOutcome>> = (0..restarts).map(|_| None).collect();
        let mut round_states: Vec<Option<RestartState>> = match resume_states {
            Some(states) => states.iter().map(|s| Some(s.clone())).collect(),
            None => (0..restarts).map(|_| None).collect(),
        };
        loop {
            // Chains that still need to run: never invoked (even a chain
            // resumed as finished runs once, to produce its outcome plan),
            // or mid-search.
            let running: Vec<usize> = (0..restarts)
                .filter(|&i| match (&outcomes[i], &round_states[i]) {
                    (Some(Err(_)), _) => false,
                    (None, _) => true,
                    (_, Some(st)) => !st.finished && !st.truncated && st.next_iter < steps,
                    (_, None) => true,
                })
                .collect();
            if running.is_empty() {
                break;
            }

            // Incumbent exchange: fires when every running chain sits at
            // the same positive mid-search segment boundary.
            if seg < steps {
                let boundary = running
                    .iter()
                    .map(|&i| round_states[i].as_ref().map(|st| st.next_iter))
                    .reduce(|a, b| if a == b { a } else { None })
                    .flatten()
                    .filter(|&n| n > 0 && n < steps && n % seg == 0);
                if boundary.is_some() {
                    let global_best = round_states
                        .iter()
                        .flatten()
                        .min_by(|a, b| {
                            a.best_cost
                                .total_cmp(&b.best_cost)
                                .then_with(|| a.restart.cmp(&b.restart))
                        })
                        .map(|r| (r.best_placement.clone(), r.best_cost));
                    if let Some((gb_placement, gb_cost)) = global_best {
                        let mut migrated = 0u64;
                        for &i in &running {
                            let st = round_states[i].as_mut().expect("boundary state");
                            if st.best_cost > gb_cost {
                                st.placement = gb_placement.clone();
                                st.best_placement = gb_placement.clone();
                                st.best_cost = gb_cost;
                                migrated += 1;
                            }
                        }
                        config.obs.counter_add("hybrid.exchanges", 1);
                        config
                            .obs
                            .counter_add("hybrid.exchange.migrations", migrated);
                        config.obs.solver_event(
                            "hybrid",
                            SolverEventKind::Incumbent { objective: gb_cost },
                        );
                        // Mirror the post-exchange states into the snapshot
                        // slots so a crash here resumes past the exchange.
                        {
                            let mut guard = slots.lock();
                            for &i in &running {
                                guard[i] = round_states[i].clone();
                            }
                        }
                        publish_impl();
                    }
                }
            }

            // Next lockstep boundary past the least-advanced running chain.
            // Chains already at it run zero iterations (state untouched).
            let target = {
                let m = running
                    .iter()
                    .map(|&i| round_states[i].as_ref().map_or(0, |st| st.next_iter))
                    .min()
                    .expect("running is non-empty");
                ((m / seg) + 1).saturating_mul(seg).min(steps)
            };

            let round: Vec<ChainOutcome> = std::thread::scope(|scope| {
                let round_states = &round_states;
                let mut handles = Vec::new();
                for &slot_idx in &running {
                    let eval = &eval;
                    let units = &units;
                    let movable = &movable;
                    let slots = &slots;
                    let resume = round_states[slot_idx].as_ref();
                    let seed_placement = if resume.is_some() {
                        None
                    } else {
                        seeds.get(slot_idx).copied()
                    };
                    let first_unseeded = resume.is_none() && slot_idx == seeds.len();
                    handles.push(scope.spawn(move || {
                        anneal_once(AnnealTask {
                            graph,
                            cluster,
                            eval,
                            units,
                            movable,
                            config,
                            slot_idx,
                            resume,
                            seed_placement,
                            first_unseeded,
                            end: target,
                            slots,
                            publish,
                        })
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("restart panicked"))
                    .collect()
            });

            // Cancellation wins over any chains that happened to finish:
            // the caller abandoned the job, so no terminal snapshot is
            // published, no plan is returned, and no further segments run.
            if round.iter().any(|r| matches!(r, Err(IlpError::Cancelled))) {
                return Err(IlpError::Cancelled);
            }
            for (res, &slot_idx) in round.into_iter().zip(&running) {
                outcomes[slot_idx] = Some(res);
                round_states[slot_idx] = slots.lock()[slot_idx].clone();
            }
        }
        let results: Vec<ChainOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every chain ran at least once"))
            .collect();

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
        let search_state = snapshot(&slots);
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
    movable: &'a [usize],
    config: &'a HybridConfig,
    slot_idx: usize,
    resume: Option<&'a RestartState>,
    seed_placement: Option<&'a Placement>,
    first_unseeded: bool,
    /// Absolute iteration this invocation runs to (exclusive); the
    /// lockstep-exchange driver passes segment boundaries, and a plain
    /// search passes `iterations` so the whole chain runs in one call.
    end: usize,
    slots: &'a RobustMutex<Vec<Option<RestartState>>>,
    publish: &'a (dyn Fn() + Sync),
}

fn anneal_once(task: AnnealTask<'_>) -> ChainOutcome {
    let AnnealTask {
        graph,
        cluster,
        eval,
        units,
        movable,
        config,
        slot_idx,
        resume,
        seed_placement,
        first_unseeded,
        end,
        slots,
        publish,
    } = task;
    let restart = resume.map_or(slot_idx as u64, |r| r.restart);
    let gpu_ops: Vec<OpId> = units.iter().flatten().copied().collect();
    let gpu_ops = &gpu_ops[..];
    let mut rng = match resume {
        Some(r) => SearchRng::from_state(r.rng),
        None => SearchRng::seed_from_u64(config.seed.wrapping_add(restart)),
    };
    let gpus = cluster.gpus();

    // Initial placement: a resumed chain continues from its saved state;
    // seeded restarts use the provided constructive placement; the first
    // unseeded restart splits by contiguous topological halves
    // (Expert-like); the rest start randomly balanced. Under a pinned
    // mask, unseeded restarts keep frozen units at the first seed's
    // placement and randomize only the movable units.
    let mut placement = Placement::affinity_default(graph, cluster);
    if let Some(r) = resume {
        placement = r.placement.clone();
    } else if let Some(seed) = seed_placement {
        placement = seed.clone();
    } else if first_unseeded && !gpu_ops.is_empty() && config.pinned.is_none() {
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
        if config.pinned.is_some() {
            if let Some(base) = config
                .initial_placements
                .iter()
                .find(|p| p.op_count() == graph.op_count())
            {
                placement = base.clone();
            }
        }
        for &ui in movable {
            let g = gpus[rng.gen_range(0..gpus.len())];
            for &id in &units[ui] {
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
    let mut cur_cost = eval.cost(&placement)?;
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
    let end = end.min(steps);
    let start_iter = resume.map_or(0, |r| r.next_iter.min(end));
    let t0 = resume.map_or_else(|| (cur_cost * config.initial_temp_frac).max(1e-6), |r| r.t0);
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

    if gpu_ops.is_empty() || gpus.len() < 2 || movable.is_empty() {
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

    for it in start_iter..end {
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
        // communication structure. Only movable units are ever proposed.
        // A swap of two units on one device proposes the current placement
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
        if movable.len() >= 2 && rng.gen_bool(0.25) {
            let a = &units[movable[rng.gen_range(0..movable.len())]];
            let b = &units[movable[rng.gen_range(0..movable.len())]];
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
            let mut u = movable[rng.gen_range(0..movable.len())];
            if pick_boundary {
                // Rejection-sample a boundary unit with a bounded number of
                // tries (cheap; boundary units are common after warm-up).
                for _ in 0..12 {
                    if is_boundary(&units[u], &cand) {
                        break;
                    }
                    u = movable[rng.gen_range(0..movable.len())];
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
            eval.cost(&cand)?
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
        save(&rng, end, temp, &placement, &best, end >= steps, false);
    }
    obs.counter_add("hybrid.evaluations", evaluations);
    obs.counter_add("hybrid.accepted", accepted);
    obs.counter_add("hybrid.unchanged_swaps", unchanged_swaps);
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
        let resumed = HybridSolver::new(HybridConfig::quick())
            .resume(&g, &cluster, &comm(), mid)
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
        let resumed = HybridSolver::new(HybridConfig::quick())
            .resume(&g, &cluster, &comm(), state)
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
        let err = HybridSolver::new(HybridConfig::quick())
            .resume(&g_big, &cluster, &comm(), state)
            .unwrap_err();
        assert!(matches!(err, IlpError::Unsupported(_)));
    }

    #[test]
    fn pinned_units_keep_their_seeded_placement() {
        // 8 independent heavy ops all seeded onto GPU 0, the first 4
        // pinned there: the search may only spread the unpinned half.
        let mut g = OpGraph::new("pinned");
        let ids: Vec<OpId> = (0..8)
            .map(|i| g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16))
            .collect();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let gpu0 = cluster.gpus()[0];
        let mut seed = Placement::affinity_default(&g, &cluster);
        for &id in &ids {
            seed.set_device(id, gpu0);
        }
        let mut pinned = vec![false; g.op_count()];
        for &id in &ids[..4] {
            pinned[id.index()] = true;
        }
        let cfg = HybridConfig {
            initial_placements: vec![seed],
            pinned: Some(pinned),
            restarts: 2,
            ..HybridConfig::quick()
        };
        let out = HybridSolver::new(cfg).solve(&g, &cluster, &comm()).unwrap();
        for &id in &ids[..4] {
            assert_eq!(out.plan.placement.device(id), gpu0, "pinned op moved");
        }
        // The movable half migrates off the pinned GPU: 4 ops stay (400)
        // and 4 move (400) — optimal under the pin is 400.
        assert!(
            (out.makespan_us - 400.0).abs() < 1e-6,
            "got {}",
            out.makespan_us
        );
    }

    #[test]
    fn exchange_off_matches_legacy_trajectory() {
        // `exchange_every: 0` must be byte-for-byte the historical search,
        // and a cadence longer than the whole search never fires an
        // exchange, so it must match too.
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let legacy = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        let long_cadence = HybridSolver::new(HybridConfig {
            exchange_every: 10_000,
            ..HybridConfig::quick()
        })
        .solve(&g, &cluster, &comm())
        .unwrap();
        assert_eq!(legacy.plan, long_cadence.plan);
        assert_eq!(
            legacy.search_state.unwrap(),
            long_cadence.search_state.unwrap()
        );
    }

    #[test]
    fn exchange_is_deterministic_and_shares_the_incumbent() {
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let obs = Obs::enabled();
        let cfg = HybridConfig {
            exchange_every: 100,
            obs: obs.clone(),
            ..HybridConfig::quick() // 400 iterations, 2 restarts
        };
        let a = HybridSolver::new(cfg.clone())
            .solve(&g, &cluster, &comm())
            .unwrap();
        // 400 iterations / cadence 100 ⇒ boundaries at 100, 200, 300.
        assert_eq!(obs.counter("hybrid.exchanges"), 3);
        let b = HybridSolver::new(HybridConfig {
            obs: Obs::disabled(),
            ..cfg
        })
        .solve(&g, &cluster, &comm())
        .unwrap();
        assert_eq!(a.plan, b.plan, "exchange must stay deterministic");
        assert_eq!(a.search_state, b.search_state);
        // After the final exchange every chain's incumbent cost is within
        // one segment of the global best: chains that lagged at the last
        // boundary were injected with it and can only have improved since.
        let state = a.search_state.unwrap();
        let best = state.incumbent().unwrap().1;
        let worst = state
            .restarts
            .iter()
            .map(|r| r.best_cost)
            .fold(f64::NEG_INFINITY, f64::max);
        let unshared = HybridSolver::new(HybridConfig::quick())
            .solve(&g, &cluster, &comm())
            .unwrap();
        let unshared_best = unshared.search_state.unwrap().incumbent().unwrap().1;
        assert!(
            best <= unshared_best + 1e-9,
            "sharing incumbents must not lose quality: {best} vs {unshared_best}"
        );
        assert!(worst.is_finite());
    }

    #[test]
    fn resume_with_exchange_on_matches_uninterrupted_run() {
        // The checkpoint/resume contract must survive incumbent exchange:
        // a mid-run snapshot (whose chains sit at assorted iterations
        // inside a segment) replays to the same final state, because
        // exchange points are absolute iteration boundaries and injection
        // is idempotent.
        let g = search_graph(12);
        let cluster = Cluster::two_gpus();
        let seen: Arc<RobustMutex<Vec<HybridSearchState>>> = Arc::new(RobustMutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let cfg = HybridConfig {
            exchange_every: 100,
            checkpoint_every: 30, // deliberately not aligned with exchanges
            checkpoint_sink: Some(CheckpointSink::new(move |s| {
                sink_seen.lock().push(s.clone())
            })),
            ..HybridConfig::quick()
        };
        let full = HybridSolver::new(cfg.clone())
            .solve(&g, &cluster, &comm())
            .unwrap();
        let states = seen.lock().clone();
        assert!(states.len() > 2, "cadence snapshots were published");
        // Replay every published snapshot — mid-segment, at boundaries
        // (pre- and post-exchange), and terminal — through a resuming
        // config with the same cadence.
        for (i, mid) in states.iter().enumerate() {
            let resumed = HybridSolver::new(HybridConfig {
                exchange_every: 100,
                ..HybridConfig::quick()
            })
            .resume(&g, &cluster, &comm(), mid.clone())
            .unwrap();
            assert_eq!(
                resumed.plan, full.plan,
                "snapshot {i} must resume bit-identically"
            );
            assert!((resumed.makespan_us - full.makespan_us).abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_sized_pinned_mask_is_a_typed_error() {
        let g = search_graph(6);
        let cluster = Cluster::two_gpus();
        let cfg = HybridConfig {
            pinned: Some(vec![false; 3]),
            ..HybridConfig::quick()
        };
        let err = HybridSolver::new(cfg)
            .solve(&g, &cluster, &comm())
            .unwrap_err();
        assert!(matches!(err, IlpError::Unsupported(_)));
    }
}
