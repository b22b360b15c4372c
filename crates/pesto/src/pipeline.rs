//! The end-to-end Pesto pipeline: profile → coarsen → solve → expand.

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, CheckpointIncumbent, SearchCheckpoint,
};
use crate::storage::FsStorage;
use pesto_coarsen::{coarsen_with_stats, CoarsenConfig, Coarsening};
use pesto_cost::{CommModel, Profiler};
use pesto_graph::{Cluster, FrozenGraph, GraphError, Placement, Plan};
use pesto_ilp::{
    CheckpointSink, EtfTrace, Evaluator, IlpError, PestoPlacer, PlacerConfig, SolvePath,
};
use pesto_obs::{CancelToken, Obs, RobustMutex, SolverEventKind};
use pesto_sim::{SimError, Simulator};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// When a coarse vertex contains more than this many original ops, Pesto
/// keeps the placement but falls back to framework-default scheduling
/// (paper §3.3: "we lose out on scheduling opportunities due to
/// coarsening, and thus instead employ the default TensorFlow
/// scheduling").
const MAX_MEMBERS_FOR_SCHEDULING: usize = 200;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PestoConfig {
    /// Coarsening target (the paper uses ~200 vertices, §3.3).
    pub coarsen_target: usize,
    /// Profiling iterations used to estimate op times (paper: 100). `None`
    /// trusts the graph's compute times as-is.
    pub profiler_iterations: Option<usize>,
    /// Placement solver configuration.
    pub placer: PlacerConfig,
    /// Worker threads for the placement solvers. `1` (the default) keeps
    /// every solver on its deterministic serial path. Values `> 1` set the
    /// MILP branch-and-bound workers
    /// ([`pesto_milp::MilpConfig::threads`]; still optimal, but node
    /// counts may vary run to run) and, on the sharded path, the region
    /// workers. An explicit `placer.ilp.milp.threads` larger than this
    /// value wins. The simplex under every node is serial at any value.
    pub solver_threads: usize,
    /// Deterministic seed (profiling noise + final evaluation tie-breaks).
    pub seed: u64,
    /// Hill-climbing passes of the fine-grained group-flip refinement that
    /// follows coarse solving. `0` disables refinement.
    pub refinement_passes: usize,
    /// Model link congestion during optimization (the paper's constraint
    /// set (7)). Setting `false` reproduces the Figure 5 ablation: the
    /// optimizer believes transfers never queue.
    pub congestion_aware: bool,
    /// Wall-clock budget for the whole pipeline. When set, placement
    /// becomes a deadline-aware fallback chain — exact ILP → hybrid
    /// annealing (cooperative deadline between iterations) → constructive
    /// mSCT → single-device — and the chosen rung is recorded in
    /// [`PestoOutcome::degradation`] instead of erroring out. `None` (the
    /// default) means run to completion.
    pub time_budget: Option<Duration>,
    /// Hierarchical sharded placement for paper-scale graphs. When set,
    /// graphs larger than [`pesto_shard::ShardConfig::region_cap`] are
    /// partitioned into regions, each region is solved independently
    /// (fanned out over [`PestoConfig::solver_threads`] workers, seeded
    /// with `seed + region_index`), and the results are stitched with a
    /// memory rebalance plus a bounded boundary-refinement pass — see the
    /// `pesto-shard` crate. Graphs at or under the cap fall through to
    /// the monolithic path unchanged. Sharded runs keep the `time_budget`
    /// contract (regions get budget shares proportional to their
    /// critical-path weight) but ignore [`PestoConfig::checkpoint`]:
    /// per-region solves are short enough that re-running is the recovery
    /// story. Defaults to `None` (monolithic placement).
    pub shard: Option<pesto_shard::ShardConfig>,
    /// Crash safety: when set, the search state is checkpointed to
    /// [`CheckpointConfig::path`] on the configured cadence (atomic
    /// temp-file + rename writes) and, with [`CheckpointConfig::resume`],
    /// a previous checkpoint warm-starts the hybrid search and the MILP.
    /// A resumed run never finishes worse than the checkpointed incumbent
    /// (the pipeline falls back to it if the continued search somehow
    /// regresses). Defaults to `None` (no checkpointing).
    pub checkpoint: Option<CheckpointConfig>,
    /// Cooperative cancellation: the pipeline polls the token between
    /// stages and the solvers poll it between annealing iterations /
    /// branch-and-bound nodes (alongside their deadlines). A raised token
    /// makes [`Pesto::place`] return [`PestoError::Cancelled`] — it never
    /// degrades into a fallback plan, and no checkpoint is written after
    /// the flag is observed. Defaults to `None` (not cancellable).
    pub cancel: Option<CancelToken>,
    /// Telemetry sink. With [`Obs::enabled`] the pipeline records a span
    /// per stage (`pipeline.profile`, `pipeline.coarsen`, `pipeline.solve`,
    /// `pipeline.refine`, `pipeline.schedule`, `pipeline.simulate`),
    /// profiling/coarsening metrics, and the solver-progress event stream;
    /// the handle is propagated to the placer, the MILP/hybrid solvers and
    /// the final simulation. The default [`Obs::disabled`] sink makes every
    /// instrumentation site a no-op.
    pub obs: Obs,
}

impl Default for PestoConfig {
    fn default() -> Self {
        PestoConfig {
            coarsen_target: 800,
            profiler_iterations: Some(100),
            placer: PlacerConfig::default(),
            solver_threads: 1,
            seed: 0xbe57,
            refinement_passes: 2,
            congestion_aware: true,
            time_budget: None,
            shard: None,
            checkpoint: None,
            cancel: None,
            obs: Obs::disabled(),
        }
    }
}

impl PestoConfig {
    /// A faster configuration for tests and examples: coarser graphs and a
    /// lighter search.
    pub fn fast() -> Self {
        PestoConfig {
            coarsen_target: 64,
            placer: PlacerConfig {
                hybrid: pesto_ilp::HybridConfig::quick(),
                ..PlacerConfig::default()
            },
            refinement_passes: 1,
            ..PestoConfig::default()
        }
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PestoError {
    /// Graph-level failure.
    Graph(GraphError),
    /// Solver failure (including out-of-memory verdicts).
    Solve(IlpError),
    /// Final simulation failure.
    Sim(SimError),
    /// The cluster has no GPU devices; Pesto places GPU operations.
    NoGpus,
    /// Post-outage plan repair failed (e.g. the failed device was not a
    /// GPU of the cluster).
    Repair(String),
    /// Checkpoint I/O, parsing, versioning, or job-identity failure.
    Checkpoint(CheckpointError),
    /// A configuration value makes the requested computation meaningless
    /// (e.g. a robustness sweep over zero draws).
    InvalidConfig(String),
    /// The job's [`PestoConfig::cancel`] token was raised; the pipeline
    /// stopped cooperatively without producing a plan, and wrote no
    /// checkpoint after the flag was observed.
    Cancelled,
}

impl fmt::Display for PestoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PestoError::Graph(e) => write!(f, "graph error: {e}"),
            PestoError::Solve(e) => write!(f, "solver error: {e}"),
            PestoError::Sim(e) => write!(f, "simulation error: {e}"),
            PestoError::NoGpus => {
                write!(
                    f,
                    "cluster has no GPUs; Pesto needs at least one GPU device"
                )
            }
            PestoError::Repair(msg) => write!(f, "plan repair failed: {msg}"),
            PestoError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            PestoError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PestoError::Cancelled => write!(f, "placement job cancelled"),
        }
    }
}

impl PestoError {
    /// Whether retrying the same job can plausibly succeed.
    ///
    /// This single classification drives both the `pesto-serve` retry
    /// policy (retryable failures get exponential backoff; permanent ones
    /// fail the job immediately) and the CLI's exit code (`75`,
    /// `EX_TEMPFAIL`, for retryable vs `1` for permanent), so operators
    /// and scripts see the same verdict the server acts on.
    ///
    /// Retryable:
    ///
    /// * transient checkpoint I/O failures ([`CheckpointError::Io`]) — the
    ///   filesystem may recover;
    /// * [`IlpError::NoSolution`] — the stochastic search ran out of
    ///   limits before finding a feasible plan; a retry (typically with a
    ///   fresh seed or a larger budget) can find one.
    ///
    /// Everything else is permanent: malformed inputs, proven
    /// infeasibility (including out-of-memory verdicts — retrying cannot
    /// shrink the model), checkpoint/job mismatches, and explicit
    /// cancellation.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PestoError::Checkpoint(CheckpointError::Io(_))
                | PestoError::Solve(IlpError::NoSolution)
        )
    }
}

impl Error for PestoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PestoError::Graph(e) => Some(e),
            PestoError::Solve(e) => Some(e),
            PestoError::Sim(e) => Some(e),
            PestoError::Checkpoint(e) => Some(e),
            PestoError::NoGpus
            | PestoError::Repair(_)
            | PestoError::InvalidConfig(_)
            | PestoError::Cancelled => None,
        }
    }
}

impl From<CheckpointError> for PestoError {
    fn from(e: CheckpointError) -> Self {
        PestoError::Checkpoint(e)
    }
}

impl From<GraphError> for PestoError {
    fn from(e: GraphError) -> Self {
        PestoError::Graph(e)
    }
}
impl From<IlpError> for PestoError {
    fn from(e: IlpError) -> Self {
        match e {
            IlpError::Cancelled => PestoError::Cancelled,
            other => PestoError::Solve(other),
        }
    }
}
impl From<SimError> for PestoError {
    fn from(e: SimError) -> Self {
        PestoError::Sim(e)
    }
}
impl From<pesto_shard::ShardError> for PestoError {
    fn from(e: pesto_shard::ShardError) -> Self {
        match e {
            pesto_shard::ShardError::Graph(g) => PestoError::Graph(g),
            pesto_shard::ShardError::Solve(s) => PestoError::Solve(s),
            // The stitch rebalance proved the model cannot fit: the same
            // permanent verdict as the monolithic path's OOM error.
            pesto_shard::ShardError::Infeasible(msg) => PestoError::Repair(msg),
            pesto_shard::ShardError::Cancelled => PestoError::Cancelled,
            // `ShardError` is non_exhaustive; treat unknown variants as
            // solver failures with their message.
            other => PestoError::Repair(other.to_string()),
        }
    }
}

/// Why the pipeline degraded from its preferred solve path. Recorded in
/// [`PestoOutcome::degradation`] instead of surfacing as an error: under a
/// [`PestoConfig::time_budget`] a worse-but-valid plan beats no plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DegradationReason {
    /// The deadline fired mid-search: the hybrid annealer returned its
    /// incumbent early, the exact ILP was skipped or cut short, or the
    /// group-flip refinement was abandoned partway.
    DeadlineDuringSearch,
    /// Too little budget remained after profiling and coarsening to start
    /// the search at all; a constructive mSCT placement was used.
    BudgetTooSmallForSearch,
    /// The budget was already spent before placement began; every op was
    /// kept on a single device.
    BudgetExhausted,
    /// The solver failed outright (carries its error message); a
    /// constructive mSCT placement was used instead. Out-of-memory
    /// verdicts are *not* masked this way — they still surface as errors,
    /// because no placement rung can fix an infeasible memory footprint.
    SolverFailed(String),
}

impl DegradationReason {
    /// Stable machine-readable tag for this variant, used as the `reason`
    /// field of the telemetry `Degradation` event (the human-readable
    /// `Display` form may change; this tag will not).
    pub fn tag(&self) -> &'static str {
        match self {
            DegradationReason::DeadlineDuringSearch => "deadline_during_search",
            DegradationReason::BudgetTooSmallForSearch => "budget_too_small_for_search",
            DegradationReason::BudgetExhausted => "budget_exhausted",
            DegradationReason::SolverFailed(_) => "solver_failed",
        }
    }
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::DeadlineDuringSearch => {
                write!(f, "deadline fired during search; kept the incumbent")
            }
            DegradationReason::BudgetTooSmallForSearch => {
                write!(f, "budget too small for search; used constructive mSCT")
            }
            DegradationReason::BudgetExhausted => {
                write!(f, "budget exhausted before placement; used a single device")
            }
            DegradationReason::SolverFailed(msg) => {
                write!(f, "solver failed ({msg}); used constructive mSCT")
            }
        }
    }
}

/// Wall-clock time of one pipeline stage. Always populated in
/// [`PestoOutcome::stage_timings`], even with observability disabled: per
/// stage it costs two clock reads and one `Vec` push.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name: one of `profile`, `coarsen`, `solve`, `refine`,
    /// `schedule`, `simulate` (degraded runs skip the middle stages;
    /// sharded runs record `profile`, `partition`, `solve`, `stitch`,
    /// `refine`, `schedule`, `simulate`, with `refine` only when
    /// [`PestoConfig::refinement_passes`] is positive).
    pub stage: &'static str,
    /// Wall-clock duration of the stage, µs.
    pub wall_us: f64,
}

/// Runs one pipeline stage under a `pipeline.<stage>` span and appends its
/// wall time to `timings` (timing happens even with observability off).
fn timed_stage<T>(
    obs: &Obs,
    timings: &mut Vec<StageTiming>,
    stage: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let span = obs.span(format!("pipeline.{stage}"));
    let out = f();
    drop(span);
    timings.push(StageTiming {
        stage,
        wall_us: t0.elapsed().as_secs_f64() * 1e6,
    });
    out
}

/// Result of the full pipeline.
#[derive(Debug, Clone)]
pub struct PestoOutcome {
    /// The final fine-grained plan.
    pub plan: Plan,
    /// Simulated per-step training time of the plan on the *true* op times
    /// (placement was computed from profiled estimates), µs.
    pub makespan_us: f64,
    /// Wall-clock time spent finding the placement (the paper's "placement
    /// time", Table 2).
    pub placement_time: Duration,
    /// Vertices after coarsening.
    pub coarse_op_count: usize,
    /// Largest merged-vertex size.
    pub max_member_count: usize,
    /// Which solver path produced the coarse plan.
    pub path: SolvePath,
    /// Why (if at all) the pipeline fell back from its preferred path.
    /// `None` means the full search ran to completion.
    pub degradation: Option<DegradationReason>,
    /// Whether this run warm-started from a [`PestoConfig::checkpoint`]
    /// file (as opposed to searching from scratch).
    pub resumed: bool,
    /// Per-stage wall time of this run, in execution order. Populated on
    /// every run — including degraded ones, which skip the search stages —
    /// regardless of whether [`PestoConfig::obs`] is enabled.
    pub stage_timings: Vec<StageTiming>,
    /// Shard report (partition shape, per-region solve provenance, stitch
    /// repairs) when the run took the [`SolvePath::Sharded`] path; `None`
    /// for monolithic runs.
    pub shard: Option<pesto_shard::ShardReport>,
}

/// Hill climbing on the fine graph at merged-group granularity: for each
/// coarse vertex, try moving all its members to each other GPU and keep
/// the first improvement of the fine placement's [`Evaluator::cost`].
/// Each candidate is scored with [`Evaluator::rescore`] from the
/// incumbent's ETF trace, adopting the candidate's trace when it improves.
/// A climb that starts adds its `refine.evaluations`,
/// `refine.improvements` and `refine.etf_steps_skipped` to `obs` once,
/// when it ends.
///
/// Returns the refined placement and whether `deadline` cut the climb
/// short (the incumbent placement is still valid in that case).
fn refine_by_group_flips(
    eval: &Evaluator<'_>,
    cluster: &Cluster,
    coarsening: &Coarsening,
    mut placement: Placement,
    passes: usize,
    deadline: Option<Instant>,
    obs: &Obs,
) -> Result<(Placement, bool), PestoError> {
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    if passes == 0 || cluster.gpu_count() < 2 {
        return Ok((placement, false));
    }
    if expired() {
        return Ok((placement, true));
    }
    let mut evaluations = 1u64;
    let mut improvements = 0u64;
    let mut etf_steps_skipped = 0u64;
    let (mut best_cost, mut best_trace) = eval.score(&placement).map_err(IlpError::from)?;
    let mut cand_trace = EtfTrace::default();
    let coarse = coarsening.coarse();
    // Visit heavy groups first: they move the makespan the most.
    let mut groups: Vec<pesto_graph::OpId> = coarse
        .op_ids()
        .filter(|&cv| coarse.op(cv).kind() == pesto_graph::DeviceKind::Gpu)
        .collect();
    groups.sort_by(|&a, &b| {
        coarse
            .op(b)
            .compute_us()
            .total_cmp(&coarse.op(a).compute_us())
    });
    let mut truncated = false;
    'passes: for _ in 0..passes {
        let mut improved = false;
        for &cv in &groups {
            if expired() {
                truncated = true;
                break 'passes;
            }
            let members = coarsening.members(cv);
            let current = placement.device(members[0]);
            for gpu in cluster.gpus() {
                if gpu == current {
                    continue;
                }
                let mut cand = placement.clone();
                for &f in members {
                    cand.set_device(f, gpu);
                }
                evaluations += 1;
                let cost = eval
                    .rescore(&placement, &best_trace, &cand, &mut cand_trace)
                    .map_err(IlpError::from)?;
                etf_steps_skipped += cand_trace.skipped_steps() as u64;
                if cost < best_cost - 1e-9 {
                    improvements += 1;
                    best_cost = cost;
                    std::mem::swap(&mut best_trace, &mut cand_trace);
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
    obs.counter_add("refine.evaluations", evaluations);
    obs.counter_add("refine.improvements", improvements);
    obs.counter_add("refine.etf_steps_skipped", etf_steps_skipped);
    Ok((placement, truncated))
}

/// The Pesto pipeline.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Pesto {
    comm: CommModel,
    config: PestoConfig,
}

impl Pesto {
    /// Creates a pipeline with the default V100/NVlink communication model.
    pub fn new(config: PestoConfig) -> Self {
        Pesto {
            comm: CommModel::default_v100(),
            config,
        }
    }

    /// Creates a pipeline with an explicit communication model (e.g. a
    /// calibrated or hardware-scaled one).
    pub fn with_comm(comm: CommModel, config: PestoConfig) -> Self {
        Pesto { comm, config }
    }

    /// Emits the telemetry `Degradation` event for `reason`, tagged with
    /// how much of the [`PestoConfig::time_budget`] deadline remained at
    /// the moment the pipeline gave up (negative-or-zero budgets and
    /// already-expired deadlines report `0`; no budget reports infinity,
    /// which exports as JSON `null`).
    fn emit_degradation(&self, start: Instant, reason: &DegradationReason) {
        let obs = &self.config.obs;
        if !obs.is_enabled() {
            return;
        }
        let remaining_deadline_us = self.config.time_budget.map_or(f64::INFINITY, |b| {
            (start + b)
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO)
                .as_secs_f64()
                * 1e6
        });
        obs.solver_event(
            "pipeline",
            SolverEventKind::Degradation {
                reason: reason.tag().to_string(),
                remaining_deadline_us,
            },
        );
    }

    /// Typed early-out for [`PestoConfig::cancel`], polled between
    /// pipeline stages (the solvers poll the same token at finer grain).
    fn check_cancel(&self) -> Result<(), PestoError> {
        if self
            .config
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
        {
            return Err(PestoError::Cancelled);
        }
        Ok(())
    }

    /// The search tail shared by the monolithic and sharded paths:
    /// group-flip refinement of the fine `placement` over the merged
    /// groups of `coarsening` (no refine stage when `None`), the
    /// degradation event, and the fine op-level schedule (the control
    /// dependencies Pesto injects into TensorFlow, §4) — one ETF pass when
    /// `explicit_schedule`, framework-default scheduling otherwise (the
    /// §3.3 fallback for very coarse merges). Both stages score against
    /// the estimated op times.
    #[allow(clippy::too_many_arguments)]
    fn search_tail(
        &self,
        estimated: &FrozenGraph,
        cluster: &Cluster,
        start: Instant,
        mut placement: Placement,
        coarsening: Option<&Coarsening>,
        explicit_schedule: bool,
        degradation: &mut Option<DegradationReason>,
        stage_timings: &mut Vec<StageTiming>,
    ) -> Result<Plan, PestoError> {
        self.check_cancel()?;
        let obs = &self.config.obs;
        let eval = Evaluator::new(estimated, cluster, self.comm, !self.config.congestion_aware);
        if let Some(coarsening) = coarsening {
            let deadline = self.config.time_budget.map(|b| start + b);
            let (refined, truncated) = timed_stage(obs, stage_timings, "refine", || {
                refine_by_group_flips(
                    &eval,
                    cluster,
                    coarsening,
                    placement,
                    self.config.refinement_passes,
                    deadline,
                    obs,
                )
            })?;
            placement = refined;
            if truncated && degradation.is_none() {
                *degradation = Some(DegradationReason::DeadlineDuringSearch);
            }
        }
        if let Some(reason) = degradation {
            self.emit_degradation(start, reason);
        }
        timed_stage(obs, stage_timings, "schedule", || {
            if explicit_schedule {
                Ok(eval.schedule(placement).map_err(IlpError::from)?.plan)
            } else {
                Ok(Plan::placement_only(placement))
            }
        })
    }

    /// The honest tail every exit shares: simulates `outcome.plan` on the
    /// true op times of `graph` and adopts any of `candidates` that
    /// simulates strictly faster (a candidate that fails to simulate —
    /// invalid for this graph, or out of memory — is skipped). Fills
    /// `makespan_us`.
    fn honest_tail(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
        mut outcome: PestoOutcome,
        candidates: impl IntoIterator<Item = Plan>,
    ) -> Result<PestoOutcome, PestoError> {
        self.check_cancel()?;
        let obs = &self.config.obs;
        let sim = Simulator::new(graph, cluster, self.comm).with_seed(self.config.seed);
        let report = timed_stage(obs, &mut outcome.stage_timings, "simulate", || {
            sim.clone().with_obs(obs.clone()).run(&outcome.plan)
        })?;
        outcome.makespan_us = report.makespan_us;
        for candidate in candidates {
            if let Ok(report) = sim.run(&candidate) {
                if report.makespan_us < outcome.makespan_us {
                    outcome.plan = candidate;
                    outcome.makespan_us = report.makespan_us;
                }
            }
        }
        Ok(outcome)
    }

    /// Builds a degraded-but-valid outcome for the lower rungs of the
    /// fallback ladder: a constructive mSCT plan, or (last resort) every
    /// op on a single device. Honestly simulated on the true op times.
    #[allow(clippy::too_many_arguments)]
    fn degraded_outcome(
        &self,
        graph: &FrozenGraph,
        estimated: &FrozenGraph,
        cluster: &Cluster,
        start: Instant,
        path: SolvePath,
        reason: DegradationReason,
        stage_timings: Vec<StageTiming>,
    ) -> Result<PestoOutcome, PestoError> {
        // A cancelled job never degrades: the caller wants no plan at all.
        self.check_cancel()?;
        self.emit_degradation(start, &reason);
        let plan = match path {
            SolvePath::SingleDevice => {
                Plan::placement_only(Placement::affinity_default(graph, cluster))
            }
            _ => pesto_baselines::m_sct(estimated, cluster, &self.comm),
        };
        let outcome = PestoOutcome {
            plan,
            makespan_us: f64::NAN,
            placement_time: start.elapsed(),
            coarse_op_count: graph.op_count(),
            max_member_count: 1,
            path,
            degradation: Some(reason),
            resumed: false,
            stage_timings,
            shard: None,
        };
        self.honest_tail(graph, cluster, outcome, None)
    }

    /// The sharded pipeline path: partition → per-region solve → stitch →
    /// the shared search and honest tails. Taken when
    /// [`PestoConfig::shard`] is set and the (profiled) graph is larger
    /// than the region cap.
    #[allow(clippy::too_many_arguments)]
    fn place_sharded(
        &self,
        graph: &FrozenGraph,
        estimated: &FrozenGraph,
        cluster: &Cluster,
        start: Instant,
        shard_config: &pesto_shard::ShardConfig,
        mut stage_timings: Vec<StageTiming>,
    ) -> Result<PestoOutcome, PestoError> {
        let obs = self.config.obs.clone();
        // The shard gets ~85% of whatever budget remains after profiling;
        // the reserve covers the honest final simulation.
        let shard_budget = self
            .config
            .time_budget
            .map(|b| b.saturating_sub(start.elapsed()).mul_f64(0.85));
        let sharder = pesto_shard::Sharder::new(self.comm, shard_config.clone());
        let run = pesto_shard::ShardRun {
            seed: self.config.seed,
            threads: self.config.solver_threads.max(1),
            time_budget: shard_budget,
            cancel: self.config.cancel.clone(),
            obs: obs.clone(),
        };
        let sharded = {
            let _span = obs.span("pipeline.shard");
            sharder.place(estimated, cluster, &run)?
        };
        let report = sharded.report;
        // The sharder timed its phases; surface them as pipeline stages so
        // `stage_timings` stays the one place operators look.
        stage_timings.push(StageTiming {
            stage: "partition",
            wall_us: report.partition_ms * 1e3,
        });
        stage_timings.push(StageTiming {
            stage: "solve",
            wall_us: report.solve_ms * 1e3,
        });
        stage_timings.push(StageTiming {
            stage: "stitch",
            wall_us: report.stitch_ms * 1e3,
        });
        let mut degradation = report
            .deadline_hit
            .then_some(DegradationReason::DeadlineDuringSearch);

        // Seam repair at global scope: the same group-flip hill climbing
        // the monolithic path runs, over a fresh coarsening of the whole
        // graph. Region solves are locally good but blind to each other;
        // this is where cross-region placements get reconciled.
        // Deadline-bounded, so paper-scale runs stay inside the budget.
        // The full-graph ETF schedule that follows is cheap even at paper
        // scale, so sharded plans are not penalized with framework-default
        // scheduling.
        let coarsening = (self.config.refinement_passes > 0).then(|| {
            pesto_coarsen::coarsen(
                estimated,
                &CoarsenConfig::to_target(self.config.coarsen_target),
            )
        });
        let plan = self.search_tail(
            estimated,
            cluster,
            start,
            sharded.placement,
            coarsening.as_ref(),
            true,
            &mut degradation,
            &mut stage_timings,
        )?;
        let outcome = PestoOutcome {
            plan,
            makespan_us: f64::NAN,
            placement_time: start.elapsed(),
            coarse_op_count: report.regions.len(),
            max_member_count: report.regions.iter().map(|r| r.ops).max().unwrap_or(0),
            path: SolvePath::Sharded,
            degradation,
            resumed: false,
            stage_timings,
            shard: Some(report),
        };
        // mSCT safety net: a decomposed solve can, on unlucky seams, land
        // behind the global constructive baseline. The baseline is cheap
        // even at paper scale, so compare honestly and never ship worse
        // than mSCT.
        let msct = pesto_baselines::m_sct(estimated, cluster, &self.comm);
        self.honest_tail(graph, cluster, outcome, Some(msct))
    }

    /// Runs the full pipeline on `graph` (whose op times act as ground
    /// truth) and returns the plan plus its simulated per-step time.
    ///
    /// With a [`PestoConfig::time_budget`] set, the pipeline degrades
    /// instead of overrunning: the search gets ~80% of the budget as a
    /// cooperative deadline, and when even that is gone it falls back to a
    /// constructive mSCT placement or, past the budget entirely, to a
    /// single device. The rung taken is recorded in
    /// [`PestoOutcome::degradation`].
    ///
    /// # Errors
    ///
    /// * [`PestoError::NoGpus`] if the cluster has no GPU devices;
    /// * solver errors — notably an out-of-memory verdict when no
    ///   memory-feasible placement exists — and simulation failures.
    pub fn place(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
    ) -> Result<PestoOutcome, PestoError> {
        let start = Instant::now();
        if cluster.gpu_count() == 0 {
            return Err(PestoError::NoGpus);
        }
        self.check_cancel()?;
        // Crash safety: identify the job (graph fingerprint + seed) and
        // load any prior checkpoint *before* spending budget on profiling,
        // so an invalid resume fails fast and typed.
        let fingerprint = self
            .config
            .checkpoint
            .as_ref()
            .map(|_| checkpoint::graph_fingerprint(graph));
        let mut resume_state: Option<SearchCheckpoint> = None;
        if let Some(ck) = &self.config.checkpoint {
            if ck.resume && ck.path.exists() {
                let loaded = checkpoint::load_checkpoint(&FsStorage, &ck.path)?;
                loaded.verify(fingerprint.expect("fingerprint computed"), self.config.seed)?;
                resume_state = Some(loaded);
            }
        }
        let resumed = resume_state.is_some();
        let obs = self.config.obs.clone();
        let mut pipe_span = obs.span("pesto.place");
        pipe_span.set_attr("ops", graph.op_count());
        pipe_span.set_attr("gpus", cluster.gpu_count());
        let mut stage_timings = Vec::new();

        // 1. Profile: placement decisions use *estimated* times (§3.1).
        let estimated = timed_stage(&obs, &mut stage_timings, "profile", || {
            match self.config.profiler_iterations {
                Some(iters) => {
                    let report = Profiler::new(iters.max(2), self.config.seed).profile(graph);
                    if obs.is_enabled() {
                        // Profile-quality telemetry: the per-op measurement
                        // noise (relative std-dev across iterations) and the
                        // R² of the linear transfer-time fits the placement
                        // will trust.
                        for s in report.normalized_std() {
                            obs.observe("profile.normalized_std", s);
                        }
                        for (link, name) in [
                            (pesto_graph::LinkType::CpuToGpu, "cpu_gpu"),
                            (pesto_graph::LinkType::GpuToCpu, "gpu_cpu"),
                            (pesto_graph::LinkType::GpuToGpu, "gpu_gpu"),
                        ] {
                            obs.gauge_set(
                                &format!("profile.comm_r2.{name}"),
                                self.comm.fit(link).r2,
                            );
                        }
                    }
                    report.apply_to(graph.clone())
                }
                None => graph.clone(),
            }
        });

        // Hierarchical sharding: large graphs take the partition → solve →
        // stitch path instead of monolithic coarsen+solve. Small graphs
        // fall through so `--shard` is safe to leave on unconditionally.
        if let Some(shard_config) = &self.config.shard {
            if graph.op_count() > shard_config.region_cap {
                self.check_cancel()?;
                // Same lower rungs as the monolithic ladder: no budget
                // left means no sharded search either.
                if let Some(budget) = self.config.time_budget {
                    let elapsed = start.elapsed();
                    if elapsed >= budget {
                        return self.degraded_outcome(
                            graph,
                            &estimated,
                            cluster,
                            start,
                            SolvePath::SingleDevice,
                            DegradationReason::BudgetExhausted,
                            stage_timings,
                        );
                    }
                }
                let outcome = self.place_sharded(
                    graph,
                    &estimated,
                    cluster,
                    start,
                    shard_config,
                    stage_timings,
                );
                pipe_span.set_attr("path", "Sharded");
                return outcome;
            }
        }

        // 2. Coarsen (§3.3). Parallel fine edges that collapse into one
        //    coarse edge still pay one fixed transfer latency each on the
        //    real link, so the coarse edge is inflated by the latency-
        //    equivalent bytes β0/β1 per collapsed edge.
        let gg = self.comm.fit(pesto_graph::LinkType::GpuToGpu);
        // Scale-aware target: always coarsen at least ~4x (so the solver
        // works on merged vertices), but never above the configured cap.
        let target = self
            .config
            .coarsen_target
            .min((graph.op_count() / 4).max(200));
        let coarsen_config = CoarsenConfig {
            parallel_edge_penalty_bytes: if gg.beta1 > 0.0 {
                (gg.beta0 / gg.beta1) as u64
            } else {
                0
            },
            ..CoarsenConfig::to_target(target)
        };
        self.check_cancel()?;
        let (coarsening, rounds) = timed_stage(&obs, &mut stage_timings, "coarsen", || {
            coarsen_with_stats(&estimated, &coarsen_config)
        });
        if obs.is_enabled() {
            obs.gauge_set("coarsen.ops_before", estimated.op_count() as f64);
            obs.gauge_set("coarsen.ops_after", coarsening.coarse().op_count() as f64);
            obs.gauge_set("coarsen.rounds", rounds.len() as f64);
            obs.gauge_set(
                "coarsen.max_member_count",
                coarsening.max_member_count() as f64,
            );
            for r in &rounds {
                obs.observe("coarsen.edge_removal_frac", r.edge_removal_frac());
            }
        }
        let coarse = coarsening.coarse();

        // Degradation ladder, lower rungs: if profiling + coarsening ate
        // the whole budget there is no time to search. With under an
        // eighth of the budget left, a constructive mSCT placement is the
        // best we can justify; with nothing left, a single device is.
        if let Some(budget) = self.config.time_budget {
            let elapsed = start.elapsed();
            if elapsed >= budget {
                return self.degraded_outcome(
                    graph,
                    &estimated,
                    cluster,
                    start,
                    SolvePath::SingleDevice,
                    DegradationReason::BudgetExhausted,
                    stage_timings,
                );
            }
            if budget - elapsed < budget.mul_f64(0.125) {
                return self.degraded_outcome(
                    graph,
                    &estimated,
                    cluster,
                    start,
                    SolvePath::Constructive,
                    DegradationReason::BudgetTooSmallForSearch,
                    stage_timings,
                );
            }
        }

        // 3. Solve placement + scheduling on the coarse graph (§3.2). The
        //    hybrid search is seeded with constructive placements (the
        //    Baechi heuristics run on the coarse graph), so its result can
        //    only improve on them.
        self.check_cancel()?;
        let mut placer_config = self.config.placer.clone();
        if placer_config.hybrid.cancel.is_none() {
            placer_config.hybrid.cancel = self.config.cancel.clone();
        }
        placer_config.ilp.milp.threads = placer_config
            .ilp
            .milp
            .threads
            .max(self.config.solver_threads.max(1));
        // Seeds: constructive heuristics on the coarse graph, plus the
        // fine-grained mSCT placement projected onto the coarse vertices by
        // member-compute-weighted majority vote.
        let fine_msct = pesto_baselines::m_sct(&estimated, cluster, &self.comm).placement;
        let mut projected = pesto_graph::Placement::affinity_default(coarse, cluster);
        for cv in coarse.op_ids() {
            if coarse.op(cv).kind() != pesto_graph::DeviceKind::Gpu {
                continue;
            }
            let mut weight_per_dev = vec![0.0f64; cluster.device_count()];
            for &f in coarsening.members(cv) {
                weight_per_dev[fine_msct.device(f).index()] +=
                    estimated.op(f).compute_us().max(1e-3);
            }
            let best = cluster
                .gpus()
                .into_iter()
                .max_by(|a, b| weight_per_dev[a.index()].total_cmp(&weight_per_dev[b.index()]))
                .expect("cluster has gpus");
            projected.set_device(cv, best);
        }
        placer_config.hybrid.infinite_links = !self.config.congestion_aware;
        placer_config.ilp.congestion = self.config.congestion_aware;
        placer_config.hybrid.initial_placements.extend([
            projected,
            pesto_baselines::m_sct(coarse, cluster, &self.comm).placement,
            pesto_baselines::m_etf(coarse, cluster, &self.comm).placement,
        ]);
        // The search gets ~80% of the budget; the rest is reserved for
        // expansion, refinement, and the honest final simulation.
        if placer_config.hybrid.deadline.is_none() {
            placer_config.hybrid.deadline = self.config.time_budget.map(|b| start + b.mul_f64(0.8));
        }
        if !placer_config.hybrid.obs.is_enabled() {
            placer_config.hybrid.obs = obs.clone();
        }
        // Crash safety: warm-start the search from the loaded checkpoint
        // and install the periodic snapshot sink. The sink expands the
        // coarse incumbent to a fine placement-only plan so the file is
        // useful even to a reader with no solver at hand.
        if let Some(loaded) = &resume_state {
            if let Some(hybrid) = &loaded.hybrid {
                placer_config.hybrid.resume_from = Some(hybrid.clone());
            }
            if let Some(milp) = &loaded.milp {
                placer_config.ilp.milp = placer_config.ilp.milp.clone().resume_from(milp);
            }
        }
        if let Some(ck) = &self.config.checkpoint {
            let fp = fingerprint.expect("fingerprint computed");
            let seed = self.config.seed;
            let sink_path = ck.path.clone();
            let sink_coarsening = coarsening.clone();
            let carried_milp = resume_state.as_ref().and_then(|l| l.milp.clone());
            // Snapshots may fire from concurrent restart threads; the
            // temp-file protocol needs them serialized.
            let write_lock = RobustMutex::new(());
            placer_config.hybrid.checkpoint_every = ck.every_iters;
            placer_config.hybrid.checkpoint_sink = Some(CheckpointSink::new(move |state| {
                let _guard = write_lock.lock();
                let mut ckpt = SearchCheckpoint::new(fp, seed);
                ckpt.hybrid = Some(state.clone());
                ckpt.milp = carried_milp.clone();
                ckpt.incumbent = state.incumbent().map(|(p, _)| CheckpointIncumbent {
                    plan: Plan::placement_only(sink_coarsening.expand_placement(p)),
                    makespan_us: None,
                });
                // A failed mid-run snapshot must not kill the search; the
                // next cadence tick (or the final write) retries.
                let _ = checkpoint::save_checkpoint(&FsStorage, &sink_path, &ckpt);
            }));
        }
        let placer = PestoPlacer::with_config(self.comm, placer_config);
        let solve_result = timed_stage(&obs, &mut stage_timings, "solve", || {
            placer.place(coarse, cluster)
        });
        let solved = match solve_result {
            Ok(solved) => solved,
            // OOM is not recoverable by falling down the ladder: no rung
            // can shrink the model's memory footprint.
            Err(e @ IlpError::Sim(SimError::OutOfMemory(_))) => return Err(e.into()),
            // Cancellation is not a solver failure; it propagates typed
            // instead of degrading into a fallback plan.
            Err(IlpError::Cancelled) => return Err(PestoError::Cancelled),
            Err(e) => {
                return self.degraded_outcome(
                    graph,
                    &estimated,
                    cluster,
                    start,
                    SolvePath::Constructive,
                    DegradationReason::SolverFailed(e.to_string()),
                    stage_timings,
                )
            }
        };
        let mut degradation = solved
            .deadline_hit
            .then_some(DegradationReason::DeadlineDuringSearch);

        // 4. Expand to the fine graph, refine and schedule: group-flip hill
        //    climbing evaluated on the fine graph closes the residual gap
        //    between the coarse model and fine-grained reality. Explicit
        //    scheduling is dropped when merged vertices are too large
        //    (§3.3 fallback).
        let explicit_schedule = coarsening.max_member_count() <= MAX_MEMBERS_FOR_SCHEDULING;
        let plan = self.search_tail(
            &estimated,
            cluster,
            start,
            coarsening.expand_placement(&solved.plan.placement),
            Some(&coarsening),
            explicit_schedule,
            &mut degradation,
            &mut stage_timings,
        )?;

        // 5. Honest evaluation on the true op times. Never-worse
        //    guarantee: a resumed run must not finish behind the incumbent
        //    its checkpoint already held. If the continued search regressed
        //    (different refinement trajectory, tighter deadline), the
        //    checkpointed plan wins, honestly re-simulated under the same
        //    seed.
        let outcome = PestoOutcome {
            plan,
            makespan_us: f64::NAN,
            placement_time: start.elapsed(),
            coarse_op_count: coarse.op_count(),
            max_member_count: coarsening.max_member_count(),
            path: solved.path,
            degradation,
            resumed,
            stage_timings,
            shard: None,
        };
        let incumbent = resume_state
            .as_ref()
            .and_then(|l| l.incumbent.as_ref())
            .map(|inc| inc.plan.clone());
        let outcome = self.honest_tail(graph, cluster, outcome, incumbent)?;

        // The final checkpoint records the finished job: full search
        // state for further warm-starts plus the fine plan with its
        // honest makespan. Unlike mid-run snapshots, a failure here is
        // surfaced — the user asked for a durable artifact and did not
        // get one.
        self.check_cancel()?;
        if let Some(ck) = &self.config.checkpoint {
            let mut final_ckpt =
                SearchCheckpoint::new(fingerprint.expect("fingerprint computed"), self.config.seed);
            final_ckpt.hybrid = solved.hybrid_state;
            final_ckpt.milp = solved
                .milp_checkpoint
                .or_else(|| resume_state.and_then(|l| l.milp));
            final_ckpt.incumbent = Some(CheckpointIncumbent {
                plan: outcome.plan.clone(),
                makespan_us: Some(outcome.makespan_us),
            });
            checkpoint::save_checkpoint(&FsStorage, &ck.path, &final_ckpt)?;
        }

        pipe_span.set_attr("path", format!("{:?}", outcome.path));
        pipe_span.set_attr("degraded", outcome.degradation.is_some());
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_models::ModelSpec;

    #[test]
    fn retryable_classification_is_shared_and_stable() {
        // Retryable: transient I/O and search-limit exhaustion.
        assert!(PestoError::Checkpoint(CheckpointError::Io("disk full".into())).is_retryable());
        assert!(PestoError::Solve(IlpError::NoSolution).is_retryable());
        // Permanent: bad inputs, proven infeasibility, wrong-job
        // checkpoints, cancellation.
        assert!(!PestoError::NoGpus.is_retryable());
        assert!(!PestoError::Cancelled.is_retryable());
        assert!(!PestoError::Graph(GraphError::Empty).is_retryable());
        assert!(!PestoError::Solve(IlpError::Infeasible).is_retryable());
        assert!(!PestoError::InvalidConfig("zero draws".into()).is_retryable());
        assert!(!PestoError::Repair("not a gpu".into()).is_retryable());
        assert!(
            !PestoError::Checkpoint(CheckpointError::Mismatch("other job".into())).is_retryable()
        );
        assert!(!PestoError::Checkpoint(CheckpointError::Parse("garbage".into())).is_retryable());
        assert!(!PestoError::Sim(SimError::OutOfMemory(Vec::new())).is_retryable());
    }

    #[test]
    fn pre_cancelled_place_returns_cancelled_not_a_degraded_plan() {
        let graph = ModelSpec::nasnet(2, 8).generate(16, 1);
        let cluster = Cluster::two_gpus();
        let token = CancelToken::new();
        token.cancel();
        let cfg = PestoConfig {
            cancel: Some(token),
            // A budget would normally trigger the degradation ladder;
            // cancellation must win over it.
            time_budget: Some(Duration::from_millis(1)),
            ..PestoConfig::fast()
        };
        let err = Pesto::new(cfg).place(&graph, &cluster).unwrap_err();
        assert_eq!(err, PestoError::Cancelled);
        assert!(!err.is_retryable());
    }

    #[test]
    fn cancel_mid_search_propagates_through_the_pipeline() {
        let graph = ModelSpec::nasnet(3, 16).generate(32, 1);
        let cluster = Cluster::two_gpus();
        let token = CancelToken::new();
        let mut cfg = PestoConfig::fast();
        // Raise the flag from the search's own checkpoint sink: the first
        // cadence snapshot fires early in the solve, deterministically
        // mid-search.
        cfg.cancel = Some(token.clone());
        cfg.placer.hybrid.checkpoint_every = 10;
        cfg.placer.hybrid.checkpoint_sink =
            Some(pesto_ilp::CheckpointSink::new(move |_| token.cancel()));
        let err = Pesto::new(cfg).place(&graph, &cluster).unwrap_err();
        assert_eq!(err, PestoError::Cancelled);
    }

    #[test]
    fn pipeline_runs_end_to_end_on_a_small_model() {
        let graph = ModelSpec::nasnet(3, 16).generate(32, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        assert!(outcome.makespan_us > 0.0);
        // Scale-aware floor: small graphs coarsen to at most max(200, n/4).
        assert!(outcome.coarse_op_count <= graph.op_count());
        assert!(outcome.plan.validate(&graph, &cluster).is_ok());
        assert_eq!(outcome.degradation, None, "no budget, no degradation");
    }

    #[test]
    fn cpu_only_cluster_is_a_typed_error_not_a_panic() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let full = Cluster::homogeneous(1, 1 << 34);
        let cpu_only = full.without_gpu(full.gpus()[0]).unwrap();
        let err = Pesto::new(PestoConfig::fast())
            .place(&graph, &cpu_only)
            .unwrap_err();
        assert_eq!(err, PestoError::NoGpus);
    }

    #[test]
    fn zero_budget_degrades_to_a_single_device() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            time_budget: Some(Duration::ZERO),
            ..PestoConfig::fast()
        };
        let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
        assert_eq!(outcome.path, SolvePath::SingleDevice);
        assert_eq!(
            outcome.degradation,
            Some(DegradationReason::BudgetExhausted)
        );
        assert!(outcome.plan.validate(&graph, &cluster).is_ok());
        // Everything sits on one GPU.
        let gpu0 = cluster.gpus()[0];
        for op in graph.op_ids() {
            let d = outcome.plan.placement.device(op);
            assert!(d == gpu0 || d == cluster.cpu());
        }
    }

    #[test]
    fn single_gpu_cluster_runs_end_to_end() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::homogeneous(1, 1 << 34);
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        assert!(outcome.makespan_us > 0.0);
        assert!(outcome.plan.validate(&graph, &cluster).is_ok());
    }

    #[test]
    fn scheduling_fallback_when_merges_are_huge() {
        // Coarsening NASNet-3-16 to 2 vertices merges almost every op into
        // one vertex, far past the §3.3 threshold.
        let graph = ModelSpec::nasnet(3, 16).generate(32, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            coarsen_target: 2,
            ..PestoConfig::fast()
        };
        let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
        assert!(outcome.max_member_count > MAX_MEMBERS_FOR_SCHEDULING);
        assert!(outcome.plan.order.is_none());
    }

    #[test]
    fn congestion_blind_exact_path_drops_the_link_constraints() {
        // NASNet-3-16 coarsened to 8 vertices on 2 GPUs goes through the
        // exact ILP; without congestion modelling its model loses
        // constraint set (7). A node budget keeps the congestion-blind
        // search, whose relaxation is weaker, from running to its time
        // limit; 50 nodes find an incumbent either way.
        let graph = ModelSpec::nasnet(3, 16).generate(32, 1);
        let cluster = Cluster::two_gpus();
        let milp_constraints = |congestion_aware: bool| {
            let mut config = PestoConfig {
                coarsen_target: 8,
                congestion_aware,
                obs: Obs::enabled(),
                ..PestoConfig::fast()
            };
            config.placer.ilp.milp.node_limit = 50;
            let obs = config.obs.clone();
            let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
            assert_eq!(outcome.path, SolvePath::Exact);
            let spans = obs.spans();
            let span = spans
                .iter()
                .find(|s| s.name == "milp.solve")
                .expect("the exact path solves a MILP");
            let (_, constraints) = span
                .attrs
                .iter()
                .find(|(k, _)| k == "constraints")
                .expect("milp.solve records its constraint count");
            constraints.parse::<usize>().unwrap()
        };
        let with = milp_constraints(true);
        let without = milp_constraints(false);
        assert!(
            without < with,
            "{without} constraints without congestion, {with} with"
        );
    }

    #[test]
    fn stage_timings_cover_every_stage_even_with_obs_disabled() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig::fast())
            .place(&graph, &cluster)
            .unwrap();
        let stages: Vec<&str> = outcome.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(
            stages,
            ["profile", "coarsen", "solve", "refine", "schedule", "simulate"],
            "full run visits every stage in order"
        );
        for t in &outcome.stage_timings {
            assert!(t.wall_us >= 0.0, "{}: negative wall time", t.stage);
        }
    }

    #[test]
    fn enabled_obs_records_pipeline_spans_and_metrics() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            obs: Obs::enabled(),
            ..PestoConfig::fast()
        };
        let obs = config.obs.clone();
        Pesto::new(config).place(&graph, &cluster).unwrap();

        let spans = obs.spans();
        for want in [
            "pesto.place",
            "pipeline.profile",
            "pipeline.coarsen",
            "pipeline.solve",
            "pipeline.refine",
            "pipeline.schedule",
            "pipeline.simulate",
        ] {
            assert!(spans.iter().any(|s| s.name == want), "missing span {want}");
        }
        // Coarsening and profiling quality metrics are recorded.
        assert!(
            obs.gauge("coarsen.ops_before").unwrap() >= obs.gauge("coarsen.ops_after").unwrap()
        );
        assert!(obs.gauge("profile.comm_r2.gpu_gpu").is_some());
        // The placer inherited the handle: the solver stack left evidence.
        assert!(spans.iter().any(|s| s.name == "placer.place"));
        // Search effort: the annealer and the refinement count their
        // evaluations; an improvement is an evaluation that was kept.
        assert!(obs.counter("hybrid.evaluations") > 0);
        assert!(obs.counter("hybrid.accepted") <= obs.counter("hybrid.evaluations"));
        assert!(obs.counter("refine.evaluations") > 0);
        assert!(obs.counter("refine.improvements") < obs.counter("refine.evaluations"));
    }

    #[test]
    fn resumed_etf_steps_are_counted_only_when_enabled() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let place = |obs: &Obs| {
            let config = PestoConfig {
                obs: obs.clone(),
                ..PestoConfig::fast()
            };
            Pesto::new(config).place(&graph, &cluster).unwrap()
        };
        let on = Obs::enabled();
        let traced = place(&on);
        // Annealing scores the coarse graph, refinement the fine one. A
        // resumed candidate skips fewer steps than its graph has ops.
        let coarse_ops = on.gauge("coarsen.ops_after").unwrap() as u64;
        for (stage, ops) in [("hybrid", coarse_ops), ("refine", graph.op_count() as u64)] {
            let skipped = on.counter(&format!("{stage}.etf_steps_skipped"));
            let evaluations = on.counter(&format!("{stage}.evaluations"));
            assert!(
                skipped > 0 && skipped < evaluations * ops,
                "{stage}: {skipped} steps skipped over {evaluations} evaluations of {ops} ops"
            );
        }
        let off = Obs::disabled();
        let untraced = place(&off);
        assert_eq!(off.counter("hybrid.etf_steps_skipped"), 0);
        assert_eq!(off.counter("refine.etf_steps_skipped"), 0);
        assert_eq!(untraced.plan, traced.plan);
        assert_eq!(untraced.makespan_us.to_bits(), traced.makespan_us.to_bits());
    }

    #[test]
    fn degradation_events_carry_tag_and_remaining_deadline() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            time_budget: Some(Duration::ZERO),
            obs: Obs::enabled(),
            ..PestoConfig::fast()
        };
        let obs = config.obs.clone();
        let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
        assert_eq!(
            outcome.degradation,
            Some(DegradationReason::BudgetExhausted)
        );
        // Degraded runs skip the search stages but still time what ran.
        let stages: Vec<&str> = outcome.stage_timings.iter().map(|t| t.stage).collect();
        assert_eq!(stages, ["profile", "coarsen", "simulate"]);

        let events = obs.solver_events();
        let deg: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                SolverEventKind::Degradation {
                    reason,
                    remaining_deadline_us,
                } => Some((reason.clone(), *remaining_deadline_us)),
                _ => None,
            })
            .collect();
        assert_eq!(deg.len(), 1, "exactly one degradation event");
        assert_eq!(deg[0].0, "budget_exhausted");
        assert_eq!(deg[0].1, 0.0, "zero budget leaves zero deadline slack");
    }

    #[test]
    fn every_degradation_variant_emits_a_matching_event() {
        let config = PestoConfig {
            obs: Obs::enabled(),
            ..PestoConfig::fast()
        };
        let obs = config.obs.clone();
        let pesto = Pesto::new(config);
        let start = Instant::now();
        let reasons = [
            DegradationReason::DeadlineDuringSearch,
            DegradationReason::BudgetTooSmallForSearch,
            DegradationReason::BudgetExhausted,
            DegradationReason::SolverFailed("lp blew up".into()),
        ];
        for r in &reasons {
            pesto.emit_degradation(start, r);
        }
        let events = obs.solver_events();
        assert_eq!(events.len(), reasons.len());
        for (event, reason) in events.iter().zip(&reasons) {
            assert_eq!(event.source, "pipeline");
            match &event.kind {
                SolverEventKind::Degradation {
                    reason: tag,
                    remaining_deadline_us,
                } => {
                    assert_eq!(tag, reason.tag());
                    // No time_budget configured: infinite slack (exported
                    // as JSON null, never a bogus finite number).
                    assert!(remaining_deadline_us.is_infinite());
                }
                other => panic!("expected degradation event, got {other:?}"),
            }
        }
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "pesto-pipeline-ckpt-{}-{name}.json",
            std::process::id()
        ))
    }

    #[test]
    fn checkpointed_run_writes_a_file_and_resume_never_regresses() {
        let path = ckpt_path("resume");
        let _ = std::fs::remove_file(&path);
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            checkpoint: Some(CheckpointConfig {
                every_iters: 50,
                ..CheckpointConfig::new(&path)
            }),
            ..PestoConfig::fast()
        };
        let a = Pesto::new(config.clone()).place(&graph, &cluster).unwrap();
        assert!(!a.resumed, "fresh run must not claim to have resumed");
        assert!(path.exists(), "final checkpoint must be written");

        // Resuming a *finished* job replays every chain's terminal
        // state: the search adds nothing, and the never-worse guard
        // keeps the incumbent, so the makespan cannot regress.
        let resume_config = PestoConfig {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            ..config
        };
        let b = Pesto::new(resume_config).place(&graph, &cluster).unwrap();
        assert!(b.resumed);
        assert!(
            b.makespan_us <= a.makespan_us + 1e-6,
            "resume regressed: {} > {}",
            b.makespan_us,
            a.makespan_us
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resuming_against_a_different_graph_is_a_typed_error() {
        let path = ckpt_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            checkpoint: Some(CheckpointConfig::new(&path)),
            ..PestoConfig::fast()
        };
        Pesto::new(config).place(&graph, &cluster).unwrap();

        let other = ModelSpec::transformer(1, 2, 128).generate(4, 1);
        let err = Pesto::new(PestoConfig {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            ..PestoConfig::fast()
        })
        .place(&other, &cluster)
        .unwrap_err();
        assert!(
            matches!(err, PestoError::Checkpoint(CheckpointError::Mismatch(_))),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_checkpoint_file_starts_fresh_not_an_error() {
        let path = ckpt_path("fresh");
        let _ = std::fs::remove_file(&path);
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let outcome = Pesto::new(PestoConfig {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            ..PestoConfig::fast()
        })
        .place(&graph, &cluster)
        .unwrap();
        assert!(!outcome.resumed, "nothing to resume from");
        assert!(path.exists(), "the fresh run still checkpoints");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profiling_can_be_disabled() {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let config = PestoConfig {
            profiler_iterations: None,
            ..PestoConfig::fast()
        };
        let outcome = Pesto::new(config).place(&graph, &cluster).unwrap();
        assert!(outcome.makespan_us > 0.0);
    }
}
