//! Best-first branch-and-bound for 0-1 MILPs.

use pesto_lp::{LpError, Problem, Sense, VarId};
use pesto_obs::{CancelToken, Obs, SolverEventKind};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrder};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Integrality tolerance: an LP value within this of an integer counts as
/// integral.
const INT_TOL: f64 = 1e-6;

/// Errors from MILP solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MilpError {
    /// The LP relaxation at the root is infeasible — so is the MILP.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// The model is malformed (propagated from the LP layer).
    InvalidModel(String),
    /// Search ended (time, node or simplex pivot limit) without any
    /// feasible solution found.
    NoSolutionFound,
    /// The caller's [`CancelToken`] was raised; the search was abandoned
    /// without a result.
    Cancelled,
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::Unbounded => write!(f, "problem is unbounded"),
            MilpError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            MilpError::NoSolutionFound => {
                write!(
                    f,
                    "search limit reached before any feasible solution was found"
                )
            }
            MilpError::Cancelled => write!(f, "search cancelled"),
        }
    }
}

impl Error for MilpError {}

/// How the search terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MilpStatus {
    /// Solved to proven optimality (within the configured gap).
    Optimal,
    /// A feasible solution was found but limits stopped the proof of
    /// optimality; `gap` reports the remaining relative gap.
    Feasible,
}

/// Solver limits and tolerances.
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Wall-clock budget for the search.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes to explore.
    pub node_limit: usize,
    /// Relative optimality gap at which the search stops and reports
    /// [`MilpStatus::Optimal`]. `0.0` means prove true optimality.
    pub gap_tolerance: f64,
    /// A known feasible assignment (all variables) used as the initial
    /// incumbent for pruning.
    pub warm_start: Option<Vec<f64>>,
    /// Cooperative cancellation, polled between branch-and-bound nodes
    /// alongside the time/node limits. Unlike a limit (which stops the
    /// proof but keeps the incumbent), a raised token abandons the search
    /// with [`MilpError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Telemetry sink. The default (disabled) handle keeps the per-node
    /// hot path free of recording; an enabled handle receives a
    /// `milp.solve` span, node/prune/pivot counters, and incumbent/gap
    /// solver events.
    pub obs: Obs,
    /// Number of branch-and-bound workers. Every count runs the same
    /// search loop over one open-node heap and one incumbent; the count
    /// only decides how many workers run it. `1` (the default) runs it on
    /// the calling thread, which is fully deterministic — node-for-node
    /// identical across runs — and is the path the checkpoint/resume
    /// contract is stated against. Values `> 1` run it on that many scoped
    /// threads: the returned objective is still optimal within
    /// `gap_tolerance`, but node counts, the dual bound reported under a
    /// limit, and tie-broken solution vectors may vary between runs.
    pub threads: usize,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            time_limit: Duration::from_secs(60),
            node_limit: 200_000,
            gap_tolerance: 1e-6,
            warm_start: None,
            cancel: None,
            obs: Obs::disabled(),
            threads: 1,
        }
    }
}

impl MilpConfig {
    /// Convenience constructor with a wall-clock budget.
    pub fn with_time_limit(time_limit: Duration) -> Self {
        MilpConfig {
            time_limit,
            ..MilpConfig::default()
        }
    }

    /// Continues a search from a saved [`MilpCheckpoint`]: the
    /// checkpointed incumbent becomes the warm start, so branch and bound
    /// starts pruning against it immediately. B&B is deterministic, so a
    /// resumed search reaches the same final solution as an uninterrupted
    /// run — typically through fewer live nodes, never through a worse
    /// incumbent.
    pub fn resume_from(mut self, checkpoint: &MilpCheckpoint) -> Self {
        self.warm_start = Some(checkpoint.values.clone());
        self
    }
}

/// Serializable state of an interrupted branch-and-bound run: the best
/// incumbent (values + objective) and the dual bound it had proven.
///
/// The search tree itself is *not* saved — B&B is deterministic, so
/// re-expanding it under the checkpointed incumbent reproduces the same
/// trajectory, and the incumbent prunes everything the original run had
/// already closed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MilpCheckpoint {
    /// Objective of the checkpointed incumbent.
    pub objective: f64,
    /// Variable values of the checkpointed incumbent.
    pub values: Vec<f64>,
    /// Best dual bound proven before the interruption.
    pub best_bound: f64,
    /// Nodes explored before the interruption (informational).
    pub nodes_explored: usize,
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MilpSolution {
    /// Whether optimality was proven.
    pub status: MilpStatus,
    /// Objective of the best solution found, in the problem's own sense.
    pub objective: f64,
    /// Values of all variables in the best solution.
    pub values: Vec<f64>,
    /// Best dual bound at termination (equals `objective` when optimal).
    /// A search that stopped before solving the root relaxation has no
    /// bound: `-inf` when minimizing, `+inf` when maximizing.
    pub best_bound: f64,
    /// Remaining relative gap `|objective - best_bound| / max(1, |objective|)`
    /// (infinite without a root bound).
    pub gap: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: usize,
}

impl MilpSolution {
    /// Value of `var` in the best solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Captures the solution as a resumable [`MilpCheckpoint`].
    pub fn checkpoint(&self) -> MilpCheckpoint {
        MilpCheckpoint {
            objective: self.objective,
            values: self.values.clone(),
            best_bound: self.best_bound,
            nodes_explored: self.nodes_explored,
        }
    }
}

/// A 0-1 MILP: an LP plus the set of variables restricted to `{0, 1}`.
#[derive(Debug, Clone)]
pub struct MilpProblem {
    lp: Problem,
    binaries: Vec<VarId>,
}

/// One open node: a set of branching decisions (bound fixings).
#[derive(Debug, Clone)]
struct Node {
    /// `(var, value)` fixings accumulated from the root.
    fixings: Vec<(VarId, f64)>,
    /// LP bound of the parent (optimistic estimate for ordering).
    bound: f64,
    depth: usize,
}

/// Max-heap ordering on node quality (best bound first, then deepest).
struct OrderedNode {
    node: Node,
    /// Key such that larger = more promising, regardless of sense.
    key: f64,
}

impl PartialEq for OrderedNode {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for OrderedNode {}
impl PartialOrd for OrderedNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| self.node.depth.cmp(&other.node.depth))
    }
}

impl MilpProblem {
    /// Wraps an LP, declaring `binaries` as 0-1 variables.
    ///
    /// The binaries' bounds in `lp` should already be within `[0, 1]`; the
    /// constructor clamps them.
    pub fn new(mut lp: Problem, binaries: Vec<VarId>) -> Self {
        for &v in &binaries {
            let (lo, hi) = lp.var_bounds(v);
            lp.set_var_bounds(v, lo.max(0.0), hi.min(1.0));
        }
        MilpProblem { lp, binaries }
    }

    /// The underlying LP (relaxation) model.
    pub fn lp(&self) -> &Problem {
        &self.lp
    }

    /// The declared binary variables.
    pub fn binaries(&self) -> &[VarId] {
        &self.binaries
    }

    /// Checks integer feasibility of an assignment: LP-feasible and all
    /// binaries integral.
    pub fn is_integer_feasible(&self, values: &[f64], tol: f64) -> bool {
        self.lp.is_feasible(values, tol)
            && self
                .binaries
                .iter()
                .all(|&v| frac(values[v.index()]) <= tol.max(INT_TOL))
    }

    /// Solves by branch and bound.
    ///
    /// # Errors
    ///
    /// * [`MilpError::Infeasible`] / [`MilpError::Unbounded`] for hopeless
    ///   models;
    /// * [`MilpError::NoSolutionFound`] when limits expire before any
    ///   integer-feasible point is found;
    /// * [`MilpError::InvalidModel`] for malformed input.
    pub fn solve(&self, config: &MilpConfig) -> Result<MilpSolution, MilpError> {
        let obs = &config.obs;
        let mut span = obs.span("milp.solve");
        span.set_attr("vars", self.lp.var_count());
        span.set_attr("constraints", self.lp.constraint_count());
        span.set_attr("binaries", self.binaries.len());
        let workers = config.threads.max(1);
        let search = Search::new(self, config, workers);
        if workers == 1 {
            search.work(0);
        } else {
            span.set_attr("threads", workers);
            std::thread::scope(|s| {
                for w in 0..workers {
                    let search = &search;
                    s.spawn(move || {
                        // Named lanes merge the workers' spans into one
                        // chrome trace.
                        if obs.is_enabled() {
                            obs.name_lane(format!("milp-worker-{w}"));
                        }
                        let mut span = obs.span("milp.worker");
                        span.set_attr("worker", w);
                        search.work(w);
                    });
                }
            });
        }
        search.finish()
    }
}

/// Sentinel for "no value" in the atomic `f64` mirrors: `u64::MAX` is a
/// NaN bit pattern no objective or bound produces. An explicit sentinel
/// rather than NaN comparison semantics, which would silently invert a
/// prune test.
const NO_OBJ: u64 = u64::MAX;

/// Node interval between sampled gap events (incumbent updates always
/// emit, so the stream stays small but never misses the trajectory's
/// corners).
const GAP_SAMPLE_EVERY: usize = 64;

fn load_f64(bits: &AtomicU64) -> Option<f64> {
    let bits = bits.load(AtomicOrder::SeqCst);
    (bits != NO_OBJ).then(|| f64::from_bits(bits))
}

/// The state every worker of one [`MilpProblem::solve`] shares.
///
/// Workers pop open nodes from one best-first heap, dive them, and prune
/// against one incumbent. The incumbent lives behind a mutex (objective
/// and values) with its objective mirrored in an `AtomicU64`, so the
/// per-node prune checks never take the lock; a stale read only makes a
/// prune test conservative (the node is explored and pruned at its own
/// bound), never unsound.
///
/// Idle workers exit once the heap is empty and no worker is mid-dive
/// (`active == 0`); `active` is incremented under the heap lock at pop and
/// decremented only after a dive's children are pushed, so the check
/// cannot race with work being created. A worker that stops (limit,
/// cancel, error, closed gap) raises `stop`, and the others leave at their
/// next node, each dropping the node in hand but keeping its bound held.
struct Search<'a> {
    problem: &'a MilpProblem,
    config: &'a MilpConfig,
    maximize: bool,
    start: Instant,
    heap: Mutex<BinaryHeap<OrderedNode>>,
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    incumbent_obj: AtomicU64,
    /// Bound of the node each worker holds in hand (`NO_OBJ` when none):
    /// the dual bound must cover nodes that are neither in the heap nor
    /// closed, including a node dropped when the search stopped.
    held: Vec<AtomicU64>,
    nodes: AtomicUsize,
    active: AtomicUsize,
    /// The last dual bound computed: the root relaxation, then each gap
    /// check. Starts at the sense's worst value.
    bound: AtomicU64,
    /// The bound of the gap check that closed the search, if one did.
    closing_bound: AtomicU64,
    saw_root: AtomicBool,
    limits_hit: AtomicBool,
    stop: AtomicBool,
    error: Mutex<Option<MilpError>>,
}

impl<'a> Search<'a> {
    fn new(problem: &'a MilpProblem, config: &'a MilpConfig, workers: usize) -> Self {
        let maximize = matches!(problem.lp.sense(), Sense::Maximize);
        let (worst, best) = if maximize {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        let mut incumbent = None;
        if let Some(ws) = &config.warm_start {
            if problem.is_integer_feasible(ws, 1e-6) {
                let obj = problem.lp.objective_value(ws);
                config
                    .obs
                    .solver_event("milp", SolverEventKind::Incumbent { objective: obj });
                incumbent = Some((obj, ws.clone()));
            }
        }
        let root = OrderedNode {
            key: f64::INFINITY,
            node: Node {
                fixings: Vec::new(),
                bound: best,
                depth: 0,
            },
        };
        Search {
            problem,
            config,
            maximize,
            start: Instant::now(),
            heap: Mutex::new(BinaryHeap::from(vec![root])),
            incumbent_obj: AtomicU64::new(
                incumbent.as_ref().map_or(NO_OBJ, |(obj, _)| obj.to_bits()),
            ),
            incumbent: Mutex::new(incumbent),
            held: (0..workers).map(|_| AtomicU64::new(NO_OBJ)).collect(),
            nodes: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            bound: AtomicU64::new(worst.to_bits()),
            closing_bound: AtomicU64::new(NO_OBJ),
            saw_root: AtomicBool::new(false),
            limits_hit: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Is objective `a` strictly better than `b`?
    fn better(&self, a: f64, b: f64) -> bool {
        if self.maximize {
            a > b + 1e-12
        } else {
            a < b - 1e-12
        }
    }

    fn incumbent_obj(&self) -> Option<f64> {
        load_f64(&self.incumbent_obj)
    }

    fn bound(&self) -> f64 {
        f64::from_bits(self.bound.load(AtomicOrder::SeqCst))
    }

    fn emit_gap(&self, incumbent: Option<f64>, bound: f64, nodes: usize) {
        self.config.obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: incumbent.unwrap_or(f64::INFINITY),
                best_bound: bound,
                relative_gap: incumbent.map_or(f64::INFINITY, |inc| relative_gap(inc, bound)),
                nodes_explored: nodes as u64,
            },
        );
    }

    fn fail(&self, e: MilpError) {
        self.error.lock().expect("error lock").get_or_insert(e);
        self.stop.store(true, AtomicOrder::SeqCst);
    }

    /// Makes `values` the incumbent if `obj` beats it.
    fn offer(&self, obj: f64, values: Vec<f64>, nodes: usize) {
        if self
            .incumbent_obj()
            .is_some_and(|inc| !self.better(obj, inc))
        {
            return;
        }
        let mut incumbent = self.incumbent.lock().expect("incumbent lock");
        if incumbent
            .as_ref()
            .is_none_or(|(inc, _)| self.better(obj, *inc))
        {
            self.incumbent_obj.store(obj.to_bits(), AtomicOrder::SeqCst);
            self.config
                .obs
                .solver_event("milp", SolverEventKind::Incumbent { objective: obj });
            self.emit_gap(Some(obj), self.bound(), nodes);
            *incumbent = Some((obj, values));
        }
    }

    /// The best bound over all open work — the heap, then every node a
    /// worker holds — or `None` when nothing is open.
    fn open_bound(&self) -> Option<f64> {
        let heap = self.heap.lock().expect("heap lock");
        let held = self.held.iter().filter_map(load_f64);
        heap.iter()
            .map(|n| n.node.bound)
            .chain(held)
            .reduce(|acc, b| {
                if self.maximize {
                    acc.max(b)
                } else {
                    acc.min(b)
                }
            })
    }

    /// One worker: pops the most promising open node and dives it, until
    /// the tree is exhausted or the search stops.
    fn work(&self, w: usize) {
        let held = &self.held[w];
        while !self.stop.load(AtomicOrder::SeqCst) {
            let popped = {
                let mut heap = self.heap.lock().expect("heap lock");
                let node = heap.pop().map(|on| on.node);
                if let Some(node) = &node {
                    self.active.fetch_add(1, AtomicOrder::SeqCst);
                    held.store(node.bound.to_bits(), AtomicOrder::SeqCst);
                }
                node
            };
            match popped {
                Some(node) => {
                    self.dive(node, held);
                    // A dive that stopped may have dropped the node in hand:
                    // its bound stays held, so a gap check another worker is
                    // still running covers it.
                    if !self.stop.load(AtomicOrder::SeqCst) {
                        held.store(NO_OBJ, AtomicOrder::SeqCst);
                    }
                    self.active.fetch_sub(1, AtomicOrder::SeqCst);
                }
                None if self.active.load(AtomicOrder::SeqCst) == 0 => break,
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// Explores `node`, then plunges depth-first along the LP-preferred
    /// branch until the subtree is pruned or integral; the other child of
    /// every branching goes to the heap. Diving finds incumbents quickly
    /// on weak (big-M) relaxations, where pure best-first can wander
    /// forever.
    fn dive(&self, node: Node, held: &AtomicU64) {
        let (config, obs) = (self.config, &self.config.obs);
        let (lp, binaries) = (&self.problem.lp, &self.problem.binaries);
        let mut current = Some(node);
        while let Some(node) = current.take() {
            if self.stop.load(AtomicOrder::SeqCst) {
                return;
            }
            if config.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return self.fail(MilpError::Cancelled);
            }
            if self.nodes.load(AtomicOrder::SeqCst) >= config.node_limit
                || self.start.elapsed() > config.time_limit
            {
                self.limits_hit.store(true, AtomicOrder::SeqCst);
                self.stop.store(true, AtomicOrder::SeqCst);
                return;
            }
            let n = self.nodes.fetch_add(1, AtomicOrder::SeqCst) + 1;
            obs.counter_add("milp.nodes", 1);
            if obs.is_enabled() && n.is_multiple_of(GAP_SAMPLE_EVERY) {
                self.emit_gap(self.incumbent_obj(), self.bound(), n);
            }

            // Prune by parent bound against incumbent.
            if node.depth > 0
                && self
                    .incumbent_obj()
                    .is_some_and(|inc| !self.better(node.bound, inc))
            {
                obs.counter_add("milp.prune.parent_bound", 1);
                continue;
            }

            // Solve this node's relaxation.
            let mut node_lp = lp.clone();
            for &(v, val) in &node.fixings {
                node_lp.set_var_bounds(v, val, val);
            }
            let relax = match node_lp.solve() {
                Ok(s) => s,
                Err(LpError::Infeasible) if node.depth == 0 => {
                    return self.fail(MilpError::Infeasible)
                }
                Err(LpError::Unbounded) if node.depth == 0 => {
                    return self.fail(MilpError::Unbounded)
                }
                Err(LpError::Infeasible | LpError::Unbounded) => {
                    obs.counter_add("milp.prune.infeasible", 1);
                    continue;
                }
                Err(LpError::IterationLimit) => {
                    // The pivot budget ran out: the node is unresolved, not
                    // infeasible. Stop like any other limit, so its bound
                    // stays held and the result cannot claim a proof.
                    obs.counter_add("milp.prune.iteration_limit", 1);
                    self.limits_hit.store(true, AtomicOrder::SeqCst);
                    self.stop.store(true, AtomicOrder::SeqCst);
                    return;
                }
                Err(LpError::InvalidModel(m)) => return self.fail(MilpError::InvalidModel(m)),
                // LpError is non-exhaustive; treat future variants as fatal.
                Err(other) => return self.fail(MilpError::InvalidModel(other.to_string())),
            };
            obs.counter_add("milp.lp_pivots", relax.pivots);
            if node.depth == 0 {
                self.bound
                    .store(relax.objective.to_bits(), AtomicOrder::SeqCst);
                self.saw_root.store(true, AtomicOrder::SeqCst);
                self.emit_gap(self.incumbent_obj(), relax.objective, n);
            }

            // Prune by this node's own bound.
            if self
                .incumbent_obj()
                .is_some_and(|inc| !self.better(relax.objective, inc))
            {
                obs.counter_add("milp.prune.bound", 1);
                continue;
            }

            // Find most fractional binary.
            let branch_var = binaries
                .iter()
                .copied()
                .map(|v| (v, frac(relax.values[v.index()])))
                .filter(|&(_, f)| f > INT_TOL)
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(v, _)| v);

            match branch_var {
                // Integer feasible: candidate incumbent.
                None => self.offer(relax.objective, round_binaries(&relax.values, binaries), n),
                Some(v) => {
                    // Rounding heuristic: snap all binaries, re-check.
                    let rounded = round_binaries(&relax.values, binaries);
                    if lp.is_feasible(&rounded, 1e-7) {
                        self.offer(lp.objective_value(&rounded), rounded, n);
                    }
                    // Branch: dive into the side the LP leans toward; the
                    // other child goes to the best-first heap.
                    let (dive_val, other_val) = if relax.values[v.index()] >= 0.5 {
                        (1.0, 0.0)
                    } else {
                        (0.0, 1.0)
                    };
                    let child = |mut fixings: Vec<(VarId, f64)>, val: f64| {
                        fixings.push((v, val));
                        Node {
                            fixings,
                            bound: relax.objective,
                            depth: node.depth + 1,
                        }
                    };
                    let dive = child(node.fixings.clone(), dive_val);
                    let other = child(node.fixings, other_val);
                    let key = if self.maximize {
                        relax.objective
                    } else {
                        -relax.objective
                    };
                    self.heap
                        .lock()
                        .expect("heap lock")
                        .push(OrderedNode { key, node: other });
                    current = Some(dive);
                }
            }

            // The node in hand is now the dive's next one, if any.
            held.store(
                current.as_ref().map_or(NO_OBJ, |n| n.bound.to_bits()),
                AtomicOrder::SeqCst,
            );
            if self.check_gap() {
                return;
            }
        }
    }

    /// Global bound over open work ⇒ gap early stop. With an incumbent,
    /// stores the bound over the heap and every held node as the last dual
    /// bound; if the gap is within tolerance, records it as the closing
    /// bound, stops the search and returns `true`.
    fn check_gap(&self) -> bool {
        let Some(inc) = self.incumbent_obj() else {
            return false;
        };
        let bound = self.open_bound().unwrap_or(inc);
        self.bound.store(bound.to_bits(), AtomicOrder::SeqCst);
        let closed = relative_gap(inc, bound) <= self.config.gap_tolerance;
        if closed {
            let _ = self.closing_bound.compare_exchange(
                NO_OBJ,
                bound.to_bits(),
                AtomicOrder::SeqCst,
                AtomicOrder::SeqCst,
            );
            self.stop.store(true, AtomicOrder::SeqCst);
        }
        closed
    }

    /// The search's result once every worker has returned.
    fn finish(self) -> Result<MilpSolution, MilpError> {
        if let Some(e) = self.error.into_inner().expect("error lock") {
            return Err(e);
        }
        let limits_hit = self.limits_hit.into_inner();
        let Some((objective, values)) = self.incumbent.into_inner().expect("incumbent lock") else {
            // An exhausted tree with no incumbent is a proof of
            // infeasibility; only a limit-terminated search is inconclusive.
            return Err(if limits_hit {
                MilpError::NoSolutionFound
            } else {
                MilpError::Infeasible
            });
        };
        let (status, best_bound) = match load_f64(&self.closing_bound) {
            Some(bound) => (MilpStatus::Optimal, bound),
            None => {
                // Optimality needs a genuinely exhausted tree: an empty
                // heap after a limits break (e.g. the root was popped and
                // the deadline fired before its children were pushed)
                // proves nothing, and without a solved root relaxation
                // nothing bounds the optimum — a warm-start incumbent
                // under a ~zero deadline is Feasible, with an infinite gap.
                let exhausted =
                    self.heap.into_inner().expect("heap lock").is_empty() && !limits_hit;
                let saw_root = self.saw_root.into_inner();
                let bound = if !saw_root {
                    if self.maximize {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    }
                } else if exhausted {
                    objective
                } else {
                    f64::from_bits(self.bound.into_inner())
                };
                let closed =
                    saw_root && relative_gap(objective, bound) <= self.config.gap_tolerance;
                let status = if exhausted || closed {
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Feasible
                };
                (status, bound)
            }
        };
        let nodes_explored = self.nodes.into_inner();
        let gap = relative_gap(objective, best_bound);
        self.config.obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: objective,
                best_bound,
                relative_gap: gap,
                nodes_explored: nodes_explored as u64,
            },
        );
        Ok(MilpSolution {
            status,
            objective,
            values,
            best_bound,
            gap,
            nodes_explored,
        })
    }
}

fn frac(x: f64) -> f64 {
    (x - x.round()).abs()
}

fn round_binaries(values: &[f64], binaries: &[VarId]) -> Vec<f64> {
    let mut out = values.to_vec();
    for &v in binaries {
        out[v.index()] = out[v.index()].round().clamp(0.0, 1.0);
    }
    out
}

/// The solver's relative-gap convention, reported as [`MilpSolution::gap`]
/// and in every `gap` solver event:
///
/// ```text
/// gap = |incumbent - best_bound| / max(1, |incumbent|)
/// ```
///
/// The `max(1, ·)` denominator keeps the gap well-defined for objectives
/// near zero (plain `|inc - bound| / |inc|` blows up there), at the cost of
/// behaving absolutely rather than relatively for `|incumbent| < 1`. This
/// matches the CPLEX/Gurobi "mipgap" style normalized on the incumbent,
/// *not* on the bound. A solution with `gap <= gap_tolerance` is reported
/// as [`MilpStatus::Optimal`]; anything larger terminates as
/// [`MilpStatus::Feasible`].
fn relative_gap(incumbent: f64, bound: f64) -> f64 {
    (incumbent - bound).abs() / incumbent.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_lp::{Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries) -> a + b = 16.
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 10.0);
        let b = lp.add_var("b", 0.0, 1.0, 6.0);
        let c = lp.add_var("c", 0.0, 1.0, 4.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Relation::Le, 2.0);
        let sol = MilpProblem::new(lp, vec![a, b, c])
            .solve(&MilpConfig::default())
            .unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        approx(sol.objective, 16.0);
        approx(sol.value(a), 1.0);
        approx(sol.value(b), 1.0);
        approx(sol.value(c), 0.0);
    }

    #[test]
    fn fractional_lp_integral_milp_differ() {
        // max a + b s.t. 2a + 2b <= 3: LP gives 1.5, MILP gives 1.
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 1.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 2.0), (b, 2.0)], Relation::Le, 3.0);
        let milp = MilpProblem::new(lp.clone(), vec![a, b]);
        let relax = lp.solve().unwrap();
        approx(relax.objective, 1.5);
        let sol = milp.solve(&MilpConfig::default()).unwrap();
        approx(sol.objective, 1.0);
    }

    #[test]
    fn mixed_integer_with_continuous_variable() {
        // min t s.t. t >= 5x, t >= 3(1-x): best is x=0? t>=3 vs x=1 t>=5.
        let mut lp = Problem::new(Sense::Minimize);
        let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
        let x = lp.add_var("x", 0.0, 1.0, 0.0);
        lp.add_constraint(vec![(t, 1.0), (x, -5.0)], Relation::Ge, 0.0);
        lp.add_constraint(vec![(t, 1.0), (x, 3.0)], Relation::Ge, 3.0);
        let sol = MilpProblem::new(lp, vec![x])
            .solve(&MilpConfig::default())
            .unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        approx(sol.objective, 3.0);
        approx(sol.value(x), 0.0);
    }

    #[test]
    fn infeasible_milp() {
        let mut lp = Problem::new(Sense::Minimize);
        let a = lp.add_var("a", 0.0, 1.0, 1.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        assert_eq!(
            MilpProblem::new(lp, vec![a, b])
                .solve(&MilpConfig::default())
                .unwrap_err(),
            MilpError::Infeasible
        );
    }

    #[test]
    fn integrality_gap_branching() {
        // Equality forcing: 2a + 2b + 2c = 4 with costs 3,2,1 max -> a,b.
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 3.0);
        let b = lp.add_var("b", 0.0, 1.0, 2.0);
        let c = lp.add_var("c", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 2.0), (b, 2.0), (c, 2.0)], Relation::Eq, 4.0);
        let sol = MilpProblem::new(lp, vec![a, b, c])
            .solve(&MilpConfig::default())
            .unwrap();
        approx(sol.objective, 5.0);
    }

    #[test]
    fn warm_start_is_used() {
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 2.0);
        let b = lp.add_var("b", 0.0, 1.0, 3.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 1.0);
        let milp = MilpProblem::new(lp, vec![a, b]);
        let cfg = MilpConfig {
            warm_start: Some(vec![1.0, 0.0]),
            node_limit: 0, // no exploration allowed: answer must come from warm start
            ..MilpConfig::default()
        };
        let sol = milp.solve(&cfg).unwrap();
        approx(sol.objective, 2.0); // warm-start value, not the true optimum 3
    }

    #[test]
    fn no_solution_under_zero_budget() {
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 2.0)], Relation::Le, 1.0);
        let milp = MilpProblem::new(lp, vec![a]);
        let cfg = MilpConfig {
            node_limit: 0,
            ..MilpConfig::default()
        };
        assert_eq!(milp.solve(&cfg).unwrap_err(), MilpError::NoSolutionFound);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // The paper's non-overlap pattern: S_i >= C_j - M*d, S_j >= C_i - M*(1-d).
        // Two unit jobs on one machine: makespan 2, not 1.
        let m = 100.0;
        let mut lp = Problem::new(Sense::Minimize);
        let cmax = lp.add_var("cmax", 0.0, f64::INFINITY, 1.0);
        let s1 = lp.add_var("s1", 0.0, f64::INFINITY, 0.0);
        let s2 = lp.add_var("s2", 0.0, f64::INFINITY, 0.0);
        let d = lp.add_var("d", 0.0, 1.0, 0.0);
        // C_i = S_i + 1; Cmax >= S_i + 1.
        lp.add_constraint(vec![(cmax, 1.0), (s1, -1.0)], Relation::Ge, 1.0);
        lp.add_constraint(vec![(cmax, 1.0), (s2, -1.0)], Relation::Ge, 1.0);
        // S1 >= S2 + 1 - M*d ; S2 >= S1 + 1 - M*(1-d).
        lp.add_constraint(vec![(s1, 1.0), (s2, -1.0), (d, m)], Relation::Ge, 1.0);
        lp.add_constraint(vec![(s2, 1.0), (s1, -1.0), (d, -m)], Relation::Ge, 1.0 - m);
        let sol = MilpProblem::new(lp, vec![d])
            .solve(&MilpConfig::default())
            .unwrap();
        approx(sol.objective, 2.0);
    }

    #[test]
    fn binaries_bounds_clamped() {
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 10.0, 1.0); // sloppy bounds
        let milp = MilpProblem::new(lp, vec![a]);
        assert_eq!(milp.lp().var_bounds(a), (0.0, 1.0));
        let sol = milp.solve(&MilpConfig::default()).unwrap();
        approx(sol.objective, 1.0);
    }

    #[test]
    fn telemetry_records_nodes_and_gap_trajectory() {
        let mut lp = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (i + 1) as f64))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        lp.add_constraint(terms, Relation::Le, 7.0);
        let obs = Obs::enabled();
        let cfg = MilpConfig {
            obs: obs.clone(),
            ..MilpConfig::default()
        };
        let sol = MilpProblem::new(lp, vars).solve(&cfg).unwrap();
        assert_eq!(obs.counter("milp.nodes"), sol.nodes_explored as u64);
        assert!(obs.counter("milp.lp_pivots") > 0);
        let events = obs.solver_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, SolverEventKind::Incumbent { .. })));
        // The final gap event must agree with the returned solution.
        let last_gap = events
            .iter()
            .rev()
            .find_map(|e| match &e.kind {
                SolverEventKind::Gap {
                    incumbent,
                    best_bound,
                    relative_gap,
                    ..
                } => Some((*incumbent, *best_bound, *relative_gap)),
                _ => None,
            })
            .expect("at least one gap event");
        assert!((last_gap.0 - sol.objective).abs() < 1e-9);
        assert!((last_gap.1 - sol.best_bound).abs() < 1e-9);
        assert!((last_gap.2 - sol.gap).abs() < 1e-9);
        let span_names: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert!(span_names.contains(&"milp.solve".to_string()));
    }

    #[test]
    fn reports_gap_and_nodes() {
        let mut lp = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6)
            .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (i + 1) as f64))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        lp.add_constraint(terms, Relation::Le, 7.0);
        let sol = MilpProblem::new(lp, vars)
            .solve(&MilpConfig::default())
            .unwrap();
        assert!(sol.nodes_explored >= 1);
        assert!(sol.gap <= 1e-6);
        assert_eq!(sol.status, MilpStatus::Optimal);
        approx(sol.objective, 15.0); // pick the three largest: 6+5+4
    }

    /// A knapsack just big enough that B&B explores a real tree.
    fn branchy_problem() -> MilpProblem {
        let mut lp = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..8)
            .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (3 * i % 7 + 1) as f64))
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (2 * i % 5 + 1) as f64))
            .collect();
        lp.add_constraint(terms, Relation::Le, 9.0);
        MilpProblem::new(lp, vars)
    }

    #[test]
    fn checkpoint_resume_reproduces_the_solution() {
        let milp = branchy_problem();
        let cold = milp.solve(&MilpConfig::default()).unwrap();
        let ckpt = cold.checkpoint();
        approx(ckpt.objective, cold.objective);
        approx(ckpt.best_bound, cold.best_bound);
        let resumed = milp
            .solve(&MilpConfig::default().resume_from(&ckpt))
            .unwrap();
        assert_eq!(resumed.status, MilpStatus::Optimal);
        approx(resumed.objective, cold.objective);
        assert_eq!(resumed.values, cold.values);
        // The checkpointed incumbent prunes what the cold run had to
        // discover, so the resumed tree is never larger.
        assert!(resumed.nodes_explored <= cold.nodes_explored);
    }

    /// A wider knapsack (two rows) that produces a few hundred B&B nodes —
    /// enough for threads to genuinely overlap.
    fn branchy_problem_wide(n: usize) -> MilpProblem {
        let mut lp = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (3 * i % 7 + 1) as f64))
            .collect();
        let t1: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (2 * i % 5 + 1) as f64))
            .collect();
        lp.add_constraint(t1, Relation::Le, 1.3 * n as f64);
        let t2: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3 + 1) as f64))
            .collect();
        lp.add_constraint(t2, Relation::Le, 0.9 * n as f64);
        MilpProblem::new(lp, vars)
    }

    #[test]
    fn parallel_matches_serial_objective() {
        for n in [8, 10, 12, 14, 18] {
            let milp = branchy_problem_wide(n);
            let serial = milp.solve(&MilpConfig::default()).unwrap();
            for threads in [2, 3, 4] {
                let cfg = MilpConfig {
                    threads,
                    ..MilpConfig::default()
                };
                let par = milp.solve(&cfg).unwrap();
                assert_eq!(par.status, MilpStatus::Optimal, "n={n} threads={threads}");
                approx(par.objective, serial.objective);
                assert!(milp.is_integer_feasible(&par.values, 1e-6));
                assert!(par.gap <= cfg.gap_tolerance + 1e-12);
            }
        }
    }

    #[test]
    fn parallel_incumbent_stress() {
        // Hammer the shared-incumbent path: many short parallel solves with
        // more workers than cores, every one of which must still land on
        // the proven optimum. Races in the incumbent cell (lost updates,
        // pruning against a torn objective) show up as a wrong objective
        // or a non-Optimal status.
        let milp = branchy_problem_wide(10);
        let want = milp.solve(&MilpConfig::default()).unwrap().objective;
        for round in 0..20 {
            let cfg = MilpConfig {
                threads: 2 + round % 3, // 2..=4
                ..MilpConfig::default()
            };
            let sol = milp.solve(&cfg).unwrap();
            assert_eq!(sol.status, MilpStatus::Optimal, "round={round}");
            approx(sol.objective, want);
        }
    }

    #[test]
    fn parallel_warm_start_and_telemetry() {
        let milp = branchy_problem_wide(10);
        let serial = milp.solve(&MilpConfig::default()).unwrap();
        let obs = Obs::enabled();
        let cfg = MilpConfig {
            threads: 2,
            warm_start: Some(serial.values.clone()),
            obs: obs.clone(),
            ..MilpConfig::default()
        };
        let sol = milp.solve(&cfg).unwrap();
        approx(sol.objective, serial.objective);
        assert_eq!(obs.counter("milp.nodes"), sol.nodes_explored as u64);
        let span_names: Vec<String> = obs.spans().iter().map(|s| s.name.clone()).collect();
        assert!(span_names.contains(&"milp.solve".to_string()));
        assert!(span_names.contains(&"milp.worker".to_string()));
        assert!(obs
            .solver_events()
            .iter()
            .any(|e| matches!(e.kind, SolverEventKind::Incumbent { .. })));
    }

    #[test]
    fn parallel_infeasible_and_cancel() {
        let mut lp = Problem::new(Sense::Minimize);
        let a = lp.add_var("a", 0.0, 1.0, 1.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        let cfg = MilpConfig {
            threads: 3,
            ..MilpConfig::default()
        };
        assert_eq!(
            MilpProblem::new(lp, vec![a, b]).solve(&cfg).unwrap_err(),
            MilpError::Infeasible
        );

        let milp = branchy_problem_wide(12);
        let token = CancelToken::new();
        token.cancel();
        let cfg = MilpConfig {
            threads: 3,
            cancel: Some(token),
            ..MilpConfig::default()
        };
        assert_eq!(milp.solve(&cfg).unwrap_err(), MilpError::Cancelled);
    }

    #[test]
    fn parallel_zero_node_budget_reports_no_solution() {
        let milp = branchy_problem_wide(10);
        let cfg = MilpConfig {
            threads: 2,
            node_limit: 0,
            ..MilpConfig::default()
        };
        assert_eq!(milp.solve(&cfg).unwrap_err(), MilpError::NoSolutionFound);
    }

    #[test]
    fn parallel_node_limit_reports_a_valid_dual_bound() {
        // A threaded search stopped by a node limit reports the last dual
        // bound it computed. That bound must still cover the optimum, and
        // the status and gap must agree with it.
        let mut solved = 0;
        for n in [12, 14, 16] {
            let milp = branchy_problem_wide(n);
            let optimum = milp.solve(&MilpConfig::default()).unwrap().objective;
            for threads in [2, 3, 4] {
                for node_limit in [20, 40] {
                    let case = format!("n={n} threads={threads} node_limit={node_limit}");
                    let cfg = MilpConfig {
                        threads,
                        node_limit,
                        ..MilpConfig::default()
                    };
                    let sol = match milp.solve(&cfg) {
                        Ok(sol) => sol,
                        Err(MilpError::NoSolutionFound) => continue,
                        Err(e) => panic!("{case}: {e}"),
                    };
                    solved += 1;
                    assert!(milp.is_integer_feasible(&sol.values, 1e-6), "{case}");
                    // Maximization: the dual bound is an upper bound.
                    assert!(sol.best_bound >= optimum, "{case}: {sol:?}");
                    let gap = (sol.objective - sol.best_bound).abs() / sol.objective.abs().max(1.0);
                    assert_eq!(sol.gap.to_bits(), gap.to_bits(), "{case}");
                    if sol.status == MilpStatus::Optimal {
                        assert!(sol.gap <= cfg.gap_tolerance, "{case}: {sol:?}");
                    }
                }
            }
        }
        assert!(solved > 0, "every limited solve ended without an incumbent");
    }

    #[test]
    fn parallel_gap_check_covers_a_node_dropped_at_the_limit() {
        // Two workers driven by hand through the interleaving a node limit
        // allows: worker 0 explores the root, keeps one child in hand and
        // hits the limit before exploring it; worker 1 has already popped
        // the other child and runs its gap check after the stop. That check
        // must still count worker 0's dropped node, or it closes the gap on
        // the warm-start incumbent and reports it Optimal.
        let mut lp = Problem::new(Sense::Maximize);
        let a = lp.add_var("a", 0.0, 1.0, 1.0);
        let b = lp.add_var("b", 0.0, 1.0, 1.0);
        lp.add_constraint(vec![(a, 2.0), (b, 2.0)], Relation::Le, 3.0);
        let milp = MilpProblem::new(lp, vec![a, b]);
        let optimum = milp.solve(&MilpConfig::default()).unwrap().objective;
        approx(optimum, 1.0);
        let cfg = MilpConfig {
            threads: 2,
            node_limit: 1,
            warm_start: Some(vec![0.0, 0.0]),
            ..MilpConfig::default()
        };
        let search = Search::new(&milp, &cfg, 2);
        search.work(0);
        assert!(search.limits_hit.load(AtomicOrder::SeqCst));
        let popped = search.heap.lock().unwrap().pop();
        assert!(popped.is_some(), "the root's other child was not queued");

        assert!(!search.check_gap());
        assert!(search.bound() >= 1.5 - 1e-9, "bound {}", search.bound());
        assert_eq!(load_f64(&search.closing_bound), None);
        let sol = search.finish().unwrap();
        assert_eq!(sol.status, MilpStatus::Feasible, "{sol:?}");
        assert!(sol.best_bound >= optimum, "{sol:?}");
    }

    #[test]
    fn checkpoint_incumbent_survives_a_zero_budget_resume() {
        // Even with no exploration allowed, a resume must return at least
        // the checkpointed incumbent — a resumed job can never be worse
        // than the state it saved.
        let milp = branchy_problem();
        let cold = milp.solve(&MilpConfig::default()).unwrap();
        let cfg = MilpConfig {
            node_limit: 0,
            ..MilpConfig::default()
        }
        .resume_from(&cold.checkpoint());
        let resumed = milp.solve(&cfg).unwrap();
        approx(resumed.objective, cold.objective);
    }
}
