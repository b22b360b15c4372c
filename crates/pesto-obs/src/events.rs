//! Solver-progress event stream.

/// One timestamped solver-progress event.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverEvent {
    /// Microseconds since the sink epoch.
    pub t_us: f64,
    /// Emitting component, e.g. `"milp"`, `"hybrid"`, `"pipeline"`.
    pub source: String,
    /// What happened.
    pub kind: SolverEventKind,
}

/// The payload of a [`SolverEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolverEventKind {
    /// A new incumbent (best feasible solution) was found.
    Incumbent {
        /// Objective value of the new incumbent.
        objective: f64,
    },
    /// A bound/gap sample from branch-and-bound.
    Gap {
        /// Current incumbent objective (`f64::INFINITY` before the first
        /// feasible solution).
        incumbent: f64,
        /// Best (lower) bound proven so far.
        best_bound: f64,
        /// `|incumbent - best_bound| / max(1, |incumbent|)` — the same
        /// convention as `MilpSolution::gap`.
        relative_gap: f64,
        /// Branch-and-bound nodes explored so far.
        nodes_explored: u64,
    },
    /// A progress sample from the simulated-annealing hybrid solver.
    Anneal {
        /// Restart index (each restart is an independent chain).
        restart: u64,
        /// Iteration within the restart.
        iteration: u64,
        /// Current annealing temperature.
        temperature: f64,
        /// Fraction of recently proposed moves that were accepted.
        accept_rate: f64,
        /// Best cost seen by this chain so far.
        best_cost: f64,
    },
    /// The pipeline degraded to a cheaper strategy under its time budget.
    Degradation {
        /// `Debug`-formatted `DegradationReason` variant name.
        reason: String,
        /// Deadline slack remaining when the degradation fired, in
        /// microseconds (0 when the budget was already exhausted).
        remaining_deadline_us: f64,
    },
}

impl SolverEventKind {
    /// Short machine-readable tag for exporters (`"incumbent"`, `"gap"`,
    /// `"anneal"`, `"degradation"`).
    pub fn tag(&self) -> &'static str {
        match self {
            SolverEventKind::Incumbent { .. } => "incumbent",
            SolverEventKind::Gap { .. } => "gap",
            SolverEventKind::Anneal { .. } => "anneal",
            SolverEventKind::Degradation { .. } => "degradation",
        }
    }
}
