//! A self-contained dense linear-programming solver.
//!
//! The Pesto paper solves its placement/scheduling formulation with CPLEX
//! (§3.2.2). This reproduction has no external solver available, so this
//! crate provides the LP engine from scratch: a classic **two-phase primal
//! simplex** on a dense tableau, supporting
//!
//! * minimization and maximization objectives,
//! * `<=`, `>=`, and `=` constraints,
//! * per-variable lower/upper bounds (including unbounded above),
//! * infeasibility and unboundedness detection,
//! * Bland's anti-cycling rule as a fallback after degenerate stretches.
//!
//! The `pesto-milp` crate builds a 0-1 branch-and-bound solver on top of the
//! relaxations solved here.
//!
//! # Example
//!
//! ```
//! use pesto_lp::{Problem, Sense, Relation};
//!
//! # fn main() -> Result<(), pesto_lp::LpError> {
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 2.0);
//! p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = p.solve()?;
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x=4, y=0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;

pub use problem::{LpError, Problem, Relation, Sense, Solution, VarId};

/// Sizes the process-global rayon pool.
///
/// No solver reads this pool: the simplex is serial, and branch and bound
/// runs its workers on scoped threads (`pesto_milp::MilpConfig::threads`).
/// No code in this workspace calls it either. It stays for the benchmark
/// crate in `perfbench/`, which calls it and reports the pool size as
/// `lp_pool_threads`. It goes, together with this crate's `rayon`
/// dependency and `vendor/rayon/`, once the benchmark stops calling it.
///
/// The first caller wins, like rayon's `build_global`; re-asserting the
/// value already in effect also succeeds. Returns whether `n` is now the
/// active thread count. `n = 0` is ignored (returns `false`).
pub fn configure_threads(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .is_ok()
}
