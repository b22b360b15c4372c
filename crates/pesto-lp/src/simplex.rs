//! Two-phase primal simplex on a dense tableau.
//!
//! The implementation follows the textbook method:
//!
//! 1. shift every variable by its lower bound so all variables are `>= 0`,
//!    turning finite upper bounds into explicit `<=` rows;
//! 2. normalize rows to non-negative right-hand sides;
//! 3. phase 1 minimizes the sum of artificial variables to find a basic
//!    feasible solution (or prove infeasibility);
//! 4. phase 2 minimizes the (possibly negated, for maximization) original
//!    objective, detecting unboundedness in the ratio test.
//!
//! Dantzig pricing is used by default; after a long degenerate stretch the
//! solver switches to Bland's rule, which guarantees termination. The
//! switch is a one-way latch per simplex run: flipping back to Dantzig
//! mid-stall would discard the anti-cycling guarantee.

use crate::problem::{LpError, Problem, Relation, Sense, Solution};

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;
/// Consecutive non-improving pivots before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 64;

struct Row {
    coeffs: Vec<f64>, // dense over structural variables
    relation: Relation,
    rhs: f64,
}

pub(crate) fn solve(p: &Problem) -> Result<Solution, LpError> {
    let n = p.vars.len();

    // --- 1. Shift variables by lower bounds; materialize upper-bound rows.
    let lower: Vec<f64> = p.vars.iter().map(|v| v.lower).collect();
    let mut rows: Vec<Row> = Vec::with_capacity(p.constraints.len() + n);
    for c in &p.constraints {
        let mut coeffs = vec![0.0; n];
        let mut shift = 0.0;
        for &(v, a) in &c.terms {
            coeffs[v.index()] += a;
            shift += a * lower[v.index()];
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    for (j, v) in p.vars.iter().enumerate() {
        if v.upper.is_finite() {
            let span = v.upper - v.lower;
            if span.abs() < EPS {
                // Fixed variable: encoded as x'_j <= 0 (with x'_j >= 0).
                let mut coeffs = vec![0.0; n];
                coeffs[j] = 1.0;
                rows.push(Row {
                    coeffs,
                    relation: Relation::Le,
                    rhs: 0.0,
                });
            } else {
                let mut coeffs = vec![0.0; n];
                coeffs[j] = 1.0;
                rows.push(Row {
                    coeffs,
                    relation: Relation::Le,
                    rhs: span,
                });
            }
        }
    }

    // --- 2. Non-negative right-hand sides.
    for r in &mut rows {
        if r.rhs < 0.0 {
            for a in &mut r.coeffs {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.relation = match r.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    // --- Column layout: structural | slack/surplus | artificial.
    let m = rows.len();
    let mut n_slack = 0;
    let mut n_art = 0;
    for r in &rows {
        match r.relation {
            Relation::Le => n_slack += 1,
            Relation::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Eq => n_art += 1,
        }
    }
    let total = n + n_slack + n_art;
    let mut tableau: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    let mut is_artificial = vec![false; total];

    let mut slack_at = n;
    let mut art_at = n + n_slack;
    for r in &rows {
        let mut row = vec![0.0; total + 1];
        row[..n].copy_from_slice(&r.coeffs);
        row[total] = r.rhs;
        match r.relation {
            Relation::Le => {
                row[slack_at] = 1.0;
                basis.push(slack_at);
                slack_at += 1;
            }
            Relation::Ge => {
                row[slack_at] = -1.0; // surplus
                slack_at += 1;
                row[art_at] = 1.0;
                is_artificial[art_at] = true;
                basis.push(art_at);
                art_at += 1;
            }
            Relation::Eq => {
                row[art_at] = 1.0;
                is_artificial[art_at] = true;
                basis.push(art_at);
                art_at += 1;
            }
        }
        tableau.push(row);
    }

    // Simplex typically needs a small multiple of the row count; cap pivots
    // so a single degenerate relaxation cannot stall branch and bound.
    let iter_limit = (1000 + 10 * (m + total)).min(30_000);

    // --- 3. Phase 1.
    let mut pivots = 0u64;
    if n_art > 0 {
        let mut phase1_costs = vec![0.0; total];
        for (j, flag) in is_artificial.iter().enumerate() {
            if *flag {
                phase1_costs[j] = 1.0;
            }
        }
        let mut obj = build_objective(&phase1_costs, &tableau, &basis, total);
        pivots += run_simplex(
            &mut tableau,
            &mut obj,
            &mut basis,
            total,
            &|_| true,
            iter_limit,
        )?;
        let phase1_value = -obj[total];
        if phase1_value > 1e-6 {
            return Err(LpError::Infeasible);
        }
        drive_out_artificials(&mut tableau, &mut basis, &is_artificial, total);
    }

    // --- 4. Phase 2.
    let sign = match p.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut phase2_costs = vec![0.0; total];
    for (j, v) in p.vars.iter().enumerate() {
        phase2_costs[j] = sign * v.objective;
    }
    let mut obj = build_objective(&phase2_costs, &tableau, &basis, total);
    let allowed = |j: usize| !is_artificial[j];
    pivots += run_simplex(
        &mut tableau,
        &mut obj,
        &mut basis,
        total,
        &allowed,
        iter_limit,
    )?;

    // --- Extract.
    let mut values = lower;
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            values[b] += tableau[i][total].max(0.0);
        }
    }
    let objective = p.objective_value(&values);
    Ok(Solution {
        objective,
        values,
        pivots,
    })
}

/// Builds the reduced-cost row `d_j = c_j - c_B^T B^{-1} A_j` for the
/// current (already pivoted) tableau, with `d[total] = -z`.
fn build_objective(costs: &[f64], tableau: &[Vec<f64>], basis: &[usize], total: usize) -> Vec<f64> {
    let mut obj = vec![0.0; total + 1];
    obj[..total].copy_from_slice(costs);
    for (i, &b) in basis.iter().enumerate() {
        let cb = costs[b];
        if cb != 0.0 {
            for j in 0..=total {
                obj[j] -= cb * tableau[i][j];
            }
        }
    }
    obj
}

/// Runs simplex pivots until optimality, returning the pivot count.
/// `allowed` filters entering columns (used to keep artificials out in
/// phase 2).
fn run_simplex(
    tableau: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    total: usize,
    allowed: &dyn Fn(usize) -> bool,
    iter_limit: usize,
) -> Result<u64, LpError> {
    let mut degenerate_streak = 0usize;
    // One-way latch: once a degenerate stall switches the pivot rule to
    // Bland's, it stays on until this run terminates. (Resetting it on the
    // next improving pivot — the old behavior — could flip back to Dantzig
    // mid-stall and re-enter the very cycle Bland's rule exists to break.)
    let mut bland = false;
    let mut nonzeros = Vec::new();
    for done in 0..iter_limit {
        if !bland && degenerate_streak >= DEGENERATE_SWITCH {
            bland = true;
        }
        let Some(e) = choose_entering(obj, total, allowed, bland) else {
            return Ok(done as u64); // optimal
        };
        let Some((l, min_ratio)) = choose_leaving(tableau, basis, e, total) else {
            return Err(LpError::Unbounded);
        };
        if min_ratio < EPS {
            degenerate_streak += 1;
        } else {
            degenerate_streak = 0;
        }
        pivot(tableau, obj, basis, l, e, &mut nonzeros);
    }
    Err(LpError::IterationLimit)
}

/// Picks the entering column: Bland's rule takes the lowest-index
/// improving column; Dantzig takes the most negative reduced cost, ties
/// broken toward the lowest index.
fn choose_entering(
    obj: &[f64],
    total: usize,
    allowed: &dyn Fn(usize) -> bool,
    bland: bool,
) -> Option<usize> {
    if bland {
        return (0..total).find(|&j| allowed(j) && obj[j] < -EPS);
    }
    let mut entering = None;
    let mut best = -EPS;
    for (j, &dj) in obj.iter().take(total).enumerate() {
        if dj < best && allowed(j) {
            best = dj;
            entering = Some(j);
        }
    }
    entering
}

/// Ratio test for entering column `e`: returns the leaving row and the
/// **true** minimum ratio, or `None` when the column proves the LP
/// unbounded.
///
/// Two passes: pass 1 finds the exact minimum ratio; pass 2 picks, among
/// the rows whose ratio lies within `EPS` of that minimum, the one with
/// the lowest basis index (the Bland-style anti-cycling tie-break). A
/// single-pass `ratio < best + EPS` scan could accept a ratio up to `EPS`
/// *worse* than the incumbent, making the chosen row depend on scan order;
/// the two-pass form is scan-order free.
fn choose_leaving(
    tableau: &[Vec<f64>],
    basis: &[usize],
    e: usize,
    total: usize,
) -> Option<(usize, f64)> {
    let min_ratio = tableau
        .iter()
        .filter_map(|row| {
            let a = row[e];
            (a > PIVOT_EPS).then(|| row[total] / a)
        })
        .reduce(f64::min)?;
    let band = min_ratio + EPS;
    tableau
        .iter()
        .enumerate()
        .filter_map(|(i, row)| {
            let a = row[e];
            (a > PIVOT_EPS && row[total] / a <= band).then(|| (i, basis[i]))
        })
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
        .map(|(i, _)| (i, min_ratio))
}

/// Pivots the tableau on `(row, col)`, updating the objective row and basis.
///
/// Only the pivot row's nonzero entries are eliminated, gathered once into
/// `nonzeros` (a buffer the caller reuses across pivots); the pivot column
/// is set to zero outright. A skipped cell would have become `x - f·0`,
/// which is `x` itself unless `x` is a zero, so the tableau matches the
/// dense update bit for bit up to the sign of a zero cell, which no
/// comparison, ratio or extracted value observes.
fn pivot(
    tableau: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    nonzeros: &mut Vec<(usize, f64)>,
) {
    let pivot_row = &mut tableau[row];
    let piv = pivot_row[col];
    debug_assert!(piv.abs() > PIVOT_EPS * 0.1, "pivot too small: {piv}");
    let inv = 1.0 / piv;
    for a in pivot_row.iter_mut() {
        *a *= inv;
    }
    pivot_row[col] = 1.0; // kill round-off on the pivot itself
    nonzeros.clear();
    nonzeros.extend(
        pivot_row
            .iter()
            .enumerate()
            .filter(|&(j, &a)| j != col && a != 0.0)
            .map(|(j, &a)| (j, a)),
    );
    let eliminate = |r: &mut [f64]| {
        let factor = r[col];
        if factor.abs() > 0.0 {
            for &(j, a) in nonzeros.iter() {
                r[j] -= factor * a;
            }
            r[col] = 0.0;
        }
    };
    for (i, r) in tableau.iter_mut().enumerate() {
        if i != row {
            eliminate(r);
        }
    }
    eliminate(obj);
    basis[row] = col;
}

/// After phase 1, pivots basic artificial variables out of the basis where
/// possible; rows where no non-artificial pivot exists are redundant and
/// stay with a zero-valued artificial that phase 2 never lets re-enter.
fn drive_out_artificials(
    tableau: &mut [Vec<f64>],
    basis: &mut [usize],
    is_artificial: &[bool],
    total: usize,
) {
    let mut nonzeros = Vec::new();
    for i in 0..tableau.len() {
        if !is_artificial[basis[i]] {
            continue;
        }
        let col = (0..total).find(|&j| !is_artificial[j] && tableau[i][j].abs() > PIVOT_EPS);
        if let Some(c) = col {
            // A throwaway objective row: we only need the tableau pivoted.
            let mut dummy = vec![0.0; total + 1];
            pivot(tableau, &mut dummy, basis, i, c, &mut nonzeros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::DEGENERATE_SWITCH;
    use crate::problem::{LpError, Problem, Relation, Sense};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> z=36 at (2,6).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        approx(s.objective, 36.0);
        approx(s.value(x), 2.0);
        approx(s.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7, y=3, z=23.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 2.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 3.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        let s = p.solve().unwrap();
        approx(s.objective, 23.0);
        approx(s.value(x), 7.0);
        approx(s.value(y), 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1, z=3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = p.solve().unwrap();
        approx(s.value(x), 2.0);
        approx(s.value(y), 1.0);
        approx(s.objective, 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bounded_by_upper_bounds_only() {
        // max x + y with x,y in [0,5], no constraints -> 10.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0, 1.0);
        let y = p.add_var("y", 0.0, 5.0, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 10.0);
        approx(s.value(x), 5.0);
        approx(s.value(y), 5.0);
    }

    #[test]
    fn fixed_variable_via_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 3.0, 3.0, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let s = p.solve().unwrap();
        approx(s.value(x), 3.0);
        approx(s.value(y), 2.0);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -2 with x,y >= 0 means y >= x + 2; min y -> y=2 (x=0).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 0.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate corner: multiple constraints through origin.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = p.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = p.add_var("z", 0.0, f64::INFINITY, 0.02);
        let w = p.add_var("w", 0.0, f64::INFINITY, -6.0);
        p.add_constraint(
            vec![(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        approx(s.objective, 0.05); // Beale's cycling example optimum
    }

    #[test]
    fn duplicate_terms_are_summed() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        // 0.5x + 0.5x <= 3  ==  x <= 3
        p.add_constraint(vec![(x, 0.5), (x, 0.5)], Relation::Le, 3.0);
        let s = p.solve().unwrap();
        approx(s.objective, 3.0);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; min x -> x=0, y=2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        let s = p.solve().unwrap();
        approx(s.objective, 0.0);
        approx(s.value(y), 2.0);
    }

    #[test]
    fn bland_latch_survives_improving_pivots_on_degenerate_tableau() {
        // A heavily degenerate LP: many redundant constraints through one
        // vertex force long zero-ratio stalls. With the old behavior (the
        // degenerate-streak reset flipping Bland's rule back off after any
        // improving pivot) a stall could re-enter a Dantzig cycle; the
        // latched rule must terminate at the true optimum instead.
        let mut p = Problem::new(Sense::Maximize);
        let n = 8;
        let vars: Vec<_> = (0..n)
            .map(|i| {
                p.add_var(
                    format!("x{i}"),
                    0.0,
                    f64::INFINITY,
                    1.0 + (i as f64) * 0.001,
                )
            })
            .collect();
        // Redundant degenerate rows through the origin, in many guises.
        for k in 0..3 * DEGENERATE_SWITCH {
            let a = k % n;
            let b = (k + 1) % n;
            p.add_constraint(
                vec![(vars[a], 1.0), (vars[b], -1.0)],
                crate::problem::Relation::Le,
                0.0,
            );
        }
        // One binding row so the optimum is finite: sum x_i <= 1.
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(terms, crate::problem::Relation::Le, 1.0);
        let s = p.solve().unwrap();
        // x_a <= x_b cyclically for consecutive pairs forces all equal:
        // x_i = 1/n each, objective = sum of costs / n.
        let expect: f64 = (0..n).map(|i| 1.0 + (i as f64) * 0.001).sum::<f64>() / n as f64;
        assert!((s.objective - expect).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn ratio_test_takes_true_minimum_not_eps_worse_tiebreak() {
        // Directly exercise choose_leaving: two candidate rows whose
        // ratios differ by more than EPS must resolve to the true minimum
        // even though the worse row has a lower basis index; rows within
        // the EPS band tie-break toward the lower basis index.
        let total = 1usize; // column 0 is the entering column; col 1 = rhs
        let tableau = vec![
            vec![1.0, 5.0 + 3e-9], // ratio 5 + 3e-9: outside the band
            vec![1.0, 5.0],        // ratio 5: the true minimum
        ];
        let basis = vec![0, 1];
        let (row, ratio) = super::choose_leaving(&tableau, &basis, 0, total).unwrap();
        assert_eq!(row, 1, "must pick the true-minimum row");
        assert!((ratio - 5.0).abs() < 1e-12);

        // Within the EPS band the lower basis index wins regardless of
        // scan order.
        let tableau = vec![
            vec![1.0, 5.0],         // exact minimum, basis 7
            vec![1.0, 5.0 + 1e-10], // inside the band, basis 2
        ];
        let basis = vec![7, 2];
        let (row, _) = super::choose_leaving(&tableau, &basis, 0, total).unwrap();
        assert_eq!(row, 1, "band tie-break goes to the lowest basis index");
    }

    #[test]
    fn solution_is_always_feasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 1.0, 4.0, 2.0);
        let y = p.add_var("y", 0.0, 10.0, 1.0);
        let z = p.add_var("z", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 2.0), (z, 1.0)], Relation::Ge, 8.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 2.0);
        p.add_constraint(vec![(y, 1.0), (z, 1.0)], Relation::Eq, 5.0);
        let s = p.solve().unwrap();
        assert!(p.is_feasible(&s.values, 1e-6));
    }
}
