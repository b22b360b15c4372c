//! The dense simplex kernel as it was before the pivot learned to skip the
//! zero entries of the pivot row, kept as the oracle for `simplex.rs`.
//!
//! `solve`, `build_objective`, `run_simplex`, `choose_entering`,
//! `choose_leaving`, `pivot` and `drive_out_artificials` are that version
//! verbatim, except for three `reach` calls that record, per thread, which
//! paths a solve took (phase 1, an artificial driven out of the basis, the
//! switch to Bland's rule); they touch no tableau value. The property below
//! checks that `Problem::solve` prints exactly what this copy prints, every
//! `f64` in its shortest round-trip form and errors included, on random
//! LPs and on scheduling LPs shaped like the Pesto ILP's relaxations.

use crate::problem::{LpError, Problem, Relation, Sense, Solution};
use std::cell::Cell;

const EPS: f64 = 1e-9;
const PIVOT_EPS: f64 = 1e-7;
/// Consecutive non-improving pivots before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 64;

/// Paths a solve on this thread has taken since the last [`take_reached`].
#[derive(Debug, Clone, Copy, Default)]
struct Reached {
    phase1: bool,
    drive_out: bool,
    bland: bool,
}

thread_local! {
    static REACHED: Cell<Reached> = Cell::new(Reached::default());
}

fn reach(mark: fn(&mut Reached)) {
    REACHED.with(|cell| {
        let mut reached = cell.get();
        mark(&mut reached);
        cell.set(reached);
    });
}

/// Returns and clears the paths taken on this thread.
fn take_reached() -> Reached {
    REACHED.with(|cell| cell.replace(Reached::default()))
}

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
        reach(|r| r.phase1 = true);
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
    for done in 0..iter_limit {
        if !bland && degenerate_streak >= DEGENERATE_SWITCH {
            bland = true;
            reach(|r| r.bland = true);
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
        pivot(tableau, obj, basis, l, e, total);
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
#[allow(clippy::needless_range_loop)] // indexed form mirrors the math
fn pivot(
    tableau: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
) {
    let piv = tableau[row][col];
    debug_assert!(piv.abs() > PIVOT_EPS * 0.1, "pivot too small: {piv}");
    let inv = 1.0 / piv;
    for j in 0..=total {
        tableau[row][j] *= inv;
    }
    tableau[row][col] = 1.0; // kill round-off on the pivot itself
    for i in 0..tableau.len() {
        if i == row {
            continue;
        }
        let factor = tableau[i][col];
        if factor.abs() > 0.0 {
            for j in 0..=total {
                tableau[i][j] -= factor * tableau[row][j];
            }
            tableau[i][col] = 0.0;
        }
    }
    let factor = obj[col];
    if factor.abs() > 0.0 {
        for j in 0..=total {
            obj[j] -= factor * tableau[row][j];
        }
        obj[col] = 0.0;
    }
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
    for i in 0..tableau.len() {
        if !is_artificial[basis[i]] {
            continue;
        }
        let col = (0..total).find(|&j| !is_artificial[j] && tableau[i][j].abs() > PIVOT_EPS);
        if let Some(c) = col {
            reach(|r| r.drive_out = true);
            // A throwaway objective row: we only need the tableau pivoted.
            let mut dummy = vec![0.0; total + 1];
            pivot(tableau, &mut dummy, basis, i, c, total);
        }
    }
}

mod tests {
    use super::{solve as reference, take_reached};
    use crate::problem::{LpError, Problem, Relation, Sense, VarId};
    use proptest::prelude::*;

    /// A splitmix64 stream.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn pick<T: Copy>(&mut self, options: &[T]) -> T {
            options[self.below(options.len())]
        }

        /// A magnitude from 1 up to 3e4, the scale of the ILP's `2H`;
        /// integral half the time.
        fn magnitude(&mut self) -> f64 {
            let scale = self.pick(&[4.0, 30.0, 1e3, 3e4]);
            let a = 1.0 + self.unit() * (scale - 1.0);
            if self.below(2) == 0 {
                a.round()
            } else {
                a
            }
        }

        fn signed(&mut self) -> f64 {
            let a = self.magnitude();
            if self.below(3) == 0 {
                -a
            } else {
                a
            }
        }
    }

    /// Which generator drew a case.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Family {
        Random,
        Degenerate,
        Schedule,
    }

    /// Random rows over random bounds. Most right-hand sides are set so a
    /// point inside the bounds satisfies the row; the rest are arbitrary,
    /// which makes some draws infeasible. Infinite upper bounds under a
    /// maximization make some unbounded. Some rows are duplicated.
    fn random_lp(d: &mut Draw) -> Problem {
        let sense = d.pick(&[Sense::Minimize, Sense::Maximize]);
        let mut p = Problem::new(sense);
        let n = 1 + d.below(10);
        let mut point = Vec::with_capacity(n);
        let vars: Vec<VarId> = (0..n)
            .map(|j| {
                let (lower, upper) = match d.below(5) {
                    0 => (d.pick(&[0.0, 1.0, 2.5, -3.0]), f64::INFINITY),
                    1 => (0.0, f64::INFINITY),
                    2 => {
                        let lower = d.pick(&[0.0, 1.0, -2.0]);
                        (lower, lower + d.pick(&[0.5, 4.0, 1e3]))
                    }
                    3 => (0.0, 1.0),
                    _ => {
                        let fixed = d.pick(&[0.0, 1.0]);
                        (fixed, fixed)
                    }
                };
                let span = if upper.is_finite() {
                    upper - lower
                } else {
                    10.0
                };
                point.push(lower + d.unit() * span);
                let cost = if d.below(4) == 0 { 0.0 } else { d.signed() };
                p.add_var(format!("x{j}"), lower, upper, cost)
            })
            .collect();
        let m = d.below(10);
        let mut rows = Vec::new();
        for _ in 0..m {
            let terms: Vec<(VarId, f64)> = if d.below(3) == 0 {
                vars.iter().map(|&v| (v, d.signed())).collect()
            } else {
                (0..1 + d.below(3))
                    .map(|_| (vars[d.below(n)], d.signed()))
                    .collect()
            };
            let relation = d.pick(&[Relation::Le, Relation::Ge, Relation::Eq]);
            let at_point: f64 = terms.iter().map(|&(v, a)| a * point[v.index()]).sum();
            let rhs = match (d.below(5), relation) {
                (0, _) => d.signed() * d.pick(&[0.0, 1.0, 10.0]),
                (_, Relation::Le) => at_point + d.unit() * d.pick(&[0.0, 1.0, 100.0]),
                (_, Relation::Ge) => at_point - d.unit() * d.pick(&[0.0, 1.0, 100.0]),
                (_, Relation::Eq) => at_point,
            };
            rows.push((terms, relation, rhs));
        }
        if !rows.is_empty() && d.below(4) == 0 {
            let copy = rows[d.below(rows.len())].clone();
            for _ in 0..1 + d.below(3) {
                rows.push(copy.clone());
            }
        }
        for (terms, relation, rhs) in rows {
            p.add_constraint(terms, relation, rhs);
        }
        p
    }

    /// A maximization over a chain `c·x_k - c·x_{k+1} <= 0` of 65 to 96
    /// variables (some links written as `>=` from the other side, some
    /// repeated) and one row bounding the sum. With costs falling along the
    /// chain, Dantzig's rule walks it one degenerate pivot per link before
    /// the sum row binds, which latches Bland's rule.
    fn degenerate_lp(d: &mut Draw) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let n = 65 + d.below(32);
        let vars: Vec<VarId> = (0..n)
            .map(|j| {
                let cost = 1.0 + 1e-3 * (n - j) as f64 + 1e-4 * d.unit();
                p.add_var(format!("x{j}"), 0.0, f64::INFINITY, cost)
            })
            .collect();
        for k in 0..n - 1 {
            let (a, b) = (vars[k], vars[k + 1]);
            let c = d.pick(&[1.0, 2.0, 3e4]);
            for _ in 0..1 + usize::from(d.below(8) == 0) {
                if d.below(4) == 0 {
                    p.add_constraint(vec![(b, c), (a, -c)], Relation::Ge, 0.0);
                } else {
                    p.add_constraint(vec![(a, c), (b, -c)], Relation::Le, 0.0);
                }
            }
        }
        let terms = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(terms, Relation::Le, d.magnitude());
        p
    }

    /// A 0-1 variable, fixed to 0 or 1 one time in three.
    fn binary(p: &mut Problem, d: &mut Draw, name: String) -> VarId {
        let (lower, upper) = match d.below(6) {
            0 => (0.0, 0.0),
            1 => (1.0, 1.0),
            _ => (0.0, 1.0),
        };
        p.add_var(name, lower, upper, 0.0)
    }

    /// A relaxation shaped like a node LP of the 2-GPU Pesto ILP: start
    /// times, one placement bit per op, a transfer indicator per edge with
    /// the XOR rows, `>=` precedence and `C_max` rows, and for each pair of
    /// ops without an edge a disjunction `δ` with `±H·δ` and `2H`-scaled
    /// gate terms per GPU. Some binaries are fixed to 0 or 1 as branching
    /// fixes them, and a balanced memory rule may make a draw infeasible.
    fn schedule_lp(d: &mut Draw) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let ops = 2 + d.below(5);
        let duration: Vec<f64> = (0..ops).map(|_| 1.0 + (3e3 * d.unit()).floor()).collect();
        let h: f64 = duration.iter().sum();
        let gate = 2.0 * h;
        let start: Vec<VarId> = (0..ops)
            .map(|i| p.add_var(format!("S{i}"), 0.0, f64::INFINITY, 0.0))
            .collect();
        let cmax = p.add_var("cmax", 0.0, f64::INFINITY, 1.0);
        let place: Vec<VarId> = (0..ops)
            .map(|i| binary(&mut p, d, format!("x{i}")))
            .collect();
        let mut edge = vec![vec![false; ops]; ops];
        for j in 1..ops {
            for i in 0..j {
                if d.below(3) != 0 {
                    continue;
                }
                edge[i][j] = true;
                let z = binary(&mut p, d, format!("z{i}_{j}"));
                let (xa, xb) = (place[i], place[j]);
                p.add_constraint(vec![(z, 1.0), (xa, -1.0), (xb, -1.0)], Relation::Le, 0.0);
                p.add_constraint(vec![(z, 1.0), (xa, -1.0), (xb, 1.0)], Relation::Ge, 0.0);
                p.add_constraint(vec![(z, 1.0), (xa, 1.0), (xb, -1.0)], Relation::Ge, 0.0);
                p.add_constraint(vec![(z, 1.0), (xa, 1.0), (xb, 1.0)], Relation::Le, 2.0);
                let transfer = 1.0 + (100.0 * d.unit()).floor();
                p.add_constraint(
                    vec![(start[j], 1.0), (start[i], -1.0), (z, -transfer)],
                    Relation::Ge,
                    duration[i],
                );
            }
        }
        for i in 0..ops {
            p.add_constraint(
                vec![(cmax, 1.0), (start[i], -1.0)],
                Relation::Ge,
                duration[i],
            );
        }
        for a in 0..ops {
            for b in a + 1..ops {
                if edge[a][b] {
                    continue;
                }
                let delta = binary(&mut p, d, format!("d{a}_{b}"));
                let (sa, sb) = (start[a], start[b]);
                // GPU 1's gate is (1 - x_a) + (1 - x_b), GPU 0's x_a + x_b.
                for (sign, constant) in [(-1.0, 2.0), (1.0, 0.0)] {
                    let gates = [(place[a], gate * sign), (place[b], gate * sign)];
                    let mut terms = vec![(sa, 1.0), (sb, -1.0), (delta, h)];
                    terms.extend(gates);
                    p.add_constraint(terms, Relation::Ge, duration[b] - gate * constant);
                    let mut terms = vec![(sb, 1.0), (sa, -1.0), (delta, -h)];
                    terms.extend(gates);
                    p.add_constraint(terms, Relation::Ge, duration[a] - h - gate * constant);
                }
            }
        }
        if d.below(2) == 0 {
            let terms: Vec<(VarId, f64)> = place
                .iter()
                .map(|&x| (x, 1.0 + (1e3 * d.unit()).floor()))
                .collect();
            let total: f64 = terms.iter().map(|&(_, m)| m).sum();
            p.add_constraint(terms.clone(), Relation::Le, 0.7 * total);
            p.add_constraint(terms, Relation::Ge, 0.3 * total);
        }
        p
    }

    fn draw_case(seed: u64) -> (Family, Problem) {
        let mut d = Draw(seed);
        match d.below(8) {
            0..=3 => (Family::Random, random_lp(&mut d)),
            4 => (Family::Degenerate, degenerate_lp(&mut d)),
            _ => (Family::Schedule, schedule_lp(&mut d)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn solve_prints_what_the_reference_prints(seed in any::<u64>()) {
            let (_, p) = draw_case(seed);
            prop_assert_eq!(format!("{:?}", p.solve()), format!("{:?}", reference(&p)));
        }
    }

    /// The draws reach what the property is about: phase 1, an artificial
    /// driven out of the basis after it, the switch to Bland's rule, an
    /// infeasible and an unbounded LP, and optimal scheduling LPs. Each of
    /// these seeds is also checked against the reference.
    #[test]
    fn draws_reach_every_path() {
        let (mut phase1, mut drive_out, mut bland) = (0, 0, 0);
        let (mut infeasible, mut unbounded, mut schedules) = (0, 0, 0);
        for seed in 0..400 {
            let (family, p) = draw_case(seed);
            take_reached();
            let want = reference(&p);
            let reached = take_reached();
            assert_eq!(
                format!("{:?}", p.solve()),
                format!("{want:?}"),
                "seed {seed}"
            );
            phase1 += usize::from(reached.phase1);
            drive_out += usize::from(reached.drive_out);
            bland += usize::from(reached.bland);
            infeasible += usize::from(want == Err(LpError::Infeasible));
            unbounded += usize::from(want == Err(LpError::Unbounded));
            schedules += usize::from(family == Family::Schedule && want.is_ok());
        }
        let counts = [phase1, drive_out, bland, infeasible, unbounded, schedules];
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}
