//! Termination-behaviour tests for branch and bound: limits, gaps, and
//! status honesty under constrained budgets.

use pesto_lp::{Problem, Relation, Sense};
use pesto_milp::{MilpConfig, MilpError, MilpProblem, MilpStatus};
use pesto_obs::Obs;
use std::time::Duration;

/// A deliberately hard instance: equality-partition with near-symmetric
/// weights so pruning bites late.
fn hard_partition(n: usize) -> MilpProblem {
    let mut lp = Problem::new(Sense::Minimize);
    let t = lp.add_var("t", 0.0, f64::INFINITY, 1.0);
    let weights: Vec<f64> = (0..n).map(|i| 13.0 + ((i * 29) % 7) as f64).collect();
    let total: f64 = weights.iter().sum();
    let xs: Vec<_> = (0..n)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, 1.0, 0.0))
        .collect();
    let mut t1 = vec![(t, 1.0)];
    let mut t2 = vec![(t, 1.0)];
    for (j, &x) in xs.iter().enumerate() {
        t1.push((x, -weights[j]));
        t2.push((x, weights[j]));
    }
    lp.add_constraint(t1, Relation::Ge, 0.0);
    lp.add_constraint(t2, Relation::Ge, total);
    MilpProblem::new(lp, xs)
}

#[test]
fn node_limit_yields_feasible_with_gap() {
    let milp = hard_partition(16);
    let cfg = MilpConfig {
        node_limit: 50,
        gap_tolerance: 0.0,
        ..MilpConfig::default()
    };
    let sol = milp
        .solve(&cfg)
        .expect("diving finds an incumbent in 50 nodes");
    // 50 nodes cannot prove optimality on this instance; the status and
    // gap must say so honestly.
    if sol.status == MilpStatus::Feasible {
        assert!(sol.gap > 0.0, "feasible status must carry a positive gap");
        assert!(sol.nodes_explored <= 50);
    }
    assert!(milp.is_integer_feasible(&sol.values, 1e-6));
}

#[test]
fn tight_time_limit_is_respected() {
    let milp = hard_partition(18);
    let cfg = MilpConfig {
        time_limit: Duration::from_millis(200),
        gap_tolerance: 0.0,
        ..MilpConfig::default()
    };
    let start = std::time::Instant::now();
    let result = milp.solve(&cfg);
    // Generous overshoot bound: one node's LP beyond the deadline.
    assert!(start.elapsed() < Duration::from_secs(5));
    if let Ok(sol) = result {
        assert!(milp.is_integer_feasible(&sol.values, 1e-6));
    }
}

#[test]
fn gap_tolerance_stops_early_with_optimal_status() {
    let milp = hard_partition(14);
    let loose = MilpConfig {
        gap_tolerance: 0.25,
        ..MilpConfig::default()
    };
    let sol = milp.solve(&loose).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal, "within-gap counts as done");
    assert!(sol.gap <= 0.25 + 1e-9);
}

#[test]
fn warm_start_bound_prunes_search() {
    // Provide the optimum as warm start; the search should close quickly.
    let milp = hard_partition(12);
    let exact = milp.solve(&MilpConfig::default()).unwrap();
    let warm_cfg = MilpConfig {
        warm_start: Some(exact.values.clone()),
        ..MilpConfig::default()
    };
    let warm = milp.solve(&warm_cfg).unwrap();
    assert!((warm.objective - exact.objective).abs() < 1e-6);
    assert!(
        warm.nodes_explored <= exact.nodes_explored,
        "warm start must not enlarge the tree ({} vs {})",
        warm.nodes_explored,
        exact.nodes_explored
    );
}

#[test]
fn warm_start_under_zero_deadline_returns_feasible_incumbent() {
    // A deadline that has effectively already passed: the search may not
    // claim NoSolutionFound (the warm start IS a solution) nor Optimal (it
    // proved nothing). It must hand back the incumbent as Feasible.
    let milp = hard_partition(16);
    let exact = milp.solve(&MilpConfig::default()).unwrap();
    let cfg = MilpConfig {
        warm_start: Some(exact.values.clone()),
        time_limit: Duration::ZERO,
        gap_tolerance: 0.0,
        ..MilpConfig::default()
    };
    let sol = milp
        .solve(&cfg)
        .expect("warm start must survive a zero deadline");
    assert_eq!(sol.status, MilpStatus::Feasible);
    assert!((sol.objective - exact.objective).abs() < 1e-6);
    assert!(milp.is_integer_feasible(&sol.values, 1e-6));
}

/// A Klee–Minty cube of dimension 11, on which Dantzig pricing visits
/// all 2^11 vertices, plus one binary `b` with objective 1. The root LP
/// takes 2,048 pivots (2^11 − 1 on the cube, one for `b`), more than the
/// simplex's budget of 1,360 at this size. `x = 0, b = 0` is feasible, and
/// the optimum is 5^11 + 1.
fn klee_minty_with_binary() -> MilpProblem {
    let n = 11;
    let mut lp = Problem::new(Sense::Maximize);
    let xs: Vec<_> = (0..n)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY, 2f64.powi(n - 1 - j)))
        .collect();
    for i in 0..n {
        let mut terms: Vec<_> = (0..i)
            .map(|j| (xs[j as usize], 2f64.powi(i - j + 1)))
            .collect();
        terms.push((xs[i as usize], 1.0));
        lp.add_constraint(terms, Relation::Le, 5f64.powi(i + 1));
    }
    let b = lp.add_var("b", 0.0, 1.0, 1.0);
    MilpProblem::new(lp, vec![b])
}

#[test]
fn pivot_budget_at_the_root_is_a_limit_not_a_proof() {
    // A node LP that runs out of pivots proves nothing about its subtree:
    // the search stops as at any other limit and finds no solution, where
    // pruning the root would report the feasible model infeasible.
    let milp = klee_minty_with_binary();
    for threads in [1, 2] {
        let obs = Obs::enabled();
        let cfg = MilpConfig {
            threads,
            obs: obs.clone(),
            ..MilpConfig::default()
        };
        assert_eq!(
            milp.solve(&cfg).unwrap_err(),
            MilpError::NoSolutionFound,
            "threads={threads}"
        );
        assert_eq!(obs.counter("milp.prune.iteration_limit"), 1);
    }
}

#[test]
fn warm_start_under_an_exhausted_pivot_budget_is_feasible_not_optimal() {
    // The warm start survives as the incumbent, but the root was never
    // solved: 0 is far from the optimum 5^11 + 1 and must not be reported
    // as proven.
    let milp = klee_minty_with_binary();
    let cfg = MilpConfig {
        warm_start: Some(vec![0.0; 12]),
        ..MilpConfig::default()
    };
    let sol = milp
        .solve(&cfg)
        .expect("the warm start survives the pivot budget");
    assert_eq!(sol.status, MilpStatus::Feasible);
    assert_eq!(sol.objective, 0.0);
    assert!(milp.is_integer_feasible(&sol.values, 1e-6));
}

#[test]
fn infeasible_binary_program_diagnosed_quickly() {
    let mut lp = Problem::new(Sense::Minimize);
    let a = lp.add_var("a", 0.0, 1.0, 1.0);
    let b = lp.add_var("b", 0.0, 1.0, 1.0);
    lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
    let milp = MilpProblem::new(lp, vec![a, b]);
    assert_eq!(
        milp.solve(&MilpConfig::default()).unwrap_err(),
        MilpError::Infeasible
    );
}
