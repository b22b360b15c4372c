//! Regression tests for the branch-and-bound thread contract, at the
//! workspace level through the `pesto` facade.
//!
//! * `MilpConfig { threads: 1 }` runs the one branch-and-bound loop on
//!   the calling thread, node-for-node identical to the goldens below.
//! * `threads > 1` runs the same loop on more workers and must reach the
//!   same optimum.
//!
//! The simplex underneath is serial, so no LP-level thread setting is
//! involved here.

use pesto::lp::{Problem, Relation, Sense, VarId};
use pesto::milp::{MilpConfig, MilpProblem, MilpStatus};

/// The branchy two-row knapsack family the MILP goldens are stated on.
fn branchy(n: usize) -> MilpProblem {
    let mut lp = Problem::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..n)
        .map(|i| lp.add_var(format!("v{i}"), 0.0, 1.0, (3 * i % 7 + 1) as f64))
        .collect();
    let t1: Vec<(VarId, f64)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (2 * i % 5 + 1) as f64))
        .collect();
    lp.add_constraint(t1, Relation::Le, 1.3 * n as f64);
    let t2: Vec<(VarId, f64)> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, (i % 3 + 1) as f64))
        .collect();
    lp.add_constraint(t2, Relation::Le, 0.9 * n as f64);
    MilpProblem::new(lp, vars)
}

/// `threads = 1` reproduces the captured serial goldens node for node:
/// same objective, same node count, same solution vector. Any drift here
/// means a change moved the deterministic contract path.
#[test]
fn threads_one_matches_serial_goldens_node_for_node() {
    let goldens: [(usize, f64, usize, &[f64]); 2] = [
        (
            10,
            22.0,
            7,
            &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        ),
        (
            14,
            33.0,
            87,
            &[
                1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0,
            ],
        ),
    ];
    for (n, objective, nodes, values) in goldens {
        let sol = branchy(n)
            .solve(&MilpConfig::default())
            .expect("branchy knapsack solves");
        assert_eq!(sol.status, MilpStatus::Optimal, "n={n}");
        assert_eq!(sol.objective, objective, "n={n}");
        assert_eq!(sol.nodes_explored, nodes, "n={n} node count drifted");
        assert_eq!(sol.values, values, "n={n} solution vector drifted");
    }
}

/// The concurrent branch-and-bound proves the same optimum the serial
/// search does (node order may differ; the objective may not).
#[test]
fn threaded_branch_and_bound_reaches_the_serial_optimum() {
    for n in [10, 14, 18] {
        let problem = branchy(n);
        let serial = problem.solve(&MilpConfig::default()).unwrap();
        for threads in [2, 3] {
            let par = problem
                .solve(&MilpConfig {
                    threads,
                    ..MilpConfig::default()
                })
                .unwrap();
            assert_eq!(par.status, MilpStatus::Optimal, "n={n} threads={threads}");
            assert!(
                (par.objective - serial.objective).abs() < 1e-9,
                "n={n} threads={threads}: {} vs {}",
                par.objective,
                serial.objective
            );
        }
    }
}
