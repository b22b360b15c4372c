//! Regression tests for the parallel solver hot paths.
//!
//! Two contracts are pinned here, at the workspace level where both the
//! LP and MILP layers are visible together:
//!
//! * The parallel simplex kernels (pricing / ratio test / pivot) are
//!   **bit-identical** to the serial ones — same objective bits, same
//!   value bits, same pivot count — for any instance, forced on and off
//!   via [`pesto::lp::set_parallel_override`].
//! * `MilpConfig { threads: 1 }` runs the one branch-and-bound loop on
//!   the calling thread, node-for-node identical to the goldens below.
//!   `threads > 1` runs the same loop on more workers and must reach the
//!   same optimum.

use pesto::lp::{set_parallel_override, Problem, Relation, Sense, VarId};
use pesto::milp::{MilpConfig, MilpProblem, MilpStatus};
use proptest::prelude::*;
use std::sync::Once;

/// The LP kernel pool is process-global and sized once; every test in
/// this binary shares a 2-thread pool so the parallel kernels actually
/// engage (`rayon::current_num_threads() > 1` is part of their gate).
fn ensure_pool() {
    static POOL: Once = Once::new();
    POOL.call_once(|| {
        pesto::lp::configure_threads(2);
    });
}

/// Deterministic xorshift64* stream in `[0, 1)`.
fn rng_stream(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A dense, feasible, bounded random LP (positive costs and coefficients).
fn dense_lp(vars: usize, constraints: usize, seed: u64) -> Problem {
    let mut next = rng_stream(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut lp = Problem::new(Sense::Maximize);
    let ids: Vec<VarId> = (0..vars)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY, 1.0 + next()))
        .collect();
    for _ in 0..constraints {
        let terms: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 0.05 + next())).collect();
        let rhs = 0.3 * terms.iter().map(|(_, a)| a).sum::<f64>();
        lp.add_constraint(terms, Relation::Le, rhs);
    }
    lp
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel simplex kernels are bit-identical to serial — objective
    /// bits, value bits, and pivot count — on random dense instances.
    #[test]
    fn parallel_simplex_is_bit_identical_to_serial(
        seed in 0u64..4096,
        vars in 20usize..70,
        constraints in 10usize..40,
    ) {
        ensure_pool();
        let lp = dense_lp(vars, constraints, seed);

        set_parallel_override(Some(false));
        let serial = lp.solve();
        set_parallel_override(Some(true));
        let parallel = lp.solve();
        set_parallel_override(None);

        let serial = serial.expect("dense LP solves serially");
        let parallel = parallel.expect("dense LP solves in parallel");
        prop_assert_eq!(serial.objective.to_bits(), parallel.objective.to_bits());
        prop_assert_eq!(serial.pivots, parallel.pivots);
        prop_assert_eq!(serial.values.len(), parallel.values.len());
        for (a, b) in serial.values.iter().zip(&parallel.values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
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
    ensure_pool();
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
