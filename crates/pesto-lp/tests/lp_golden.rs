//! Golden results of the simplex on large dense tableaus.
//!
//! Each case solves a fixed LP and pins the objective's bits, the pivot
//! count and an FNV-1a digest of every value's bits and the pivot count,
//! or the error variant. Every case has more than 512 pricing columns
//! and 64k tableau cells, and two have more than 512 rows. Together they
//! reach every exit: an optimum after phase 2 alone, an optimum after
//! phase 1 and the clean-up of leftover artificials, an infeasible
//! phase 1 and an unbounded ratio test; one case also switches to
//! Bland's rule. The table was recorded with the vendored rayon pool at
//! one and at two threads, when pricing, the ratio test and the pivot
//! still fanned out over the pool past those sizes; both runs gave the
//! same digests.

use pesto_lp::{Problem, Relation, Sense, VarId};

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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

/// A dense, feasible, bounded maximization over `<=` rows with positive
/// costs and coefficients; the origin is feasible, so only phase 2 runs.
fn dense_lp(vars: usize, constraints: usize, seed: u64) -> Problem {
    let mut next = rng_stream(seed);
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

/// A minimization over `>=` and `=` rows with finite bounds, some of them
/// shifted off zero and some fixed. The midpoint of the box satisfies
/// every row, so phase 1 succeeds. Two kinds of artificial are left basic
/// at zero for the clean-up pass: a duplicated equality row's, which has
/// no other column to pivot on and stays, and those of two rows whose
/// variables phase 1 never touches, which are pivoted out. One `<=` row
/// with a negative right-hand side is flipped into a `>=` row.
fn mixed_lp(seed: u64) -> Problem {
    let mut next = rng_stream(seed);
    let n = 150;
    let mut lp = Problem::new(Sense::Minimize);
    let mut mid = Vec::with_capacity(n);
    let ids: Vec<VarId> = (0..n)
        .map(|j| {
            let lower = if j % 5 == 0 { 1.0 } else { 0.0 };
            let upper = if j % 17 == 0 {
                lower
            } else {
                lower + 1.0 + (3.0 * next()).floor()
            };
            mid.push(0.5 * (lower + upper));
            lp.add_var(format!("x{j}"), lower, upper, next() * 3.0 - 1.0)
        })
        .collect();
    let at_mid =
        |terms: &[(VarId, f64)]| -> f64 { terms.iter().map(|&(v, a)| a * mid[v.index()]).sum() };
    let mut equalities = Vec::new();
    for r in 0..150 {
        let mut terms = Vec::new();
        for &v in &ids {
            if next() < 0.4 {
                terms.push((v, 0.1 + next()));
            }
        }
        let rhs = at_mid(&terms);
        if r % 5 == 0 {
            lp.add_constraint(terms.clone(), Relation::Eq, rhs);
            equalities.push((terms, rhs));
        } else {
            lp.add_constraint(terms, Relation::Ge, 0.8 * rhs);
        }
    }
    let (terms, rhs) = equalities[3].clone();
    lp.add_constraint(terms, Relation::Eq, rhs);
    // Variables found only in `-z_a - z_b = 0`: phase 1 never prices them
    // in, so the row's artificial stays basic at zero until the clean-up
    // pivots it out on `z_a`. Their negative costs would let phase 2 grow
    // them, and the artificial with them, if it stayed.
    for k in 0..2 {
        let za = lp.add_var(format!("z{k}a"), 0.0, 4.0, -1.0);
        let zb = lp.add_var(format!("z{k}b"), 0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(za, -1.0), (zb, -1.0)], Relation::Eq, 0.0);
    }
    let all: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, -1.0)).collect();
    let floor = 0.9 * at_mid(&all);
    lp.add_constraint(all, Relation::Le, floor);
    lp
}

/// Three cost classes and `x_a <= x_b` rows through the origin between
/// random pairs, under one binding row `sum x <= 1`: reduced costs tie
/// within a class, most ratios are zero, and a degenerate stall switches
/// pricing to Bland's rule.
fn degenerate_lp(vars: usize, constraints: usize, seed: u64) -> Problem {
    let mut next = rng_stream(seed);
    let mut lp = Problem::new(Sense::Maximize);
    let ids: Vec<VarId> = (0..vars)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY, 1.0 + (j % 3) as f64))
        .collect();
    let mut pick = || ids[(next() * vars as f64) as usize];
    for _ in 0..constraints {
        let (a, b) = (pick(), pick());
        if a != b {
            lp.add_constraint(vec![(a, 1.0), (b, -1.0)], Relation::Le, 0.0);
        }
    }
    let all: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(all, Relation::Le, 1.0);
    lp
}

/// Box-bounded variables whose `>=` rows ask for more than the box holds:
/// phase 1 ends with a positive sum of artificials.
fn infeasible_lp(seed: u64) -> Problem {
    let mut next = rng_stream(seed);
    let n = 300;
    let mut lp = Problem::new(Sense::Minimize);
    let ids: Vec<VarId> = (0..n)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, 1.0, next()))
        .collect();
    for _ in 0..60 {
        let terms: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 0.05 + next())).collect();
        let rhs = 0.6 * terms.iter().map(|(_, a)| a).sum::<f64>();
        lp.add_constraint(terms, Relation::Ge, rhs);
    }
    let all: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(all, Relation::Ge, n as f64 + 1.0);
    lp
}

/// [`dense_lp`] plus one variable with a positive cost and only
/// non-positive coefficients: once it prices in, its column has no
/// positive entry and the ratio test proves the LP unbounded.
fn unbounded_lp(seed: u64) -> Problem {
    let mut next = rng_stream(seed);
    let (n, m) = (300, 250);
    let mut lp = Problem::new(Sense::Maximize);
    let ids: Vec<VarId> = (0..n)
        .map(|j| lp.add_var(format!("x{j}"), 0.0, f64::INFINITY, 1.0 + next()))
        .collect();
    let ray = lp.add_var("ray", 0.0, f64::INFINITY, 0.5);
    for r in 0..m {
        let mut terms: Vec<(VarId, f64)> = ids.iter().map(|&v| (v, 0.05 + next())).collect();
        let rhs = 0.3 * terms.iter().map(|(_, a)| a).sum::<f64>();
        if r % 3 != 0 {
            terms.push((ray, -next()));
        }
        lp.add_constraint(terms, Relation::Le, rhs);
    }
    lp
}

/// The pinned outputs of one solve, printed as a row of the golden table.
fn row(label: &str, lp: &Problem) -> String {
    match lp.solve() {
        Ok(s) => {
            let bits = s.values.iter().flat_map(|v| v.to_bits().to_le_bytes());
            let digest = fnv(bits.chain(s.pivots.to_le_bytes()));
            format!(
                "(\"{label}\", \"{:#018x} {} {digest:#018x}\"),",
                s.objective.to_bits(),
                s.pivots
            )
        }
        Err(e) => format!("(\"{label}\", \"{e:?}\"),"),
    }
}

fn rows() -> Vec<String> {
    vec![
        row("dense420x280", &dense_lp(420, 280, 0x0005_e570)),
        row("tall40x560", &dense_lp(40, 560, 0x7a11)),
        row("mixed150", &mixed_lp(0x0003_19ed)),
        row("degenerate100x560", &degenerate_lp(100, 560, 0xde6e)),
        row("infeasible300", &infeasible_lp(0x1bad)),
        row("unbounded300x250", &unbounded_lp(0x00b0_0d1e)),
    ]
}

/// `(case, "objective bits, pivots, digest of value bits and pivots")`,
/// or `(case, "error variant")`.
const GOLDEN: &[(&str, &str)] = &[
    ("dense420x280", "0x406cdbeb96b7848a 1441 0xf83daad6a76646e2"),
    ("tall40x560", "0x4031c33567748db8 137 0x7202d734e8336610"),
    ("mixed150", "0x404461fa1a7f12ad 2338 0x7556cd64f99ce761"),
    (
        "degenerate100x560",
        "0x4008000000000000 85 0xf3e6391693b5434d",
    ),
    ("infeasible300", "Infeasible"),
    ("unbounded300x250", "Unbounded"),
];

#[test]
fn large_tableaus_match_the_goldens() {
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|(label, pinned)| format!("(\"{label}\", \"{pinned}\"),"))
        .collect();
    let got = rows();
    assert!(
        got == want,
        "golden table drifted; now:\n{}",
        got.join("\n")
    );
}
