//! Profile-drift detection: deciding when observed per-op compute times
//! have departed far enough from the fitted profile to invalidate a plan.
//!
//! The paper's placement quality rests on the Figure 4(a) observation that
//! per-op compute times are tightly dispersed around their profiled mean,
//! with a normalized standard deviation that shrinks as ops grow:
//! `σ(t) ≈ 0.04 + 0.16·exp(−t/30)` (the same calibration
//! [`crate::Profiler`] uses to synthesize samples). Drift detection turns
//! that dispersion model into a *test*: an observation is ordinary
//! profiling noise if its relative deviation stays within a few σ of the
//! expectation, and evidence of real drift (contention, thermal
//! throttling, a changed kernel) beyond that.

use serde::{Deserialize, Serialize};

/// Expected normalized standard deviation of an op with profiled mean
/// `mean_us`, per the Figure 4(a) calibration: tiny ops are noisy
/// (σ → 0.2), large ops are stable (σ → 0.04).
pub fn expected_dispersion(mean_us: f64) -> f64 {
    0.04 + 0.16 * (-mean_us / 30.0).exp()
}

/// Drift-test knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftConfig {
    /// How many expected standard deviations an op's relative deviation
    /// must exceed to be flagged. 4σ keeps the false-positive rate of
    /// ordinary profiling noise negligible while catching the ~2×
    /// slowdowns that actually change placement decisions.
    pub sigma_multiple: f64,
    /// Ops with an expected time below this are never flagged: their
    /// dispersion model is unreliable and re-placing them cannot move the
    /// makespan.
    pub min_us: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            sigma_multiple: 4.0,
            min_us: 1.0,
        }
    }
}

/// Outcome of comparing observations against the profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    /// Indices (op order) of ops whose drift exceeded their threshold.
    pub drifted: Vec<usize>,
    /// Relative drift `|observed − expected| / expected` per op (0 where
    /// no observation was available).
    pub drift_frac: Vec<f64>,
    /// Largest relative drift seen across all tested ops.
    pub max_drift_frac: f64,
    /// The threshold the *most drifted* op was tested against (relative
    /// units); useful for telemetry.
    pub threshold_frac: f64,
    /// Number of ops that had both an expectation and an observation.
    pub tested: usize,
}

impl DriftReport {
    /// Whether any op drifted past its threshold.
    pub fn any(&self) -> bool {
        !self.drifted.is_empty()
    }
}

/// Compares observed per-op times against profiled expectations.
///
/// `expected_us[i]` is the profile's estimate for op `i` (≤ 0 means "not
/// profiled"); `observed_us[i]` is the measured time (`None` or ≤ 0 means
/// "no observation" — e.g. the op never ran in the measured window). Both
/// slices are indexed by op order; they may differ in length, in which
/// case the overlap is tested.
pub fn detect_drift(
    expected_us: &[f64],
    observed_us: &[Option<f64>],
    config: &DriftConfig,
) -> DriftReport {
    let n = expected_us.len();
    let mut drifted = Vec::new();
    let mut drift_frac = vec![0.0; n];
    let mut max_drift_frac: f64 = 0.0;
    let mut threshold_frac = 0.0;
    let mut tested = 0;
    for i in 0..n.min(observed_us.len()) {
        let expected = expected_us[i];
        let Some(observed) = observed_us[i].filter(|&o| o > 0.0) else {
            continue;
        };
        if expected < config.min_us {
            continue;
        }
        tested += 1;
        let frac = (observed - expected).abs() / expected;
        drift_frac[i] = frac;
        let threshold = config.sigma_multiple * expected_dispersion(expected);
        if frac > max_drift_frac {
            max_drift_frac = frac;
            threshold_frac = threshold;
        }
        if frac > threshold {
            drifted.push(i);
        }
    }
    DriftReport {
        drifted,
        drift_frac,
        max_drift_frac,
        threshold_frac,
        tested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispersion_shrinks_with_op_size() {
        assert!(expected_dispersion(1.0) > expected_dispersion(100.0));
        assert!((expected_dispersion(1e9) - 0.04).abs() < 1e-9);
        assert!(expected_dispersion(0.0) <= 0.2 + 1e-12);
    }

    #[test]
    fn noise_within_sigma_band_is_not_drift() {
        // A large op at +5% is within 4σ of its ~4% dispersion? 5% > 4·4%?
        // No: threshold is 16%, so 5% passes quietly.
        let expected = vec![500.0, 800.0];
        let observed = vec![Some(525.0), Some(790.0)];
        let report = detect_drift(&expected, &observed, &DriftConfig::default());
        assert!(!report.any());
        assert_eq!(report.tested, 2);
        assert!(report.max_drift_frac < 0.06);
    }

    #[test]
    fn doubling_a_large_op_is_flagged() {
        let expected = vec![500.0, 800.0, 200.0];
        let observed = vec![Some(1000.0), Some(805.0), Some(198.0)];
        let report = detect_drift(&expected, &observed, &DriftConfig::default());
        assert_eq!(report.drifted, vec![0]);
        assert!((report.max_drift_frac - 1.0).abs() < 1e-9);
        assert!(report.threshold_frac < report.max_drift_frac);
    }

    #[test]
    fn tiny_ops_tolerate_proportionally_more() {
        // A 2 µs op has dispersion ≈ 0.19; its 4σ threshold is ≈ 0.75, so
        // +50% is still "noise" — the same +50% on a 500 µs op is drift.
        let expected = vec![2.0, 500.0];
        let observed = vec![Some(3.0), Some(750.0)];
        let report = detect_drift(&expected, &observed, &DriftConfig::default());
        assert_eq!(report.drifted, vec![1]);
    }

    #[test]
    fn missing_observations_and_sub_floor_ops_are_skipped() {
        let expected = vec![0.5, 100.0, 300.0];
        let observed = vec![Some(50.0), None, Some(-1.0)];
        let report = detect_drift(&expected, &observed, &DriftConfig::default());
        assert!(!report.any());
        assert_eq!(report.tested, 0);
        // Length mismatch: only the overlap is tested.
        let short = detect_drift(&expected, &[Some(2.0)], &DriftConfig::default());
        assert_eq!(short.tested, 0); // op 0 is below min_us
    }

    #[test]
    fn sigma_multiple_tightens_the_test() {
        let expected = vec![500.0];
        let observed = vec![Some(550.0)]; // +10%
        let loose = DriftConfig::default();
        let tight = DriftConfig {
            sigma_multiple: 1.0,
            ..DriftConfig::default()
        };
        assert!(!detect_drift(&expected, &observed, &loose).any());
        assert!(detect_drift(&expected, &observed, &tight).any());
    }
}
