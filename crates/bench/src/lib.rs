//! Experiment harness for the Pesto reproduction: strategy runners and
//! result recording shared by the `expfig` binary (which regenerates every
//! table and figure of the paper) and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pesto::baselines::{expert, m_etf, m_sct, m_topo};
use pesto::cost::CommModel;
use pesto::graph::{Cluster, FrozenGraph};
use pesto::models::ModelSpec;
use pesto::{evaluate_plan, Pesto, PestoConfig, StepOutcome};
use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Evaluation seed shared by all strategies (drives TensorFlow-default
/// random scheduling in the simulator).
pub const EVAL_SEED: u64 = 7;

/// One strategy's result on one model variant.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyResult {
    /// Strategy name (`expert`, `m_sct`, `pesto`, …).
    pub strategy: String,
    /// Per-step outcome.
    pub outcome: StepOutcome,
    /// Wall-clock placement time.
    pub placement_secs: f64,
}

impl StrategyResult {
    /// Per-step time in milliseconds, if the step completed.
    pub fn step_ms(&self) -> Option<f64> {
        self.outcome.makespan_us().map(|us| us / 1000.0)
    }

    /// Formats the outcome as `123.4` (ms) or `OOM`.
    pub fn display_ms(&self) -> String {
        match &self.outcome {
            StepOutcome::Ok { makespan_us } => format!("{:.1}", makespan_us / 1000.0),
            StepOutcome::Oom { .. } => "OOM".to_string(),
            StepOutcome::Failed { reason } => format!("FAILED({reason})"),
        }
    }
}

/// Full head-to-head row for one variant: Expert, the three Baechi
/// heuristics, and Pesto.
#[derive(Debug, Clone, Serialize)]
pub struct VariantRow {
    /// Variant label (e.g. `RNNLM-2-2048`).
    pub variant: String,
    /// Number of operations in the generated DAG.
    pub ops: usize,
    /// Results per strategy.
    pub results: Vec<StrategyResult>,
}

impl VariantRow {
    /// The named strategy's result.
    pub fn get(&self, strategy: &str) -> Option<&StrategyResult> {
        self.results.iter().find(|r| r.strategy == strategy)
    }

    /// Best completed Baechi heuristic (the paper always reports Baechi's
    /// best, which is mSCT in their experiments).
    pub fn best_baechi(&self) -> Option<&StrategyResult> {
        self.results
            .iter()
            .filter(|r| r.strategy.starts_with("m_"))
            .filter(|r| r.step_ms().is_some())
            .min_by(|a, b| a.step_ms().unwrap().total_cmp(&b.step_ms().unwrap()))
    }

    /// Pesto's % reduction vs the best completed alternative.
    pub fn pesto_reduction_pct(&self) -> Option<f64> {
        let pesto = self.get("pesto")?.step_ms()?;
        let best_alt = self
            .results
            .iter()
            .filter(|r| r.strategy != "pesto")
            .filter_map(StrategyResult::step_ms)
            .fold(f64::INFINITY, f64::min);
        if best_alt.is_finite() {
            Some((1.0 - pesto / best_alt) * 100.0)
        } else {
            None
        }
    }
}

/// Pesto pipeline configuration used by the harness; `quick` trades some
/// solution quality for a much smaller search budget.
pub fn pesto_config(quick: bool) -> PestoConfig {
    pesto_config_for(quick, usize::MAX)
}

/// Size-aware harness configuration: under `--quick`, small graphs (which
/// solve in seconds) keep a generous annealing budget while very large
/// graphs get a trimmed one, mirroring how a practitioner would spend a
/// fixed time budget.
pub fn pesto_config_for(quick: bool, ops: usize) -> PestoConfig {
    if quick {
        let (iterations, restarts) = if ops <= 6_000 { (4_000, 2) } else { (1_500, 1) };
        PestoConfig {
            coarsen_target: 800,
            placer: pesto::ilp::PlacerConfig {
                hybrid: pesto::ilp::HybridConfig {
                    iterations,
                    restarts,
                    ..pesto::ilp::HybridConfig::default()
                },
                ..pesto::ilp::PlacerConfig::default()
            },
            refinement_passes: 2,
            ..PestoConfig::default()
        }
    } else {
        PestoConfig::default()
    }
}

/// Runs the full head-to-head (Expert, mTOPO, mETF, mSCT, Pesto) on one
/// variant.
pub fn run_variant(
    spec: ModelSpec,
    cluster: &Cluster,
    comm: &CommModel,
    quick: bool,
) -> VariantRow {
    let graph = spec.generate(spec.paper_batch(), 1);
    let mut results = Vec::new();

    let mut timed = |name: &str, f: &mut dyn FnMut() -> StepOutcome| {
        let t0 = Instant::now();
        let outcome = f();
        results.push(StrategyResult {
            strategy: name.to_string(),
            outcome,
            placement_secs: t0.elapsed().as_secs_f64(),
        });
    };

    timed("expert", &mut || {
        evaluate_plan(&graph, cluster, comm, &expert(&graph, cluster), EVAL_SEED)
    });
    timed("m_topo", &mut || {
        evaluate_plan(&graph, cluster, comm, &m_topo(&graph, cluster), EVAL_SEED)
    });
    timed("m_etf", &mut || {
        evaluate_plan(
            &graph,
            cluster,
            comm,
            &m_etf(&graph, cluster, comm),
            EVAL_SEED,
        )
    });
    timed("m_sct", &mut || {
        evaluate_plan(
            &graph,
            cluster,
            comm,
            &m_sct(&graph, cluster, comm),
            EVAL_SEED,
        )
    });
    timed(
        "pesto",
        &mut || match Pesto::with_comm(*comm, pesto_config_for(quick, graph.op_count()))
            .place(&graph, cluster)
        {
            Ok(outcome) => evaluate_plan(&graph, cluster, comm, &outcome.plan, EVAL_SEED),
            Err(e) => StepOutcome::Failed {
                reason: e.to_string(),
            },
        },
    );

    VariantRow {
        variant: spec.label(),
        ops: graph.op_count(),
        results,
    }
}

/// Runs only Expert and Pesto on a pre-built graph with a given comm model
/// (the Figure 8 hardware sweeps).
pub fn expert_vs_pesto(
    graph: &FrozenGraph,
    cluster: &Cluster,
    comm: &CommModel,
    quick: bool,
) -> (StepOutcome, StepOutcome) {
    let e = evaluate_plan(graph, cluster, comm, &expert(graph, cluster), EVAL_SEED);
    let p = match Pesto::with_comm(*comm, pesto_config_for(quick, graph.op_count()))
        .place(graph, cluster)
    {
        Ok(outcome) => evaluate_plan(graph, cluster, comm, &outcome.plan, EVAL_SEED),
        Err(e) => StepOutcome::Failed {
            reason: e.to_string(),
        },
    };
    (e, p)
}

/// Measures Pesto's placement time (Table 2) on a spec, returning
/// `(placement_time, per-step outcome)`.
pub fn pesto_timed(
    spec: ModelSpec,
    cluster: &Cluster,
    comm: &CommModel,
    quick: bool,
) -> (Duration, StepOutcome) {
    let graph = spec.generate(spec.paper_batch(), 1);
    match Pesto::with_comm(*comm, pesto_config_for(quick, graph.op_count())).place(&graph, cluster)
    {
        Ok(outcome) => {
            let step = evaluate_plan(&graph, cluster, comm, &outcome.plan, EVAL_SEED);
            (outcome.placement_time, step)
        }
        Err(e) => (
            Duration::ZERO,
            StepOutcome::Failed {
                reason: e.to_string(),
            },
        ),
    }
}

/// Schema version of the `results/` record envelope, as `major.minor`.
/// Every record written by [`record_json`] is wrapped in
/// `{schema_version, name, data}`.
pub const RESULTS_SCHEMA_VERSION: &str = "1.0";

#[derive(Serialize)]
struct RecordEnvelope<'a, T: Serialize> {
    schema_version: &'a str,
    name: &'a str,
    data: &'a T,
}

/// Writes an experiment's JSON record under `results/`, wrapped in the
/// versioned envelope and written atomically (temp file + rename) so a
/// crash mid-experiment never leaves a torn record behind.
pub fn record_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        let envelope = RecordEnvelope {
            schema_version: RESULTS_SCHEMA_VERSION,
            name,
            data: value,
        };
        if let Ok(json) = serde_json::to_string_pretty(&envelope) {
            let tmp = dir.join(format!("{name}.json.tmp"));
            if fs::write(&tmp, json).is_ok() {
                let _ = fs::rename(&tmp, path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_row_helpers() {
        let row = VariantRow {
            variant: "X".into(),
            ops: 10,
            results: vec![
                StrategyResult {
                    strategy: "expert".into(),
                    outcome: StepOutcome::Ok {
                        makespan_us: 2000.0,
                    },
                    placement_secs: 0.0,
                },
                StrategyResult {
                    strategy: "m_sct".into(),
                    outcome: StepOutcome::Ok {
                        makespan_us: 1500.0,
                    },
                    placement_secs: 0.1,
                },
                StrategyResult {
                    strategy: "m_topo".into(),
                    outcome: StepOutcome::Oom { devices: vec![] },
                    placement_secs: 0.1,
                },
                StrategyResult {
                    strategy: "pesto".into(),
                    outcome: StepOutcome::Ok {
                        makespan_us: 1200.0,
                    },
                    placement_secs: 1.0,
                },
            ],
        };
        assert_eq!(row.best_baechi().unwrap().strategy, "m_sct");
        let red = row.pesto_reduction_pct().unwrap();
        assert!((red - 20.0).abs() < 1e-9);
        assert_eq!(row.get("m_topo").unwrap().display_ms(), "OOM");
    }

    #[test]
    fn quick_head_to_head_on_tiny_model() {
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let row = run_variant(ModelSpec::nasnet(3, 16), &cluster, &comm, true);
        assert_eq!(row.results.len(), 5);
        // Everything completes on a tiny model.
        for r in &row.results {
            assert!(r.step_ms().is_some(), "{}: {:?}", r.strategy, r.outcome);
        }
    }
}
