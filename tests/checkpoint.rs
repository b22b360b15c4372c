//! Property tests for the crash-safe checkpoint format: a checkpoint
//! serialized to disk and loaded back must be bit-identical, and resuming
//! the hybrid search from the loaded state must land on exactly the plan
//! the uninterrupted run found — for any seed.

use pesto::cost::CommModel;
use pesto::graph::Cluster;
use pesto::ilp::{CheckpointSink, HybridConfig, HybridSearchState, HybridSolver};
use pesto::models::ModelSpec;
use pesto::{
    graph_fingerprint, load_checkpoint, save_checkpoint, CheckpointIncumbent, FsStorage,
    SearchCheckpoint,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn comm() -> CommModel {
    CommModel::default_v100()
}

fn ckpt_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pesto-ckpt-prop-{}-{tag}-{seed}.json",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// serialize → deserialize → resume reproduces the incumbent
    /// bit-identically, whatever the seed.
    #[test]
    fn file_round_trip_resumes_bit_identically(seed in 0u64..1024) {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let cluster = Cluster::two_gpus();
        let seen: Arc<Mutex<Vec<HybridSearchState>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let cfg = HybridConfig {
            seed,
            checkpoint_every: 40,
            checkpoint_sink: Some(CheckpointSink::new(move |s| {
                sink_seen.lock().unwrap().push(s.clone())
            })),
            ..HybridConfig::quick()
        };
        let full = HybridSolver::new(cfg).solve(&graph, &cluster, &comm()).unwrap();

        // A genuine mid-run snapshot: at least one chain still unfinished.
        let mid = {
            let states = seen.lock().unwrap();
            match states
                .iter()
                .find(|s| s.restarts.iter().any(|r| !r.finished))
            {
                Some(s) => s.clone(),
                // The whole search fit inside one cadence window; nothing
                // mid-run to snapshot for this seed.
                None => return Ok(()),
            }
        };

        let fingerprint = graph_fingerprint(&graph);
        let mut ckpt = SearchCheckpoint::new(fingerprint, seed);
        ckpt.hybrid = Some(mid);
        ckpt.incumbent = Some(CheckpointIncumbent {
            plan: full.plan.clone(),
            makespan_us: Some(full.makespan_us),
        });

        let path = ckpt_path("round-trip", seed);
        save_checkpoint(&FsStorage, &path, &ckpt).unwrap();
        let loaded = load_checkpoint(&FsStorage, &path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&loaded, &ckpt, "checkpoint must round-trip bit-identically");
        loaded.verify(fingerprint, seed).unwrap();

        // Resuming from the state that crossed a serialize/deserialize
        // boundary must match the uninterrupted run exactly.
        let resumed = HybridSolver::new(HybridConfig {
            seed,
            resume_from: Some(loaded.hybrid.unwrap()),
            ..HybridConfig::quick()
        })
        .solve(&graph, &cluster, &comm())
        .unwrap();
        prop_assert_eq!(
            &resumed.plan,
            &full.plan,
            "resume from disk diverged from the uninterrupted run"
        );
        prop_assert!((resumed.makespan_us - full.makespan_us).abs() < 1e-12);
    }

    /// The checkpoint refuses to resume a different job: any disagreement
    /// in graph fingerprint or seed is a typed error, never a silent
    /// cross-wiring of two searches.
    #[test]
    fn verify_rejects_any_other_job(seed in 0u64..1024, other in 0u64..1024) {
        let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let fingerprint = graph_fingerprint(&graph);
        let ckpt = SearchCheckpoint::new(fingerprint, seed);
        ckpt.verify(fingerprint, seed).unwrap();
        if other != seed {
            prop_assert!(ckpt.verify(fingerprint, other).is_err());
        }
        if other != fingerprint {
            prop_assert!(ckpt.verify(other, seed).is_err());
        }
    }
}
