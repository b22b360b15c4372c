//! Chaos suite: the service under seeded storage faults and injected
//! panics. The invariants are the service's whole robustness story:
//!
//! 1. Every *admitted* job reaches exactly one terminal state — panics
//!    become typed `failed` records, crashed workers are respawned, and
//!    no job is ever lost or wedged.
//! 2. The control plane (`/healthz`, `/jobs`, `/metrics`) keeps
//!    answering `200` throughout, no matter what the data plane is
//!    surviving.
//! 3. A daemon restarted over a corrupted newest checkpoint quarantines
//!    the bad generation and resumes bit-identically from the newest
//!    *valid* one.
//!
//! Everything is seeded: a failure reproduces with
//! `cargo test -p pesto-serve --test chaos` (see EXPERIMENTS.md for the
//! recipe and the pinned seeds).

use pesto::graph::to_json;
use pesto::models::ModelSpec;
use pesto::{
    load_checkpoint, ChaosPlan, ChaosStorage, CheckpointConfig, FsStorage, Pesto, PestoConfig,
    Storage,
};
use pesto_serve::http::client_request;
use pesto_serve::{submit_raw, wait_terminal, Server, ServerConfig};
use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned chaos seed: the whole storage-fault sequence derives from it.
const CHAOS_SEED: u64 = 0xC4A05;

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pesto-chaos-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    fs::create_dir_all(&p).unwrap();
    p
}

fn small_graph_json() -> String {
    to_json(&ModelSpec::transformer(1, 2, 64).generate(4, 1))
}

fn body_with(graph_json: &str, knobs: &str) -> String {
    if knobs.is_empty() {
        format!("{{\"graph\":{graph_json}}}")
    } else {
        format!("{{\"graph\":{graph_json},{knobs}}}")
    }
}

fn get_json(addr: &str, path: &str) -> Value {
    let resp = client_request(addr, "GET", path, None, Duration::from_secs(10)).unwrap();
    assert_eq!(
        resp.status, 200,
        "GET {path} -> {}: {}",
        resp.status, resp.body
    );
    serde_json::from_str(&resp.body).unwrap()
}

/// The job mix: what gets submitted and what terminal state it must
/// reach if admitted.
struct MixEntry {
    knobs: String,
    expect_state: &'static str,
    expect_panicked: bool,
}

fn job_mix() -> Vec<MixEntry> {
    let mut mix = Vec::new();
    for i in 0..14u64 {
        let seed = 100 + i;
        let entry = match i % 4 {
            // A plain job: must complete despite the storage chaos
            // around it (the solve itself never touches storage).
            0 => MixEntry {
                knobs: format!("\"seed\":{seed},\"checkpoint_every\":0"),
                expect_state: "completed",
                expect_panicked: false,
            },
            // A solve that panics inside the worker's sandbox: a typed
            // terminal failure, the worker survives.
            1 => MixEntry {
                knobs: format!("\"seed\":{seed},\"checkpoint_every\":0,\"chaos\":\"panic-solve\""),
                expect_state: "failed",
                expect_panicked: true,
            },
            // A panic *outside* the sandbox: the worker thread dies, the
            // supervisor settles the orphan and respawns the slot.
            2 => MixEntry {
                knobs: format!("\"seed\":{seed},\"checkpoint_every\":0,\"chaos\":\"panic-worker\""),
                expect_state: "failed",
                expect_panicked: true,
            },
            // An impossible SLA: terminates degraded, never times out.
            _ => MixEntry {
                knobs: format!("\"seed\":{seed},\"checkpoint_every\":0,\"sla_ms\":1"),
                expect_state: "degraded",
                expect_panicked: false,
            },
        };
        mix.push(entry);
    }
    mix
}

#[test]
fn seeded_chaos_mix_never_loses_a_job_or_the_control_plane() {
    let data_dir = tmp_dir("mix");
    let chaos: Arc<ChaosStorage> = Arc::new(ChaosStorage::new(CHAOS_SEED, ChaosPlan::aggressive()));
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 64,
        data_dir: data_dir.clone(),
        // Plenty of respawns, tiny backoff: the chaos mix kills several
        // workers and the test should not spend its budget sleeping.
        worker_restart_budget: 32,
        worker_restart_backoff: Duration::from_millis(5),
        storage: chaos.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Control-plane prober: hammers /healthz, /jobs, and /metrics for
    // the whole run. Any non-200 is a failed invariant.
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let stop = stop.clone();
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut probes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for path in ["/healthz", "/jobs", "/metrics"] {
                    let resp =
                        client_request(&addr, "GET", path, None, Duration::from_secs(10)).unwrap();
                    assert_eq!(
                        resp.status, 200,
                        "control plane fell over: GET {path} -> {} ({})",
                        resp.status, resp.body
                    );
                }
                probes += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            probes
        })
    };

    // Submit the mix. Chaos can fail the durable spec write, which is a
    // 500 and the job is NOT admitted — that is correct behavior, so
    // only 202-accepted jobs join the settlement list.
    let graph = small_graph_json();
    let mut accepted: Vec<(String, MixEntry)> = Vec::new();
    let mut refused = 0usize;
    for entry in job_mix() {
        let resp = submit_raw(&addr, &body_with(&graph, &entry.knobs)).unwrap();
        match resp.status {
            202 => {
                let v: Value = serde_json::from_str(&resp.body).unwrap();
                let id = v.get("id").and_then(Value::as_str).unwrap().to_string();
                accepted.push((id, entry));
            }
            500 => refused += 1,
            other => panic!("unexpected submit status {other}: {}", resp.body),
        }
    }
    assert!(
        !accepted.is_empty(),
        "chaos refused every submission; lower the fault rates"
    );

    // Every admitted job settles in its expected terminal state.
    for (id, entry) in &accepted {
        let v = wait_terminal(&addr, id, Duration::from_secs(300))
            .unwrap_or_else(|e| panic!("job {id} never settled: {e}"));
        assert_eq!(
            v.get("state").and_then(Value::as_str),
            Some(entry.expect_state),
            "job {id} ({}) settled wrong: {v:?}",
            entry.knobs
        );
        assert_eq!(
            v.get("panicked").and_then(Value::as_bool).unwrap_or(false),
            entry.expect_panicked,
            "job {id} panicked flag wrong: {v:?}"
        );
    }

    // The supervisor respawned every crashed worker: all slots alive.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = get_json(&addr, "/healthz");
        if health.get("workers_alive").and_then(Value::as_u64) == Some(3) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "workers never came back: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    let probes = prober.join().expect("control-plane prober failed");
    assert!(probes > 0, "prober never probed");

    // Telemetry agrees with what actually happened.
    let health = get_json(&addr, "/healthz");
    let h = |key: &str| health.get(key).and_then(Value::as_u64).unwrap();
    let panicking_jobs = accepted.iter().filter(|(_, e)| e.expect_panicked).count() as u64;
    let worker_kills = accepted
        .iter()
        .filter(|(_, e)| e.knobs.contains("panic-worker"))
        .count() as u64;
    assert_eq!(h("panicked"), panicking_jobs);
    assert!(
        h("worker_restarts") >= worker_kills,
        "restarts {} < worker kills {worker_kills}",
        h("worker_restarts")
    );
    assert_eq!(h("jobs"), accepted.len() as u64);
    assert_eq!(h("submitted"), accepted.len() as u64);
    // The fault counter folds the injector's own count exactly, and the
    // aggressive plan over this many storage ops injects for certain.
    assert!(
        chaos.faults_injected() > 0,
        "no faults injected; refused={refused}"
    );
    assert_eq!(h("storage_faults_injected"), chaos.faults_injected());

    server.stop();
    let _ = fs::remove_dir_all(&data_dir);
}

// ---------------------------------------------------------------------
// Corruption of the newest checkpoint generation + daemon restart

// The returned child is always kill()+wait()ed by the caller; clippy
// cannot see reaping across the function boundary.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(data_dir: &Path) -> (std::process::Child, String) {
    let addr_file = data_dir.join("serve.addr");
    let _ = fs::remove_file(&addr_file);
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_pesto-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--workers",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = fs::read_to_string(&addr_file) {
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published its address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn restart_over_a_corrupt_newest_generation_quarantines_and_resumes_the_valid_one() {
    let data_dir = tmp_dir("corrupt-restart");
    let (mut child, addr) = spawn_daemon(&data_dir);

    // A job slow enough to survive until the kill, checkpointing often.
    let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
    let iterations = 120_000usize;
    let resp = submit_raw(
        &addr,
        &body_with(
            &to_json(&graph),
            &format!(
                "\"iterations\":{iterations},\"restarts\":2,\"checkpoint_every\":500,\"seed\":42"
            ),
        ),
    )
    .unwrap();
    assert_eq!(resp.status, 202, "submit failed: {}", resp.body);
    let v: Value = serde_json::from_str(&resp.body).unwrap();
    let id = v.get("id").and_then(Value::as_str).unwrap().to_string();

    let job_dir = data_dir.join(&id);
    let gen0 = job_dir.join("search.gen-0.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !gen0.exists() {
        assert!(Instant::now() < deadline, "no checkpoint before kill");
        std::thread::sleep(Duration::from_millis(5));
    }

    child.kill().unwrap();
    child.wait().unwrap();
    assert!(
        !job_dir.join("result.json").exists(),
        "job finished before the kill; raise `iterations` in this test"
    );

    // Freeze the good generation, then fabricate a *corrupt newer* one:
    // same bytes with the payload's last bit flipped, exactly what torn
    // storage hands the recovery scan. The walk-back must quarantine
    // gen-1 and resume gen-0.
    let snapshot = data_dir.join("snapshot-at-kill.ckpt.json");
    fs::copy(&gen0, &snapshot).unwrap();
    let frozen = load_checkpoint(&FsStorage, &snapshot).unwrap();
    assert!(frozen.hybrid.is_some(), "checkpoint has no search state");
    let mut corrupt = fs::read(&gen0).unwrap();
    *corrupt.last_mut().unwrap() ^= 0x01;
    fs::write(job_dir.join("search.gen-1.json"), &corrupt).unwrap();

    let (child2, addr2) = spawn_daemon(&data_dir);
    let v = wait_terminal(&addr2, &id, Duration::from_secs(300)).unwrap();
    let health = get_json(&addr2, "/healthz");
    let mut child2 = child2;
    child2.kill().unwrap();
    child2.wait().unwrap();

    assert_eq!(v.get("state").and_then(Value::as_str), Some("completed"));
    assert_eq!(v.get("resumed").and_then(Value::as_bool), Some(true));
    let daemon_makespan = v.get("makespan_us").and_then(Value::as_f64).unwrap();

    // The corrupt generation is evidence, not garbage: moved, not
    // deleted, and counted.
    assert!(
        job_dir
            .join("quarantine")
            .join("search.gen-1.json")
            .exists(),
        "corrupt generation was not quarantined"
    );
    assert!(
        !job_dir.join("search.gen-1.json").exists(),
        "corrupt generation still in the scan path"
    );
    assert!(
        health
            .get("checkpoints_quarantined")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "quarantine not counted: {health:?}"
    );

    let result: Value =
        serde_json::from_str(&fs::read_to_string(job_dir.join("result.json")).unwrap()).unwrap();
    let Some(Value::Seq(daemon_placement)) = result.get("placement").cloned() else {
        panic!("terminal record has no placement");
    };
    let daemon_placement: Vec<u64> = daemon_placement
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();

    // Bit-identity witness: resuming the frozen copy of the *valid*
    // generation in process must land exactly where the daemon did.
    let mut config = PestoConfig::fast();
    config.seed = 42;
    config.profiler_iterations = None;
    config.placer.hybrid.iterations = iterations;
    config.placer.hybrid.restarts = 2;
    config.checkpoint = Some(CheckpointConfig {
        path: snapshot.clone(),
        every_iters: 500,
        resume: true,
    });
    let reference = Pesto::new(config)
        .place(
            &graph,
            &pesto::graph::Cluster::homogeneous(2, 16 * 1024 * 1024 * 1024),
        )
        .unwrap();
    assert!(reference.resumed);
    let reference_placement: Vec<u64> = reference
        .plan
        .placement
        .as_slice()
        .iter()
        .map(|d| d.index() as u64)
        .collect();
    assert_eq!(daemon_placement, reference_placement, "placements diverged");
    assert!(
        (daemon_makespan - reference.makespan_us).abs() < 1e-9,
        "makespans diverged: daemon {daemon_makespan} vs reference {}",
        reference.makespan_us
    );

    let _ = fs::remove_dir_all(&data_dir);
}
