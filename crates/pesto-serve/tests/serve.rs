//! End-to-end tests of the placement service over real sockets: the
//! happy path, admission control, SLA degradation, mid-search
//! cancellation hygiene, and the SIGKILL-and-restart recovery protocol.

use pesto::graph::to_json;
use pesto::models::ModelSpec;
use pesto::{load_checkpoint, CheckpointConfig, FsStorage, Pesto, PestoConfig};
use pesto_serve::http::client_request;
use pesto_serve::{submit_raw, wait_terminal, Server, ServerConfig};
use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pesto-serve-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    fs::create_dir_all(&p).unwrap();
    p
}

fn test_server(name: &str, workers: usize, queue_capacity: usize) -> (Server, String, PathBuf) {
    let data_dir = tmp_dir(name);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        data_dir: data_dir.clone(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    (server, addr, data_dir)
}

fn small_graph_json() -> String {
    to_json(&ModelSpec::transformer(1, 2, 64).generate(4, 1))
}

/// A submit body around `graph`, with per-test knobs appended (already
/// JSON-encoded, e.g. `"iterations":400,"seed":7`).
fn body_with(graph_json: &str, knobs: &str) -> String {
    if knobs.is_empty() {
        format!("{{\"graph\":{graph_json}}}")
    } else {
        format!("{{\"graph\":{graph_json},{knobs}}}")
    }
}

fn submit_ok(addr: &str, body: &str) -> String {
    let resp = submit_raw(addr, body).unwrap();
    assert_eq!(
        resp.status, 202,
        "unexpected submit response: {}",
        resp.body
    );
    let v: Value = serde_json::from_str(&resp.body).unwrap();
    v.get("id").and_then(Value::as_str).unwrap().to_string()
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

fn wait_running(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = get_json(addr, &format!("/jobs/{id}"));
        let state = v.get("state").and_then(Value::as_str).unwrap().to_string();
        if state == "running" {
            return;
        }
        assert!(state == "queued", "job {id} reached {state} before running");
        assert!(Instant::now() < deadline, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_completes_and_streams_solver_events() {
    let (server, addr, _dir) = test_server("complete", 2, 16);

    let id = submit_ok(
        &addr,
        &body_with(&small_graph_json(), "\"seed\":7,\"checkpoint_every\":0"),
    );
    let v = wait_terminal(&addr, &id, Duration::from_secs(120)).unwrap();
    assert_eq!(v.get("state").and_then(Value::as_str), Some("completed"));
    assert!(v.get("makespan_us").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(v.get("attempts").and_then(Value::as_u64), Some(1));

    // The event stream paginates: a first read returns a cursor, and
    // reading from that cursor returns nothing new for a finished job.
    let next = v.get("events_next").and_then(Value::as_u64).unwrap();
    assert!(next > 0, "a completed search should have emitted events");
    let Some(Value::Seq(events)) = v.get("events").cloned() else {
        panic!("missing events array");
    };
    assert!(!events.is_empty());
    let v2 = get_json(&addr, &format!("/jobs/{id}?events_since={next}"));
    let Some(Value::Seq(tail)) = v2.get("events").cloned() else {
        panic!("missing events array");
    };
    assert!(tail.is_empty(), "cursor read re-delivered events");

    // The registry and health endpoints agree on the outcome.
    let list = get_json(&addr, "/jobs");
    assert!(serde_json::to_string(&list).unwrap().contains(&id));
    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("completed").and_then(Value::as_u64), Some(1));
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));

    server.stop();
}

#[test]
fn malformed_submissions_are_rejected_at_admission() {
    let (server, addr, _dir) = test_server("badsubmit", 1, 16);
    let resp = submit_raw(&addr, "{\"not\":\"a graph\"}").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("graph"));
    let resp = submit_raw(&addr, "not json at all").unwrap();
    assert_eq!(resp.status, 400);
    // Nothing was admitted.
    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("submitted").and_then(Value::as_u64), Some(0));
    server.stop();
}

#[test]
fn overload_is_a_typed_429_with_retry_after() {
    let (server, addr, _dir) = test_server("overload", 1, 1);
    let graph = small_graph_json();
    // Jobs long enough to still be running while we probe admission.
    let long = "\"iterations\":50000000,\"restarts\":1,\"checkpoint_every\":0";

    let a = submit_ok(&addr, &body_with(&graph, long));
    wait_running(&addr, &a); // the queue is empty again...
    let b = submit_ok(&addr, &body_with(&graph, long)); // ...now it is full
    let rejected = submit_raw(&addr, &body_with(&graph, long)).unwrap();
    assert_eq!(
        rejected.status, 429,
        "expected rejection: {}",
        rejected.body
    );
    let hint: u64 = rejected.header("retry-after").unwrap().parse().unwrap();
    assert!(hint >= 1);
    let v: Value = serde_json::from_str(&rejected.body).unwrap();
    assert!(v.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 100);

    // A rejected job with its own SLA gets a hint clamped to that budget:
    // the drain estimate is at least the 100ms floor, so a 30ms SLA
    // forces the clamp to be what comes back.
    let sla_knobs = format!("{long},\"sla_ms\":30");
    let rejected_sla = submit_raw(&addr, &body_with(&graph, &sla_knobs)).unwrap();
    assert_eq!(rejected_sla.status, 429);
    let v: Value = serde_json::from_str(&rejected_sla.body).unwrap();
    assert_eq!(v.get("retry_after_ms").and_then(Value::as_u64), Some(30));

    // Cancel both admitted jobs: the queued one settles immediately
    // without ever running, the running one stops cooperatively. The
    // queued job goes first: cancelled second, the worker freed by the
    // first cancel could pop it before its DELETE lands.
    for id in [&b, &a] {
        let resp = client_request(
            &addr,
            "DELETE",
            &format!("/jobs/{id}"),
            None,
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(resp.status == 202 || resp.status == 200);
    }
    let va = wait_terminal(&addr, &a, Duration::from_secs(60)).unwrap();
    assert_eq!(va.get("state").and_then(Value::as_str), Some("cancelled"));
    let vb = wait_terminal(&addr, &b, Duration::from_secs(60)).unwrap();
    assert_eq!(vb.get("state").and_then(Value::as_str), Some("cancelled"));
    assert_eq!(vb.get("attempts").and_then(Value::as_u64), Some(0));

    let health = get_json(&addr, "/healthz");
    assert_eq!(health.get("rejected").and_then(Value::as_u64), Some(2));
    assert_eq!(health.get("cancelled").and_then(Value::as_u64), Some(2));
    server.stop();
}

#[test]
fn sla_degrades_instead_of_timing_out() {
    let (server, addr, _dir) = test_server("sla", 1, 8);
    // A 1 ms SLA cannot fit any search: the job must still terminate,
    // with a plan from a cheaper rung and the reason recorded.
    let id = submit_ok(
        &addr,
        &body_with(&small_graph_json(), "\"sla_ms\":1,\"checkpoint_every\":0"),
    );
    let v = wait_terminal(&addr, &id, Duration::from_secs(120)).unwrap();
    assert_eq!(v.get("state").and_then(Value::as_str), Some("degraded"));
    let reason = v.get("degradation").and_then(Value::as_str).unwrap();
    assert!(
        [
            "budget_exhausted",
            "budget_too_small_for_search",
            "deadline_during_search"
        ]
        .contains(&reason),
        "unexpected degradation reason {reason}"
    );
    assert!(v.get("makespan_us").and_then(Value::as_f64).unwrap() > 0.0);
    server.stop();
}

#[test]
fn cancel_mid_search_stops_quickly_and_leaves_no_partial_checkpoint() {
    let (server, addr, data_dir) = test_server("cancel", 1, 8);
    // Long search with a tight checkpoint cadence: the first generation
    // file appearing proves we are mid-hybrid-search.
    let id = submit_ok(
        &addr,
        &body_with(
            &small_graph_json(),
            "\"iterations\":50000000,\"restarts\":1,\"checkpoint_every\":50,\"seed\":11",
        ),
    );
    let job_dir = data_dir.join(&id);
    let gen0 = job_dir.join("search.gen-0.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !gen0.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }

    let resp = client_request(
        &addr,
        "DELETE",
        &format!("/jobs/{id}"),
        None,
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(resp.status, 202);
    // Cancellation is polled every annealing iteration, so the stop is
    // prompt — well under one checkpoint cadence worth of work.
    let cancelled_at = Instant::now();
    let v = wait_terminal(&addr, &id, Duration::from_secs(30)).unwrap();
    assert_eq!(v.get("state").and_then(Value::as_str), Some("cancelled"));
    assert!(
        cancelled_at.elapsed() < Duration::from_secs(10),
        "cancel took {:?}",
        cancelled_at.elapsed()
    );

    // Hygiene: no checkpoint state survives a cancel — neither committed
    // generations nor temp litter. The spec and terminal record remain.
    let leftovers: Vec<String> = fs::read_dir(&job_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("search.gen-") || n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "partial checkpoints left: {leftovers:?}"
    );
    assert!(job_dir.join("spec.json").exists());
    assert!(job_dir.join("result.json").exists());
    server.stop();
}

// ---------------------------------------------------------------------
// SIGKILL and restart

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
fn sigkill_and_restart_resumes_the_checkpoint_bit_identically() {
    let data_dir = tmp_dir("sigkill");
    let (mut child, addr) = spawn_daemon(&data_dir);

    // A job slow enough to survive until the kill, checkpointing often.
    let graph = ModelSpec::transformer(1, 2, 64).generate(4, 1);
    let iterations = 120_000usize;
    let id = submit_ok(
        &addr,
        &body_with(
            &to_json(&graph),
            &format!(
                "\"iterations\":{iterations},\"restarts\":2,\"checkpoint_every\":500,\"seed\":42"
            ),
        ),
    );
    let gen0 = data_dir.join(&id).join("search.gen-0.json");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !gen0.exists() {
        assert!(Instant::now() < deadline, "no checkpoint before kill");
        std::thread::sleep(Duration::from_millis(5));
    }

    // SIGKILL: no destructors, no flush, exactly the crash being modeled.
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(
        !data_dir.join(&id).join("result.json").exists(),
        "job finished before the kill; raise `iterations` in this test"
    );

    // Freeze the snapshot the restarted daemon will resume from.
    let snapshot = data_dir.join("snapshot-at-kill.ckpt.json");
    fs::copy(&gen0, &snapshot).unwrap();
    let frozen = load_checkpoint(&FsStorage, &snapshot).unwrap();
    assert!(frozen.hybrid.is_some(), "checkpoint has no search state");

    // Restart on the same data dir: recovery must re-admit the job,
    // verify the checkpoint fingerprint, resume, and complete.
    let (child2, addr2) = spawn_daemon(&data_dir);
    let v = wait_terminal(&addr2, &id, Duration::from_secs(300)).unwrap();
    // Terminate the daemon before asserting so a failure can't leak it.
    let mut child2 = child2;
    child2.kill().unwrap();
    child2.wait().unwrap();

    assert_eq!(v.get("state").and_then(Value::as_str), Some("completed"));
    assert_eq!(v.get("resumed").and_then(Value::as_bool), Some(true));
    let daemon_makespan = v.get("makespan_us").and_then(Value::as_f64).unwrap();

    let result: Value =
        serde_json::from_str(&fs::read_to_string(data_dir.join(&id).join("result.json")).unwrap())
            .unwrap();
    let Some(Value::Seq(daemon_placement)) = result.get("placement").cloned() else {
        panic!("terminal record has no placement");
    };
    let daemon_placement: Vec<u64> = daemon_placement
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();

    // Bit-identity witness: resuming the *same frozen snapshot* in
    // process, with the same config the daemon builds, must land on the
    // same incumbent the daemon reported.
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

// ---------------------------------------------------------------------
// Telemetry: /metrics and /debug/flight

/// Minimal Prometheus text-format reader: returns `name{labels} -> value`
/// for every sample line, and asserts the document structure (every
/// sample belongs to a family announced by `# HELP` + `# TYPE`).
fn parse_prometheus(text: &str) -> std::collections::HashMap<String, f64> {
    let mut typed = std::collections::HashSet::new();
    let mut helped = std::collections::HashSet::new();
    let mut samples = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap().to_string());
        } else if !line.is_empty() {
            let (key, value) = line.rsplit_once(' ').expect("sample line");
            let bare = key.split('{').next().unwrap();
            let family = bare
                .strip_suffix("_bucket")
                .or_else(|| bare.strip_suffix("_sum"))
                .or_else(|| bare.strip_suffix("_count"))
                .unwrap_or(bare);
            assert!(
                typed.contains(bare) || typed.contains(family),
                "sample {key} has no # TYPE line"
            );
            assert!(
                helped.contains(bare) || helped.contains(family),
                "sample {key} has no # HELP line"
            );
            samples.insert(key.to_string(), value.parse::<f64>().unwrap());
        }
    }
    samples
}

#[test]
fn metrics_agrees_with_healthz_and_flight_recorder_dumps() {
    let (server, addr, _dir) = test_server("metrics", 2, 16);
    let graph = small_graph_json();
    for seed in [3, 4] {
        let id = submit_ok(
            &addr,
            &body_with(&graph, &format!("\"seed\":{seed},\"checkpoint_every\":0")),
        );
        let v = wait_terminal(&addr, &id, Duration::from_secs(120)).unwrap();
        assert_eq!(v.get("state").and_then(Value::as_str), Some("completed"));
    }

    let health = get_json(&addr, "/healthz");
    let resp = client_request(&addr, "GET", "/metrics", None, Duration::from_secs(10)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let metrics = parse_prometheus(&resp.body);

    // Every job counter the health view reports must round-trip through
    // the exposition — same registry, same numbers.
    for (health_key, prom_key) in [
        ("submitted", "serve_jobs_submitted_total"),
        ("rejected", "serve_jobs_rejected_total"),
        ("completed", "serve_jobs_completed_total"),
        ("degraded", "serve_jobs_degraded_total"),
        ("failed", "serve_jobs_failed_total"),
        ("cancelled", "serve_jobs_cancelled_total"),
        ("retries", "serve_jobs_retries_total"),
        ("recovered", "serve_jobs_recovered_total"),
        ("profile_cache_hits", "serve_profile_cache_hits_total"),
        ("profile_cache_misses", "serve_profile_cache_misses_total"),
        (
            "pruned_generations",
            "serve_checkpoints_pruned_generations_total",
        ),
        ("pruned_tmp", "serve_checkpoints_pruned_tmp_total"),
        ("panicked", "serve_jobs_panicked_total"),
        ("worker_restarts", "serve_worker_restarts_total"),
        (
            "checkpoints_quarantined",
            "serve_checkpoints_quarantined_total",
        ),
        (
            "storage_faults_injected",
            "serve_storage_faults_injected_total",
        ),
        ("workers_alive", "serve_workers_alive"),
        ("queued", "serve_queue_depth"),
        ("jobs", "serve_jobs_total"),
        ("workers", "serve_workers"),
        ("queue_capacity", "serve_queue_capacity"),
        ("events_dropped", "serve_solver_events_dropped"),
    ] {
        let h = health.get(health_key).and_then(Value::as_u64).unwrap() as f64;
        assert_eq!(
            metrics.get(prom_key).copied(),
            Some(h),
            "{prom_key} disagrees with /healthz {health_key}"
        );
    }
    assert_eq!(metrics["serve_jobs_completed_total"], 2.0);
    // The latency histogram saw both terminal jobs.
    assert_eq!(metrics["serve_job_duration_ms_count"], 2.0);
    assert!(metrics["serve_job_duration_ms_bucket{le=\"+Inf\"}"] == 2.0);

    // The flight recorder carries the serve.job spans and the metric
    // snapshot the /metrics scrape just recorded.
    let flight = get_json(&addr, "/debug/flight");
    assert_eq!(flight.get("enabled").and_then(Value::as_bool), Some(true));
    let spans = serde_json::to_string(flight.get("recent_spans").unwrap()).unwrap();
    assert!(spans.contains("serve.job"), "no serve.job span in {spans}");
    let Some(Value::Seq(snaps)) = flight.get("metric_snapshots").cloned() else {
        panic!("missing metric_snapshots");
    };
    assert!(!snaps.is_empty(), "scrapes should leave flight snapshots");

    server.stop();
}
