//! The placement service: admission control, a bounded worker pool,
//! durable job state, cooperative cancellation, retry with backoff, and
//! crash recovery.
//!
//! ## Durability layout
//!
//! Every admitted job owns a directory under the data dir:
//!
//! ```text
//! <data_dir>/<job_id>/spec.json          job spec, written at admission
//! <data_dir>/<job_id>/search.gen-<A>.json  checkpoint of attempt A
//! <data_dir>/<job_id>/result.json        terminal record, written once
//! ```
//!
//! `spec.json` without `result.json` means the job was in flight when
//! the daemon died: startup re-enqueues it, and attempt `A` (recovered
//! from the newest checkpoint generation) resumes from its own
//! checkpoint bit-identically. Checkpoint generations are pruned on
//! startup and after every terminal write ([`pesto::prune`]), so a
//! long-lived data dir cannot accumulate superseded state or orphaned
//! `*.tmp` files. All durable writes and checkpoint reads go through the
//! configured [`Storage`] so the chaos suite can inject disk faults;
//! corrupt checkpoint generations are quarantined and recovery falls
//! back to the newest *valid* one ([`pesto::latest_valid_generation`]).
//!
//! ## Failure domains
//!
//! A panicking solve is confined to its job: the worker runs each solve
//! inside `catch_unwind`, turning a panic into a terminal
//! `failed` record with `panicked: true`. If a worker thread dies anyway
//! (a panic outside the sandbox), the supervisor thread settles the
//! orphaned job and respawns the worker within a bounded restart budget.
//! Shared state lives behind poison-recovering locks
//! ([`pesto::obs::RobustMutex`]), so one panic can never wedge the
//! control plane.

use crate::http::{client_request, read_request, ClientResponse, Request, RequestError, Response};
use crate::job::{JobSpec, JobState, TerminalRecord};
use pesto::cost::Profiler;
use pesto::graph::{Cluster, FrozenGraph};
use pesto::ilp::splitmix64;
use pesto::obs::{wait_robust, Obs, RobustMutex};
use pesto::{
    generation_path, graph_fingerprint, latest_generation, latest_valid_generation, prune,
    CancelToken, CheckpointConfig, CheckpointError, Pesto, PestoConfig, PestoError, PruneReport,
    SearchCheckpoint, Storage,
};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests).
    pub addr: String,
    /// Placement worker threads (concurrent jobs).
    pub workers: usize,
    /// Admission bound: jobs allowed to *wait*. Submissions beyond it
    /// are rejected with `429` and a retry-after hint.
    pub queue_capacity: usize,
    /// Root of the durable per-job state.
    pub data_dir: PathBuf,
    /// Checkpoint generations kept per job after a terminal write.
    pub keep_generations: usize,
    /// GPUs of the service's placement cluster.
    pub gpus: usize,
    /// GPU memory, bytes, for the placement cluster.
    pub gpu_memory_bytes: u64,
    /// Per-job telemetry ring capacity ([`Obs::enabled_with_event_capacity`]).
    pub event_capacity: usize,
    /// First retry backoff; attempt `k` waits `base * 2^k` plus jitter.
    pub retry_base: Duration,
    /// Upper bound on a single backoff wait.
    pub retry_cap: Duration,
    /// Per-connection socket read/write timeout: a stalled client is cut
    /// off after this long instead of pinning a connection thread.
    pub read_timeout: Duration,
    /// How many times the supervisor will respawn each worker slot after
    /// a crash before declaring the slot dead.
    pub worker_restart_budget: u32,
    /// Base supervisor backoff before respawning a crashed worker;
    /// doubles per consecutive restart of the same slot (capped at 1 s).
    pub worker_restart_backoff: Duration,
    /// Durable-storage implementation for specs, terminal results, and
    /// checkpoint verification reads. Production keeps the default
    /// [`pesto::FsStorage`]; the chaos suite threads a seeded
    /// [`pesto::ChaosStorage`] through here.
    pub storage: Arc<dyn Storage>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 256,
            data_dir: PathBuf::from("pesto-serve-data"),
            keep_generations: 2,
            gpus: 2,
            gpu_memory_bytes: 16 * 1024 * 1024 * 1024,
            event_capacity: 4096,
            retry_base: Duration::from_millis(100),
            retry_cap: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            worker_restart_budget: 8,
            worker_restart_backoff: Duration::from_millis(25),
            storage: Arc::new(pesto::FsStorage),
        }
    }
}

/// In-memory view of one admitted job.
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    resumed: bool,
    degradation: Option<String>,
    makespan_us: Option<f64>,
    error: Option<String>,
    retryable: bool,
    submitted: Instant,
    duration_ms: Option<u64>,
    cancel: CancelToken,
    obs: Obs,
    panicked: bool,
}

/// Every monotonic counter the service maintains, pre-registered at
/// startup so `/metrics` always exposes the full family set (a scrape
/// before the first job must not look like a missing metric).
const SERVE_COUNTERS: &[&str] = &[
    "serve.jobs.submitted",
    "serve.jobs.rejected",
    "serve.jobs.completed",
    "serve.jobs.degraded",
    "serve.jobs.failed",
    "serve.jobs.cancelled",
    "serve.jobs.retries",
    "serve.jobs.recovered",
    "serve.profile_cache.hits",
    "serve.profile_cache.misses",
    "serve.checkpoints.pruned_generations",
    "serve.checkpoints.pruned_tmp",
    "serve.jobs.panicked",
    "serve.worker_restarts",
    "serve.checkpoints.quarantined",
    "serve.storage.faults_injected",
];

struct ServerState {
    config: ServerConfig,
    cluster: Cluster,
    jobs: RobustMutex<HashMap<String, JobEntry>>,
    queue: RobustMutex<VecDeque<String>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// The service-wide telemetry sink: every job counter, the latency
    /// histogram, point-in-time gauges, per-job `serve.job` spans, and
    /// the flight recorder. `/healthz` and `/metrics` both read this
    /// registry, so the two views cannot drift apart. (Per-job solver
    /// telemetry stays on each job's own `JobEntry::obs` ring.)
    obs: Obs,
    /// EWMA of terminal job duration, milliseconds (drives retry-after).
    /// Kept atomic because the update is a read-modify-write; mirrored
    /// into the `serve.avg_job_ms` gauge at every scrape.
    avg_job_ms: AtomicU64,
    /// `(graph fingerprint, seed, iterations)` → profiled graph, shared
    /// across jobs so concurrent submissions of the same model profile
    /// once.
    profile_cache: RobustMutex<HashMap<(u64, u64, usize), Arc<FrozenGraph>>>,
    /// One slot per worker: the id of the job that worker is currently
    /// running, if any. A worker registers the id before `run_job` and
    /// clears it after; if the thread dies mid-job, the supervisor reads
    /// the slot to settle the orphaned job.
    worker_slots: Vec<RobustMutex<Option<String>>>,
    /// Worker threads currently alive (spawned minus dead); exposed as
    /// the `serve.workers_alive` gauge.
    workers_alive: AtomicUsize,
    /// The storage fault total already folded into the
    /// `serve.storage.faults_injected` counter; each gauge refresh adds
    /// the delta so the counter stays monotonic.
    storage_faults_reported: AtomicU64,
}

/// A running service instance. Dropping it does *not* stop the daemon;
/// call [`Server::stop`] for an orderly shutdown (tests) or just
/// SIGKILL the process (the crash-recovery path owns that case).
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the service: recovers durable jobs from `data_dir`, spawns
    /// the worker pool, binds the listener, and begins accepting.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        fs::create_dir_all(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cluster = Cluster::homogeneous(config.gpus.max(1), config.gpu_memory_bytes);
        let obs = Obs::enabled_with_event_capacity(config.event_capacity);
        for name in SERVE_COUNTERS {
            obs.counter_add(name, 0);
        }
        obs.name_lane("serve-main");
        // Postmortem telemetry: a panic anywhere in the process dumps the
        // flight recorder next to the durable job state.
        obs.install_panic_hook(config.data_dir.join("flight.json"));
        let worker_count = config.workers.max(1);
        let state = Arc::new(ServerState {
            cluster,
            jobs: RobustMutex::new(HashMap::new()),
            queue: RobustMutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            obs,
            avg_job_ms: AtomicU64::new(0),
            profile_cache: RobustMutex::new(HashMap::new()),
            worker_slots: (0..worker_count).map(|_| RobustMutex::new(None)).collect(),
            workers_alive: AtomicUsize::new(0),
            storage_faults_reported: AtomicU64::new(0),
            config,
        });

        recover_jobs(&state)?;

        // The bound address is written into the data dir so an external
        // supervisor (or the kill/restart integration test) can find a
        // daemon started with port 0.
        fs::write(state.config.data_dir.join("serve.addr"), addr.to_string())?;

        let workers: Vec<JoinHandle<()>> =
            (0..worker_count).map(|i| spawn_worker(&state, i)).collect();

        let supervisor_state = Arc::clone(&state);
        let supervisor = thread::Builder::new()
            .name("pesto-serve-supervisor".to_string())
            .spawn(move || supervise_workers(&supervisor_state, workers))
            .expect("spawn supervisor");

        let accept_state = Arc::clone(&state);
        let accept_thread = thread::Builder::new()
            .name("pesto-serve-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_state))
            .expect("spawn acceptor");

        Ok(Server {
            state,
            addr,
            accept_thread: Some(accept_thread),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Orderly shutdown: stop accepting, let workers finish their
    /// current job, leave still-queued jobs durable on disk (they
    /// recover on the next start, exactly like a crash).
    pub fn stop(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.queue_cv.notify_all();
        // Unblock the acceptor with one throwaway connection.
        let _ = client_request(
            &self.addr.to_string(),
            "GET",
            "/healthz",
            None,
            Duration::from_millis(500),
        );
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The supervisor joins the live workers before exiting.
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------
// Worker supervision

fn spawn_worker(state: &Arc<ServerState>, slot: usize) -> JoinHandle<()> {
    state.workers_alive.fetch_add(1, Ordering::Relaxed);
    let state = Arc::clone(state);
    thread::Builder::new()
        .name(format!("pesto-serve-worker-{slot}"))
        .spawn(move || worker_loop(&state, slot))
        .expect("spawn worker")
}

/// The supervisor: watches each worker slot, and when a worker thread
/// dies outside an orderly shutdown, (1) settles the job the dead worker
/// was running — the slot registry says which — as a terminal
/// `failed`/`panicked` record, and (2) respawns the slot after a doubling
/// backoff, up to `worker_restart_budget` restarts per slot. A slot that
/// exhausts its budget stays dead (visible in the `workers_alive` gauge);
/// the rest of the pool keeps serving.
fn supervise_workers(state: &Arc<ServerState>, mut workers: Vec<JoinHandle<()>>) {
    let mut restarts = vec![0u32; workers.len()];
    let mut handles: Vec<Option<JoinHandle<()>>> = workers.drain(..).map(Some).collect();
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            for handle in handles.iter_mut().filter_map(Option::take) {
                let _ = handle.join();
                state.workers_alive.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
        for slot in 0..handles.len() {
            let finished = handles[slot].as_ref().is_some_and(|h| h.is_finished());
            if !finished {
                continue;
            }
            let handle = handles[slot].take().expect("checked above");
            let _ = handle.join();
            state.workers_alive.fetch_sub(1, Ordering::Relaxed);
            if state.shutdown.load(Ordering::Acquire) {
                continue; // orderly exit, not a crash
            }
            // Settle the orphan: the worker died mid-job, so the job
            // would otherwise stay "running" forever.
            let orphan = state.worker_slots[slot].lock().take();
            if let Some(id) = orphan {
                state.obs.counter_add("serve.jobs.panicked", 1);
                finalize(state, &id, JobState::Failed, |j| {
                    j.error = Some("worker thread panicked outside the solve sandbox".to_string());
                    j.retryable = false;
                    j.panicked = true;
                });
                write_terminal(state, &id, JobState::Failed, None);
            }
            if restarts[slot] >= state.config.worker_restart_budget {
                continue; // budget exhausted; slot stays dead
            }
            let backoff = state
                .config
                .worker_restart_backoff
                .saturating_mul(1u32 << restarts[slot].min(10))
                .min(Duration::from_secs(1));
            thread::sleep(backoff);
            restarts[slot] += 1;
            state.obs.counter_add("serve.worker_restarts", 1);
            handles[slot] = Some(spawn_worker(state, slot));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

// ---------------------------------------------------------------------
// Recovery

/// Scans the data dir: prunes stale checkpoint state, re-registers every
/// job with a durable spec, re-enqueues the unfinished ones. A finished
/// job (`result.json` present) is loaded read-only so `GET /jobs/:id`
/// keeps answering across restarts.
fn recover_jobs(state: &Arc<ServerState>) -> io::Result<()> {
    let mut recovered = Vec::new();
    for entry in fs::read_dir(&state.config.data_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let dir = entry.path();
        // Startup GC: superseded generations and orphaned *.tmp files
        // from a crash mid-rename.
        if let Ok(report) = prune(&*state.config.storage, &dir, state.config.keep_generations) {
            record_prune(&state.obs, &report);
        }
        let spec_path = dir.join("spec.json");
        let Ok(spec_bytes) = state.config.storage.read(&spec_path) else {
            continue;
        };
        let spec_text = String::from_utf8_lossy(&spec_bytes).into_owned();
        let Ok(spec) = serde_json::from_str::<JobSpec>(&spec_text) else {
            continue;
        };
        let id = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
            // Keep ids monotonic across restarts.
            let next = state.next_id.load(Ordering::Relaxed).max(n + 1);
            state.next_id.store(next, Ordering::Relaxed);
        }

        let mut entry_rec = JobEntry {
            spec,
            state: JobState::Queued,
            attempts: 0,
            resumed: false,
            degradation: None,
            makespan_us: None,
            error: None,
            retryable: false,
            submitted: Instant::now(),
            duration_ms: None,
            cancel: CancelToken::new(),
            obs: Obs::enabled_with_event_capacity(state.config.event_capacity),
            panicked: false,
        };

        if let Ok(result_bytes) = state.config.storage.read(&dir.join("result.json")) {
            let result_text = String::from_utf8_lossy(&result_bytes);
            if let Ok(rec) = serde_json::from_str::<TerminalRecord>(&result_text) {
                if let Some(s) = JobState::from_tag(&rec.state) {
                    entry_rec.state = s;
                    entry_rec.attempts = rec.attempts;
                    entry_rec.resumed = rec.resumed;
                    entry_rec.degradation = rec.degradation;
                    entry_rec.makespan_us = rec.makespan_us;
                    entry_rec.error = rec.error;
                    entry_rec.retryable = rec.retryable;
                    entry_rec.duration_ms = Some(rec.duration_ms);
                    entry_rec.panicked = rec.panicked;
                    state.jobs.lock().insert(id, entry_rec);
                    continue;
                }
            }
        }

        // Unfinished: this job was queued or mid-search when the daemon
        // died. Its checkpoint (if any) is re-verified against the spec
        // before the worker is allowed to warm-start from it.
        entry_rec.resumed = verify_checkpoint_with_fallback(&dir, &entry_rec.spec, state);
        state.obs.counter_add("serve.jobs.recovered", 1);
        state.jobs.lock().insert(id.clone(), entry_rec);
        recovered.push(id);
    }
    recovered.sort();
    let mut queue = state.queue.lock();
    queue.extend(recovered);
    drop(queue);
    state.queue_cv.notify_all();
    Ok(())
}

/// Finds the newest checkpoint generation that loads, passes its
/// checksum, and verifies against the fingerprint and per-attempt seed
/// the spec would produce. Generations that fail — torn, bit-flipped,
/// wrong job — are moved to the job's `quarantine/` subdirectory
/// (counted on `serve.checkpoints.quarantined`) and the walk falls back
/// to the next-older generation, so one corrupt file costs a few
/// checkpoint cadences of progress instead of the whole search state.
/// Returns whether any valid checkpoint is available to resume from.
fn verify_checkpoint_with_fallback(dir: &Path, spec: &JobSpec, state: &Arc<ServerState>) -> bool {
    let expected = match placement_graph(state, spec) {
        Ok(g) => graph_fingerprint(&g),
        Err(_) => return false,
    };
    let validate = |generation: u64, ckpt: &SearchCheckpoint| -> Result<(), CheckpointError> {
        ckpt.verify(expected, attempt_seed(spec, generation as u32))
    };
    let Ok(scan) = latest_valid_generation(&*state.config.storage, dir, "search", &validate) else {
        return false;
    };
    if !scan.quarantined.is_empty() {
        state.obs.counter_add(
            "serve.checkpoints.quarantined",
            scan.quarantined.len() as u64,
        );
    }
    scan.valid.is_some()
}

// ---------------------------------------------------------------------
// Accept / routing

fn accept_loop(listener: TcpListener, state: &Arc<ServerState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(state);
        // One short-lived thread per connection: requests are small and
        // close immediately, so the thread count tracks in-flight
        // requests, not total traffic.
        let _ = thread::Builder::new()
            .name("pesto-serve-conn".to_string())
            .spawn(move || handle_connection(stream, &state));
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let response = match read_request(&mut stream) {
        Ok(req) => route(&req, state),
        Err(RequestError::BodyTooLarge(n)) => Response::json(
            413,
            format!("{{\"error\":\"body of {n} bytes exceeds the limit\"}}"),
        ),
        Err(RequestError::Malformed(msg)) => {
            Response::json(400, format!("{{\"error\":{}}}", json_string(&msg)))
        }
        Err(RequestError::HeadTooLarge) => Response::json(
            431,
            "{\"error\":\"request head exceeds the 64 KiB limit\"}".to_string(),
        ),
        Err(RequestError::Io(_)) => return,
    };
    let _ = response.write_to(&mut stream);
}

fn route(req: &Request, state: &Arc<ServerState>) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/metrics") => metrics(state),
        ("GET", "/debug/flight") => debug_flight(state),
        ("POST", "/jobs") => submit(req, state),
        ("GET", "/jobs") => list_jobs(state),
        (method, path) => {
            if let Some(id) = path.strip_prefix("/jobs/") {
                match method {
                    "GET" => job_status(id, req, state),
                    "DELETE" => cancel_job(id, state),
                    _ => Response::json(405, "{\"error\":\"method not allowed\"}"),
                }
            } else {
                Response::json(404, "{\"error\":\"no such route\"}")
            }
        }
    }
}

/// Refreshes the point-in-time gauges shared by `/healthz` and
/// `/metrics` (queue depth, running/total jobs, static capacity facts,
/// the retry-after EWMA, and the solver-event drop count aggregated
/// across the server handle and every per-job ring), then returns
/// `(queued, running, total, dropped)`. Both endpoints call this before
/// rendering, so they always agree on the live numbers.
fn refresh_gauges(state: &Arc<ServerState>) -> (usize, usize, usize, u64) {
    let queued = state.queue.lock().len();
    let jobs = state.jobs.lock();
    let running = jobs
        .values()
        .filter(|j| j.state == JobState::Running)
        .count();
    let total = jobs.len();
    let dropped =
        state.obs.dropped_events() + jobs.values().map(|j| j.obs.dropped_events()).sum::<u64>();
    drop(jobs);
    let obs = &state.obs;
    obs.gauge_set("serve.queue_depth", queued as f64);
    obs.gauge_set("serve.jobs_running", running as f64);
    obs.gauge_set("serve.jobs_total", total as f64);
    obs.gauge_set("serve.workers", state.config.workers as f64);
    obs.gauge_set("serve.queue_capacity", state.config.queue_capacity as f64);
    obs.gauge_set(
        "serve.avg_job_ms",
        state.avg_job_ms.load(Ordering::Relaxed) as f64,
    );
    obs.gauge_set("serve.solver_events_dropped", dropped as f64);
    obs.gauge_set(
        "serve.workers_alive",
        state.workers_alive.load(Ordering::Relaxed) as f64,
    );
    // Fold newly injected storage faults (chaos builds only; 0 in
    // production) into the monotonic counter.
    let faults = state.config.storage.faults_injected();
    let reported = state
        .storage_faults_reported
        .swap(faults, Ordering::Relaxed);
    if faults > reported {
        obs.counter_add("serve.storage.faults_injected", faults - reported);
    }
    (queued, running, total, dropped)
}

/// Folds a [`PruneReport`] into the checkpoint-GC counters, so rotation
/// work (and tmp-file sweeps after crashes) is visible instead of silent.
fn record_prune(obs: &Obs, report: &PruneReport) {
    obs.counter_add(
        "serve.checkpoints.pruned_generations",
        report.removed_generations as u64,
    );
    obs.counter_add("serve.checkpoints.pruned_tmp", report.removed_tmp as u64);
}

fn healthz(state: &Arc<ServerState>) -> Response {
    let (queued, running, total, dropped) = refresh_gauges(state);
    let c = |name: &str| state.obs.counter(name);
    let body = format!(
        "{{\"status\":\"ok\",\"queued\":{queued},\"running\":{running},\"jobs\":{total},\
         \"workers\":{},\"queue_capacity\":{},\"submitted\":{},\"rejected\":{},\
         \"completed\":{},\"degraded\":{},\"failed\":{},\"cancelled\":{},\"retries\":{},\
         \"recovered\":{},\"profile_cache_hits\":{},\"profile_cache_misses\":{},\
         \"avg_job_ms\":{},\"events_dropped\":{dropped},\"pruned_generations\":{},\
         \"pruned_tmp\":{},\"panicked\":{},\"worker_restarts\":{},\
         \"workers_alive\":{},\"checkpoints_quarantined\":{},\
         \"storage_faults_injected\":{}}}",
        state.config.workers,
        state.config.queue_capacity,
        c("serve.jobs.submitted"),
        c("serve.jobs.rejected"),
        c("serve.jobs.completed"),
        c("serve.jobs.degraded"),
        c("serve.jobs.failed"),
        c("serve.jobs.cancelled"),
        c("serve.jobs.retries"),
        c("serve.jobs.recovered"),
        c("serve.profile_cache.hits"),
        c("serve.profile_cache.misses"),
        state.avg_job_ms.load(Ordering::Relaxed),
        c("serve.checkpoints.pruned_generations"),
        c("serve.checkpoints.pruned_tmp"),
        c("serve.jobs.panicked"),
        c("serve.worker_restarts"),
        state.workers_alive.load(Ordering::Relaxed),
        c("serve.checkpoints.quarantined"),
        c("serve.storage.faults_injected"),
    );
    Response::json(200, body)
}

/// Prometheus text-format exposition of the service registry. Reads the
/// same `Obs` registry as `/healthz` (after the same gauge refresh), so
/// scraped counters always match the health view. Each scrape also
/// records a flight-recorder metric snapshot, giving postmortem dumps a
/// scrape-rate metric history for free.
fn metrics(state: &Arc<ServerState>) -> Response {
    refresh_gauges(state);
    state.obs.record_flight_snapshot();
    Response::prometheus(200, state.obs.prometheus_text())
}

/// The flight recorder, on demand: recent `serve.job` spans, solver
/// events, the metric-snapshot ring, and current metric state.
fn debug_flight(state: &Arc<ServerState>) -> Response {
    refresh_gauges(state);
    state.obs.record_flight_snapshot();
    Response::json(200, state.obs.flight_dump())
}

fn submit(req: &Request, state: &Arc<ServerState>) -> Response {
    let body = String::from_utf8_lossy(&req.body);
    let spec = match JobSpec::from_request_json(&body) {
        Ok(s) => s,
        Err(msg) => return Response::json(400, format!("{{\"error\":{}}}", json_string(&msg))),
    };

    // Admission control: the queue is the only unbounded resource a
    // client could grow, so it is the thing we bound. Rejection is
    // typed — a 429 with both a Retry-After header (seconds) and a
    // machine-readable retry_after_ms — and the job leaves no state.
    {
        let queue = state.queue.lock();
        if queue.len() >= state.config.queue_capacity {
            let hint_ms = retry_after_hint_ms(state, queue.len(), spec.sla_ms);
            state.obs.counter_add("serve.jobs.rejected", 1);
            return Response::json(
                429,
                format!(
                    "{{\"error\":\"queue full\",\"queued\":{},\"retry_after_ms\":{hint_ms}}}",
                    queue.len()
                ),
            )
            .with_header("Retry-After", hint_ms.div_ceil(1000).max(1).to_string());
        }
    }

    let id = format!("job-{}", state.next_id.fetch_add(1, Ordering::Relaxed));
    let dir = state.config.data_dir.join(&id);
    let storage = &state.config.storage;
    if let Err(e) = storage.create_dir_all(&dir).and_then(|_| {
        let text = serde_json::to_string(&spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        storage.write_atomic(&dir.join("spec.json"), text.as_bytes())
    }) {
        // The job is NOT admitted: it has no registry entry, no queue
        // slot, and (at worst) a partial spec that recovery ignores. The
        // client owns the retry.
        return Response::json(
            500,
            format!(
                "{{\"error\":{}}}",
                json_string(&format!("cannot persist job spec: {e}"))
            ),
        );
    }

    let entry = JobEntry {
        spec,
        state: JobState::Queued,
        attempts: 0,
        resumed: false,
        degradation: None,
        makespan_us: None,
        error: None,
        retryable: false,
        submitted: Instant::now(),
        duration_ms: None,
        cancel: CancelToken::new(),
        obs: Obs::enabled_with_event_capacity(state.config.event_capacity),
        panicked: false,
    };
    state.jobs.lock().insert(id.clone(), entry);
    state.queue.lock().push_back(id.clone());
    state.queue_cv.notify_one();
    state.obs.counter_add("serve.jobs.submitted", 1);
    Response::json(
        202,
        format!("{{\"id\":{},\"state\":\"queued\"}}", json_string(&id)),
    )
}

/// How long a rejected client should wait: enough for the backlog ahead
/// of it to drain at the observed service rate, clamped to the job's own
/// SLA when it has one.
fn retry_after_hint_ms(state: &Arc<ServerState>, queue_len: usize, sla_ms: Option<u64>) -> u64 {
    retry_hint_from(
        state.avg_job_ms.load(Ordering::Relaxed),
        state.config.workers,
        queue_len,
        sla_ms,
    )
}

/// The pure hint computation behind [`retry_after_hint_ms`].
///
/// A client with a deadline cannot usefully wait longer than its own SLA:
/// a retry after that would blow the job's time budget the moment it was
/// admitted. Clamping the drain estimate to `sla_ms` keeps the hint
/// actionable — retry while the job can still meet its SLA, or give up
/// immediately — instead of reporting a backlog estimate the deadline
/// makes irrelevant.
fn retry_hint_from(avg_job_ms: u64, workers: usize, queue_len: usize, sla_ms: Option<u64>) -> u64 {
    let avg = avg_job_ms.max(50);
    let workers = workers.max(1) as u64;
    let drain = (avg * (queue_len as u64 + 1)).div_ceil(workers).max(100);
    match sla_ms {
        Some(sla) => drain.min(sla.max(1)),
        None => drain,
    }
}

fn list_jobs(state: &Arc<ServerState>) -> Response {
    let jobs = state.jobs.lock();
    let mut ids: Vec<&String> = jobs.keys().collect();
    ids.sort();
    let items: Vec<String> = ids
        .iter()
        .map(|id| {
            let j = &jobs[*id];
            format!(
                "{{\"id\":{},\"state\":\"{}\"}}",
                json_string(id),
                j.state.tag()
            )
        })
        .collect();
    Response::json(200, format!("{{\"jobs\":[{}]}}", items.join(",")))
}

fn job_status(id: &str, req: &Request, state: &Arc<ServerState>) -> Response {
    let events_since: u64 = req
        .query_value("events_since")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let (summary, obs) = {
        let jobs = state.jobs.lock();
        let Some(j) = jobs.get(id) else {
            return Response::json(404, "{\"error\":\"no such job\"}");
        };
        (job_summary_json(id, j), j.obs.clone())
    };
    let (next, events) = obs.solver_events_since(events_since);
    let dropped = obs.dropped_events();
    let mut body =
        format!("{{{summary},\"events_next\":{next},\"events_dropped\":{dropped},\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        e.write_json(&mut body);
    }
    body.push_str("]}");
    Response::json(200, body)
}

fn job_summary_json(id: &str, j: &JobEntry) -> String {
    let mut out = format!(
        "\"id\":{},\"state\":\"{}\",\"attempts\":{},\"resumed\":{}",
        json_string(id),
        j.state.tag(),
        j.attempts,
        j.resumed
    );
    if let Some(ms) = &j.makespan_us {
        out.push_str(&format!(",\"makespan_us\":{ms}"));
    }
    if let Some(d) = &j.degradation {
        out.push_str(&format!(",\"degradation\":{}", json_string(d)));
    }
    if let Some(e) = &j.error {
        out.push_str(&format!(
            ",\"error\":{},\"retryable\":{}",
            json_string(e),
            j.retryable
        ));
    }
    if j.panicked {
        out.push_str(",\"panicked\":true");
    }
    if let Some(ms) = j.duration_ms {
        out.push_str(&format!(",\"duration_ms\":{ms}"));
    }
    out
}

fn cancel_job(id: &str, state: &Arc<ServerState>) -> Response {
    let mut jobs = state.jobs.lock();
    let Some(j) = jobs.get_mut(id) else {
        return Response::json(404, "{\"error\":\"no such job\"}");
    };
    if j.state.is_terminal() {
        // Idempotent: cancelling a finished job reports its final state.
        return Response::json(
            200,
            format!(
                "{{\"id\":{},\"state\":\"{}\"}}",
                json_string(id),
                j.state.tag()
            ),
        );
    }
    j.cancel.cancel();
    let was_queued = j.state == JobState::Queued;
    drop(jobs);
    if was_queued {
        // Don't wait for a worker to pop it: settle queued jobs now so
        // the client sees a terminal state immediately, and drop the
        // queue entry lazily (the worker skips cancelled jobs).
        finalize(state, id, JobState::Cancelled, |_| {});
    }
    Response::json(
        202,
        format!("{{\"id\":{},\"state\":\"cancelling\"}}", json_string(id)),
    )
}

// ---------------------------------------------------------------------
// Workers

fn worker_loop(state: &Arc<ServerState>, slot: usize) {
    loop {
        let id = {
            let mut queue = state.queue.lock();
            loop {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = wait_robust(&state.queue_cv, queue);
            }
        };
        // Register the job on this worker's slot so the supervisor can
        // settle it if this thread dies mid-run.
        *state.worker_slots[slot].lock() = Some(id.clone());
        run_job(state, &id);
        *state.worker_slots[slot].lock() = None;
    }
}

/// The per-job seed: retries shift the stream so a stochastic
/// `NoSolution` genuinely re-rolls, while attempt numbers recovered
/// from checkpoint generations keep crash-resume on the same stream.
fn attempt_seed(spec: &JobSpec, attempt: u32) -> u64 {
    spec.seed.wrapping_add(attempt as u64)
}

fn run_job(state: &Arc<ServerState>, id: &str) {
    let mut job_span = state.obs.span("serve.job");
    job_span.set_attr("id", id);
    let (spec, cancel, obs, resumed_hint) = {
        let mut jobs = state.jobs.lock();
        let Some(j) = jobs.get_mut(id) else { return };
        if j.state.is_terminal() {
            return; // cancelled while queued
        }
        j.state = JobState::Running;
        (j.spec.clone(), j.cancel.clone(), j.obs.clone(), j.resumed)
    };
    // Chaos hook: die *outside* the solve sandbox, killing this worker
    // thread — the supervisor must settle the job and respawn the slot.
    if spec.chaos.as_deref() == Some("panic-worker") {
        panic!("chaos: injected worker panic for {id}");
    }
    if cancel.is_cancelled() {
        finalize_cancelled(state, id);
        return;
    }

    let dir = state.config.data_dir.join(id);
    let graph = match placement_graph(state, &spec) {
        Ok(g) => g,
        Err(msg) => {
            finalize(state, id, JobState::Failed, |j| {
                j.error = Some(msg.clone());
                j.retryable = false;
            });
            return;
        }
    };

    // A recovered job resumes the attempt its newest checkpoint
    // generation belongs to; a fresh job starts at attempt 0.
    let mut attempt: u32 = if resumed_hint {
        latest_generation(&dir, "search")
            .ok()
            .flatten()
            .map(|(g, _)| g as u32)
            .unwrap_or(0)
    } else {
        0
    };
    let first_attempt = attempt;

    loop {
        {
            let mut jobs = state.jobs.lock();
            if let Some(j) = jobs.get_mut(id) {
                j.attempts = attempt - first_attempt + 1;
            }
        }
        let config = job_config(state, &spec, attempt, &dir, &cancel, &obs);
        // The panic sandbox: a panicking solve (a solver bug, or the
        // injected "panic-solve" chaos mode) becomes a typed terminal
        // failure for THIS job; the worker thread survives.
        let chaos_solve = spec.chaos.as_deref() == Some("panic-solve");
        let sandboxed = catch_unwind(AssertUnwindSafe(|| {
            if chaos_solve {
                panic!("chaos: injected solve panic");
            }
            Pesto::new(config).place(&graph, &state.cluster)
        }));
        let result = match sandboxed {
            Ok(result) => result,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                state.obs.counter_add("serve.jobs.panicked", 1);
                finalize(state, id, JobState::Failed, |j| {
                    j.error = Some(format!("solve panicked: {msg}"));
                    j.retryable = false;
                    j.panicked = true;
                });
                write_terminal(state, id, JobState::Failed, None);
                return;
            }
        };
        match result {
            Ok(outcome) => {
                let placement: Vec<u32> = outcome
                    .plan
                    .placement
                    .as_slice()
                    .iter()
                    .map(|d| d.index() as u32)
                    .collect();
                let terminal = if let Some(reason) = &outcome.degradation {
                    let tag = reason.tag().to_string();
                    finalize(state, id, JobState::Degraded, |j| {
                        j.degradation = Some(tag.clone());
                        j.makespan_us = Some(outcome.makespan_us);
                        j.resumed = j.resumed || outcome.resumed;
                    });
                    JobState::Degraded
                } else {
                    finalize(state, id, JobState::Completed, |j| {
                        j.makespan_us = Some(outcome.makespan_us);
                        j.resumed = j.resumed || outcome.resumed;
                    });
                    JobState::Completed
                };
                write_terminal(state, id, terminal, Some(placement));
                // GC after success: superseded generations and any tmp
                // litter go now, not at the next restart.
                if let Ok(report) =
                    prune(&*state.config.storage, &dir, state.config.keep_generations)
                {
                    record_prune(&state.obs, &report);
                }
                return;
            }
            Err(PestoError::Cancelled) => {
                finalize_cancelled(state, id);
                return;
            }
            Err(e) if e.is_retryable() && attempt - first_attempt < spec.max_retries => {
                state.obs.counter_add("serve.jobs.retries", 1);
                backoff_wait(state, &spec, attempt, &cancel);
                if cancel.is_cancelled() {
                    finalize_cancelled(state, id);
                    return;
                }
                attempt += 1;
                continue;
            }
            Err(e) => {
                let retryable = e.is_retryable();
                let msg = e.to_string();
                finalize(state, id, JobState::Failed, |j| {
                    j.error = Some(msg.clone());
                    j.retryable = retryable;
                });
                write_terminal(state, id, JobState::Failed, None);
                return;
            }
        }
    }
}

/// Builds the pipeline config for one attempt. The SLA budget applies
/// per attempt (a retry gets a fresh budget); the checkpoint rides in
/// the job's own generation file so attempts never clobber each other.
fn job_config(
    _state: &Arc<ServerState>,
    spec: &JobSpec,
    attempt: u32,
    dir: &Path,
    cancel: &CancelToken,
    obs: &Obs,
) -> PestoConfig {
    let mut config = PestoConfig::fast();
    config.seed = attempt_seed(spec, attempt);
    // Profiling happened (cached) before the pipeline; see
    // `placement_graph`.
    config.profiler_iterations = None;
    config.time_budget = spec.sla_ms.map(Duration::from_millis);
    config.cancel = Some(cancel.clone());
    config.obs = obs.clone();
    if let Some(iters) = spec.iterations {
        config.placer.hybrid.iterations = iters;
    }
    if let Some(restarts) = spec.restarts {
        config.placer.hybrid.restarts = restarts;
    }
    if let Some(threads) = spec.threads {
        config.solver_threads = threads.max(1);
    }
    if let Some(cap) = spec.shard_region_cap {
        config.shard = Some(pesto::shard::ShardConfig {
            region_cap: cap,
            ..Default::default()
        });
    }
    if spec.checkpoint_every > 0 {
        config.checkpoint = Some(CheckpointConfig {
            path: generation_path(dir, "search", attempt as u64),
            every_iters: spec.checkpoint_every,
            resume: true,
        });
    }
    config
}

/// Resolves the graph a job actually places: profiled op-time estimates
/// are computed once per `(graph, seed, iterations)` and shared across
/// every job that submits the same model — the service-level profiler
/// cache the worker pool runs over.
fn placement_graph(state: &Arc<ServerState>, spec: &JobSpec) -> Result<FrozenGraph, String> {
    let graph = spec.graph()?;
    let Some(iters) = spec.profiler_iterations else {
        return Ok(graph);
    };
    let key = (graph_fingerprint(&graph), spec.seed, iters);
    if let Some(cached) = state.profile_cache.lock().get(&key) {
        state.obs.counter_add("serve.profile_cache.hits", 1);
        return Ok((**cached).clone());
    }
    state.obs.counter_add("serve.profile_cache.misses", 1);
    let estimated = Profiler::new(iters, spec.seed)
        .profile(&graph)
        .apply_to(graph);
    let estimated = Arc::new(estimated);
    state
        .profile_cache
        .lock()
        .entry(key)
        .or_insert_with(|| Arc::clone(&estimated));
    Ok((*estimated).clone())
}

/// Exponential backoff with deterministic jitter, polled against the
/// cancel token so a `DELETE` during a backoff wait still lands within
/// ~50 ms.
fn backoff_wait(state: &Arc<ServerState>, spec: &JobSpec, attempt: u32, cancel: &CancelToken) {
    let base = state.config.retry_base.as_millis() as u64;
    let cap = state.config.retry_cap.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap);
    // splitmix64 on (seed, attempt): deterministic per job, decorrelated
    // across jobs, no RNG state to carry.
    let jitter = splitmix64(&mut spec.seed.wrapping_add(attempt as u64)) % base.max(1);
    let total = Duration::from_millis(exp + jitter);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if cancel.is_cancelled() {
            return;
        }
        thread::sleep(Duration::from_millis(50).min(deadline - Instant::now()));
    }
}

// ---------------------------------------------------------------------
// Terminal bookkeeping

fn finalize_cancelled(state: &Arc<ServerState>, id: &str) {
    // A cancelled job must leave no partial checkpoint behind: sweep
    // every search generation (the pipeline stopped writing the moment
    // it observed the flag, so nothing is mid-rename here).
    let dir = state.config.data_dir.join(id);
    remove_search_generations(&dir);
    finalize(state, id, JobState::Cancelled, |_| {});
    write_terminal(state, id, JobState::Cancelled, None);
}

fn remove_search_generations(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if (name.starts_with("search.gen-") && name.ends_with(".json")) || name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Moves a job to `terminal` in the registry and folds its duration into
/// the retry-after estimate.
fn finalize(
    state: &Arc<ServerState>,
    id: &str,
    terminal: JobState,
    update: impl FnOnce(&mut JobEntry),
) {
    let mut jobs = state.jobs.lock();
    let Some(j) = jobs.get_mut(id) else { return };
    if j.state.is_terminal() {
        return;
    }
    j.state = terminal;
    let elapsed_ms = j.submitted.elapsed().as_millis() as u64;
    j.duration_ms = Some(elapsed_ms);
    update(j);
    drop(jobs);
    let counter = match terminal {
        JobState::Completed => "serve.jobs.completed",
        JobState::Degraded => "serve.jobs.degraded",
        JobState::Failed => "serve.jobs.failed",
        JobState::Cancelled => "serve.jobs.cancelled",
        JobState::Queued | JobState::Running => return,
    };
    state.obs.counter_add(counter, 1);
    // Submit-to-terminal latency; `/metrics` exposes the p50/p95/p99
    // through the histogram buckets.
    state
        .obs
        .observe("serve.job_duration_ms", elapsed_ms as f64);
    // EWMA with alpha 1/4, integer arithmetic.
    let avg = &state.avg_job_ms;
    let old = avg.load(Ordering::Relaxed);
    let new = if old == 0 {
        elapsed_ms
    } else {
        (old * 3 + elapsed_ms) / 4
    };
    avg.store(new.max(1), Ordering::Relaxed);
}

/// Durably records the terminal state (atomic write), so a crash after
/// this point never re-runs the job.
fn write_terminal(
    state: &Arc<ServerState>,
    id: &str,
    terminal: JobState,
    placement: Option<Vec<u32>>,
) {
    let record = {
        let jobs = state.jobs.lock();
        let Some(j) = jobs.get(id) else { return };
        TerminalRecord {
            id: id.to_string(),
            state: terminal.tag().to_string(),
            degradation: j.degradation.clone(),
            makespan_us: j.makespan_us,
            placement,
            error: j.error.clone(),
            retryable: j.retryable,
            attempts: j.attempts,
            resumed: j.resumed,
            duration_ms: j.duration_ms.unwrap_or(0),
            panicked: j.panicked,
        }
    };
    let dir = state.config.data_dir.join(id);
    if let Ok(text) = serde_json::to_string(&record) {
        // A failed terminal write is survivable: the in-memory state is
        // already terminal, and a crash before a later successful write
        // merely re-runs a deterministic job.
        let _ = state
            .config
            .storage
            .write_atomic(&dir.join("result.json"), text.as_bytes());
    }
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------
// JSON helpers (emitting; parsing goes through serde_json)

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Client-side helper shared by the load generator and the tests: polls
/// `GET /jobs/:id` until the job reaches a terminal state or `timeout`
/// passes. Returns the last status body.
pub fn wait_terminal(addr: &str, id: &str, timeout: Duration) -> Result<Value, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let resp = client_request(
            addr,
            "GET",
            &format!("/jobs/{id}"),
            None,
            Duration::from_secs(10),
        )
        .map_err(|e| format!("status poll failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "status poll got HTTP {}: {}",
                resp.status, resp.body
            ));
        }
        let v: Value = serde_json::from_str(&resp.body)
            .map_err(|e| format!("unparseable status body: {e:?}"))?;
        let st = v.get("state").and_then(Value::as_str).unwrap_or("");
        if JobState::from_tag(st).is_some_and(JobState::is_terminal) {
            return Ok(v);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "job {id} not terminal after {timeout:?} (state {st})"
            ));
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Client-side submit helper: posts `body` and returns `(status, body)`.
pub fn submit_raw(addr: &str, body: &str) -> Result<ClientResponse, String> {
    client_request(addr, "POST", "/jobs", Some(body), Duration::from_secs(10))
        .map_err(|e| format!("submit failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto::obs::SolverEventKind;

    #[test]
    fn non_finite_event_fields_poll_back_as_null() {
        let data_dir =
            std::env::temp_dir().join(format!("pesto-serve-null-event-{}", std::process::id()));
        let _ = fs::remove_dir_all(&data_dir);
        let server = Server::start(ServerConfig {
            data_dir: data_dir.clone(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        // A finished job whose pipeline degraded without an SLA: the
        // deadline slack of its degradation event is infinite.
        let obs = Obs::enabled();
        obs.solver_event(
            "pipeline",
            SolverEventKind::Degradation {
                reason: "solver_failed".into(),
                remaining_deadline_us: f64::INFINITY,
            },
        );
        let entry = JobEntry {
            spec: JobSpec {
                graph_json: String::new(),
                seed: 1,
                sla_ms: None,
                checkpoint_every: 0,
                max_retries: 0,
                iterations: None,
                restarts: None,
                profiler_iterations: None,
                threads: None,
                shard_region_cap: None,
                chaos: None,
            },
            state: JobState::Degraded,
            attempts: 1,
            resumed: false,
            degradation: Some("solver failed".into()),
            makespan_us: Some(1.0),
            error: None,
            retryable: false,
            submitted: Instant::now(),
            duration_ms: Some(1),
            cancel: CancelToken::new(),
            obs,
            panicked: false,
        };
        server.state.jobs.lock().insert("job-x".into(), entry);
        let resp = client_request(
            &server.addr().to_string(),
            "GET",
            "/jobs/job-x",
            None,
            Duration::from_secs(10),
        )
        .unwrap();
        server.stop();
        let _ = fs::remove_dir_all(&data_dir);
        assert_eq!(resp.status, 200);
        let body: Value = serde_json::from_str(&resp.body).unwrap();
        let event = &body["events"][0];
        assert_eq!(event["kind"], "degradation");
        assert_eq!(event["reason"], "solver_failed");
        assert!(
            event["remaining_deadline_us"].is_null(),
            "non-finite slack must poll back as null: {}",
            resp.body
        );
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_floors_at_100ms() {
        // Empty-ish queue: one job ahead at the 50ms floor rate.
        assert_eq!(retry_hint_from(0, 1, 0, None), 100);
        // Ten jobs ahead at 400ms each, two workers: 2200ms drain.
        assert_eq!(retry_hint_from(400, 2, 10, None), 2200);
        // Zero workers is treated as one.
        assert_eq!(retry_hint_from(400, 0, 1, None), 800);
    }

    #[test]
    fn retry_hint_is_clamped_to_the_jobs_own_sla() {
        // The drain estimate says 2200ms, but the job's SLA is 1500ms:
        // waiting longer than its own budget is never useful advice.
        assert_eq!(retry_hint_from(400, 2, 10, Some(1500)), 1500);
        // An SLA tighter than the 100ms floor wins too (the clamp is the
        // outermost bound), and a zero SLA still yields a positive hint.
        assert_eq!(retry_hint_from(400, 2, 10, Some(30)), 30);
        assert_eq!(retry_hint_from(400, 2, 10, Some(0)), 1);
        // A generous SLA leaves the estimate untouched.
        assert_eq!(retry_hint_from(400, 2, 10, Some(60_000)), 2200);
        assert_eq!(retry_hint_from(400, 2, 10, None), 2200);
    }
}
