//! `serve_small`: an in-process `pesto-serve` daemon with two workers,
//! driven closed loop over real HTTP by one client.
//!
//! The client submits a job, polls `GET /jobs/:id` every few ms until the
//! job is terminal, and submits the next, cycling through two
//! Transformer-1-2-64 (batch 4) and two NASNet-2-8 (batch 16) graphs drawn
//! from the seed; a job's latency runs from its submission to the first
//! poll that sees it terminal, and its CPU time (`op_ms`) is the process's
//! over that interval less the client thread's own. The main thread
//! scrapes `/metrics` once a second. Jobs profile with 20 iterations (the daemon's profile cache
//! serves repeats) and checkpoint on the default cadence, so spec,
//! checkpoint and result files are written durably.
//!
//! An open loop was tried first and left out: on a shared 2-core host its
//! median latency varied by 27-29% across ten runs at 5 and 10 jobs/s
//! (idle gaps and queueing both amplify the host's speed drift), its tail
//! by 37% at 15 jobs/s, and 25 jobs/s saturated the two workers.

use crate::calib::Reference;
use crate::kernels::{self, KernelInput};
use crate::stats::{cpu_timed, median, process_cpu, tail, thread_cpu, timed};
use crate::{input_seed, peak_rss_mb, tracer, write_trace, Args, Outcome};
use pesto::graph::{to_json, Cluster, DeviceId, FrozenGraph, Placement};
use pesto::models::ModelSpec;
use pesto::obs::Obs;
use pesto_serve::http::client_request;
use pesto_serve::{JobState, Server, ServerConfig, TerminalRecord};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Server starts (each with warm-up) timed for `setup_s`; the median is
/// reported and the last server is measured.
const SETUP_REPS: usize = 5;
/// Pause between two polls of a job.
const POLL_GAP: Duration = Duration::from_millis(5);
/// How long a job may take before the client counts it lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);
/// Jobs after which the peak resident set size is read. The daemon keeps
/// every job's record in memory, so the peak grows with the jobs a run
/// completes; reading it after a fixed count keeps the host's speed out of
/// it. A 2-core host completes this many in 6-15 s.
const RSS_AT_JOBS: usize = 150;

/// Counters `/healthz` and `/metrics` must agree on.
const AGREEING_COUNTERS: &[(&str, &str)] = &[
    ("submitted", "serve_jobs_submitted_total"),
    ("rejected", "serve_jobs_rejected_total"),
    ("completed", "serve_jobs_completed_total"),
    ("degraded", "serve_jobs_degraded_total"),
    ("failed", "serve_jobs_failed_total"),
    ("cancelled", "serve_jobs_cancelled_total"),
    ("retries", "serve_jobs_retries_total"),
    ("profile_cache_hits", "serve_profile_cache_hits_total"),
    ("profile_cache_misses", "serve_profile_cache_misses_total"),
];

/// One model the jobs place: its graph and the `POST /jobs` body.
struct Model {
    graph: FrozenGraph,
    body: String,
}

/// The job mix: Transformer-1-2-64 (batch 4) and NASNet-2-8 (batch 16),
/// two graphs of each drawn from the seed, in alternation. Also returns
/// the time spent generating graphs.
fn models(seed: u64, obs: &Obs) -> (Vec<Model>, Duration) {
    let mut generating = Duration::ZERO;
    let models = (0..4)
        .map(|k| {
            let (spec, batch) = if k % 2 == 0 {
                (ModelSpec::transformer(1, 2, 64), 4)
            } else {
                (ModelSpec::nasnet(2, 8), 16)
            };
            let (graph, dt) = {
                let _s = obs.span("pesto-models.generate");
                timed(|| spec.generate(batch, input_seed(seed, k / 2)))
            };
            generating += dt;
            // Jobs of one model share a pipeline seed, so the profile
            // cache serves every repeat and each plan is deterministic.
            let body = format!(
                "{{\"graph\":{},\"seed\":{},\"iterations\":300,\"restarts\":1,\"profiler_iterations\":20}}",
                to_json(&graph),
                1000 + k
            );
            Model { graph, body }
        })
        .collect();
    (models, generating)
}

/// What the client saw for one accepted job.
struct Finished {
    index: usize,
    id: String,
    latency_ms: f64,
    /// CPU time the process spent on the job, less the client's own.
    cpu_ms: f64,
    state: String,
    makespan_us: Option<f64>,
}

/// What the client did: jobs sent and accepted, request round trips, and
/// what it saw for each accepted job.
struct Client {
    sent: usize,
    accepted: usize,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    finished: Vec<Finished>,
    /// Peak resident set size, MB, once `RSS_AT_JOBS` jobs had finished.
    rss_mb: Option<f64>,
    /// Reference timings taken between jobs.
    host_ref: Reference,
}

/// The closed loop: one job at a time until `seconds` have passed. Jobs
/// for which `traced` holds carry spans around their requests.
fn run_client(
    addr: &str,
    models: &[Model],
    seconds: Duration,
    obs: &Obs,
    traced: impl Fn(usize) -> bool,
) -> Client {
    let mut c = Client {
        sent: 0,
        accepted: 0,
        submit_ms: Vec::new(),
        poll_ms: Vec::new(),
        finished: Vec::new(),
        rss_mb: None,
        host_ref: Reference::new(),
    };
    let start = Instant::now();
    while start.elapsed() < seconds {
        let i = c.sent;
        c.sent += 1;
        let span_obs = if traced(i) {
            obs.clone()
        } else {
            Obs::disabled()
        };
        let submitted = Instant::now();
        let (process_at_submit, client_at_submit) = (process_cpu(), thread_cpu());
        let resp = {
            let _s = span_obs.span("pesto-serve.POST /jobs");
            pesto_serve::submit_raw(addr, &models[i % models.len()].body)
        };
        c.submit_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
        let Some(id) = resp.ok().filter(|r| r.status == 202).and_then(|r| {
            let v: Value = serde_json::from_str(&r.body).ok()?;
            Some(v.get("id")?.as_str()?.to_string())
        }) else {
            continue;
        };
        c.accepted += 1;
        while submitted.elapsed() < DRAIN_LIMIT {
            thread::sleep(POLL_GAP);
            let t = Instant::now();
            let body = {
                let _s = span_obs.span("pesto-serve.GET /jobs/:id");
                get(addr, &format!("/jobs/{id}"))
                    .map(|(_, b)| b)
                    .unwrap_or_default()
            };
            let seen = Instant::now();
            c.poll_ms.push((seen - t).as_secs_f64() * 1e3);
            if let Some(st) = state_of(&body).filter(|s| s.is_terminal()) {
                let makespan_us = serde_json::from_str::<Value>(&body)
                    .ok()
                    .and_then(|v| v.get("makespan_us").and_then(Value::as_f64));
                let client_cpu = thread_cpu() - client_at_submit;
                let cpu_ms = (process_cpu() - process_at_submit)
                    .saturating_sub(client_cpu)
                    .as_secs_f64()
                    * 1e3;
                c.finished.push(Finished {
                    index: i,
                    id: id.clone(),
                    latency_ms: (seen - submitted).as_secs_f64() * 1e3,
                    cpu_ms,
                    state: st.tag().to_string(),
                    makespan_us,
                });
                if c.finished.len() == RSS_AT_JOBS {
                    c.rss_mb = peak_rss_mb();
                }
                // About 5% of the jobs' time, while the daemon is idle; a
                // job is too short for a reference timing of its own, so
                // the run's median scales them all.
                if c.finished.len().is_multiple_of(8) {
                    c.host_ref.sample(1);
                }
                break;
            }
        }
    }
    c
}

fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    client_request(addr, "GET", path, None, HTTP_TIMEOUT)
        .map(|r| (r.status, r.body))
        .map_err(|e| format!("GET {path}: {e}"))
}

fn state_of(body: &str) -> Option<JobState> {
    let v: Value = serde_json::from_str(body).ok()?;
    JobState::from_tag(v.get("state")?.as_str()?)
}

/// Submits `body` and waits (polling every `POLL_GAP`) until the job is
/// terminal; returns the final state.
fn run_to_terminal(addr: &str, body: &str) -> Result<JobState, String> {
    let resp = pesto_serve::submit_raw(addr, body)?;
    let v: Value = serde_json::from_str(&resp.body).map_err(|e| format!("{e}"))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("submit answered {} {}", resp.status, resp.body))?;
    let deadline = Instant::now() + DRAIN_LIMIT;
    while Instant::now() < deadline {
        let (_, body) = get(addr, &format!("/jobs/{id}"))?;
        if let Some(st) = state_of(&body).filter(|s| s.is_terminal()) {
            return Ok(st);
        }
        thread::sleep(POLL_GAP);
    }
    Err(format!(
        "warm-up job {id} not terminal after {DRAIN_LIMIT:?}"
    ))
}

/// Starts a daemon on a fresh data dir and runs one job of each model
/// through it, which fills the profile cache.
fn start_warm(dir: &Path, models: &[Model]) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        data_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = server.addr().to_string();
    for m in models {
        match run_to_terminal(&addr, &m.body) {
            Ok(JobState::Completed) => {}
            Ok(st) => return Err(format!("warm-up job ended {}", st.tag())),
            Err(e) => return Err(e),
        }
    }
    Ok(server)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Parses the value of an unlabelled sample `name` from Prometheus text.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        solver_threads: 1,
        serve_workers: WORKERS,
        ..Outcome::default()
    };
    pesto::lp::configure_threads(1);
    let obs = tracer(args.trace);
    let (models, generate_time) = models(args.seed, &obs);
    let dir: PathBuf = args.out.join(format!("serve-data-{}", std::process::id()));

    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let _s = obs.span("pesto-serve.start+warm-up");
        match cpu_timed(|| start_warm(&dir, &models)) {
            (Ok(s), dt) => {
                setup_s.push(dt.as_secs_f64());
                server = Some(s);
            }
            (Err(e), _) => {
                out.errors.push(format!("set-up {rep}: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                return out;
            }
        }
    }
    let server = server.expect("SETUP_REPS >= 1");
    let addr = server.addr().to_string();
    let warm_jobs = models.len() as u64;
    println!(
        "workload {}: closed loop, one client, {WORKERS} workers, models Transformer-1-2-64 \
         ({} ops) and NASNet-2-8 ({} ops), seed {}",
        args.workload,
        models[0].graph.op_count(),
        models[1].graph.op_count(),
        args.seed
    );

    // In a traced run, odd jobs carry benchmark-side spans around their
    // requests; even jobs run untraced, which gives the tracing overhead.
    let traced = |i: usize| args.trace && i % 2 == 1;
    let (client, scrapes) = thread::scope(|scope| {
        let client = scope.spawn(|| run_client(&addr, &models, args.seconds, &obs, traced));
        // Scrape /metrics once a second while the load runs.
        let mut scrapes = Vec::new();
        while !client.is_finished() {
            let next = Instant::now() + Duration::from_secs(1);
            let t = Instant::now();
            let _s = obs.span("pesto-serve.GET /metrics");
            if let Ok((200, text)) = get(&addr, "/metrics") {
                scrapes.push((
                    t.elapsed().as_secs_f64() * 1e3,
                    prom_value(&text, "serve_queue_depth"),
                ));
            }
            while Instant::now() < next && !client.is_finished() {
                thread::sleep(Duration::from_millis(10));
            }
        }
        (client.join().expect("client thread panicked"), scrapes)
    });
    let Client {
        sent,
        accepted,
        submit_ms,
        poll_ms,
        finished,
        rss_mb,
        host_ref,
    } = client;

    // Final accounting against the daemon's own view.
    let health: Option<Value> = get(&addr, "/healthz")
        .ok()
        .and_then(|(_, b)| serde_json::from_str(&b).ok());
    let metrics_text = get(&addr, "/metrics").map(|(_, b)| b).unwrap_or_default();
    let health_u64 = |k: &str| {
        health
            .as_ref()
            .and_then(|h| h.get(k))
            .and_then(Value::as_u64)
    };
    for (key, family) in AGREEING_COUNTERS {
        let h = health_u64(key);
        let m = prom_value(&metrics_text, family).map(|v| v as u64);
        out.check(h.is_some() && h == m, || {
            format!("/metrics {family} = {m:?} disagrees with /healthz {key} = {h:?}")
        });
    }
    server.stop();

    let (sent, accepted) = (sent as u64, accepted as u64);
    let refused = sent - accepted;
    let completed: Vec<&Finished> = finished.iter().filter(|f| f.state == "completed").collect();
    let lost = accepted - finished.len() as u64;
    out.attempted = sent;
    out.failed = refused + lost + (finished.len() - completed.len()) as u64;
    out.check(out.failed == 0, || {
        format!(
            "{refused} refused, {lost} lost, {} not completed of {sent} jobs",
            finished.len() - completed.len()
        )
    });
    out.check(
        health_u64("submitted") == Some(accepted + warm_jobs),
        || {
            format!(
                "/healthz submitted {:?} != {} accepted",
                health_u64("submitted"),
                accepted + warm_jobs
            )
        },
    );
    out.check(
        health_u64("completed") == Some(completed.len() as u64 + warm_jobs),
        || {
            format!(
                "/healthz completed {:?} != {} seen completed",
                health_u64("completed"),
                completed.len() as u64 + warm_jobs
            )
        },
    );
    // Durable results: exactly one terminal record per accepted job, each
    // completed with a valid placement, and one plan per model.
    let cluster = Cluster::homogeneous(2, ServerConfig::default().gpu_memory_bytes);
    let mut records: BTreeMap<String, TerminalRecord> = BTreeMap::new();
    for f in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        if let Ok(text) = std::fs::read_to_string(f.path().join("result.json")) {
            match serde_json::from_str::<TerminalRecord>(&text) {
                Ok(r) => {
                    records.insert(r.id.clone(), r);
                }
                Err(e) => out
                    .errors
                    .push(format!("{}: bad result.json: {e}", f.path().display())),
            }
        }
    }
    out.check(records.len() as u64 == accepted + warm_jobs, || {
        format!(
            "{} terminal records for {} accepted jobs",
            records.len(),
            accepted + warm_jobs
        )
    });
    let mut plans: Vec<Option<(Vec<u32>, u64)>> = vec![None; models.len()];
    let mut server_ms = Vec::new();
    for f in &completed {
        let Some(r) = records.get(&f.id) else {
            out.errors.push(format!("{} has no terminal record", f.id));
            continue;
        };
        server_ms.push(r.duration_ms as f64);
        let model = f.index % models.len();
        let placement = r.placement.clone().unwrap_or_default();
        let valid = Placement::from_vec(
            placement
                .iter()
                .map(|&d| DeviceId::from_index(d as usize))
                .collect(),
        )
        .validate(&models[model].graph, &cluster);
        out.check(r.state == "completed" && valid.is_ok(), || {
            format!(
                "{}: record state {} / placement {:?}",
                f.id,
                r.state,
                valid.err()
            )
        });
        out.check(
            r.makespan_us.map(f64::to_bits) == f.makespan_us.map(f64::to_bits),
            || {
                format!(
                    "{}: polled makespan {:?} != recorded {:?}",
                    f.id, f.makespan_us, r.makespan_us
                )
            },
        );
        let plan = (placement, r.makespan_us.unwrap_or(f64::NAN).to_bits());
        match &plans[model] {
            None => plans[model] = Some(plan),
            Some(p) => out.check(*p == plan, || {
                format!("{}: plan differs from the model's first", f.id)
            }),
        }
    }
    let data_bytes = dir_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let latency = |pick: &dyn Fn(usize) -> bool| -> Vec<f64> {
        completed
            .iter()
            .filter(|f| pick(f.index))
            .map(|f| f.latency_ms)
            .collect()
    };
    let all = latency(&|_| true);
    let (tail_label, tail_ms) = tail(&all);
    // The models' jobs differ in cost, so the median over all jobs would
    // fall in the gap between them and jump with the mix; the mean of the
    // per-model medians does not.
    let cpu_ms = (0..models.len())
        .map(|m| {
            let v: Vec<f64> = completed
                .iter()
                .filter(|f| f.index % models.len() == m)
                .map(|f| f.cpu_ms)
                .collect();
            median(&v)
        })
        .sum::<f64>()
        / models.len() as f64;
    let step_ms: Vec<f64> = plans
        .iter()
        .flatten()
        .map(|(_, bits)| f64::from_bits(*bits) / 1e3)
        .collect();
    let quality_ms = step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64;
    println!(
        "  latency p50 {:.3} ms, {tail_label} {tail_ms:.3} ms over {} jobs; {cpu_ms:.3} ms CPU per job, \
         reference {:.4} ms; \
         {refused} refused, {lost} lost; plan step ms {step_ms:?}; peak RSS {rss_mb:?} MB after \
         {RSS_AT_JOBS} jobs",
        median(&all),
        all.len(),
        host_ref.median_ms(),
    );
    out.check(step_ms.len() == models.len(), || {
        "a model had no completed job".into()
    });

    if !args.trace {
        out.set("op_ms", host_ref.nominal(cpu_ms));
        out.set("quality_ms", quality_ms);
        out.set("setup_s", host_ref.nominal(median(&setup_s)));
        if let Some(mb) = rss_mb {
            out.set("peak_rss_mb", mb);
        }
        return out;
    }

    let untraced = median(&latency(&|i| !traced(i)));
    out.set("op_wall_ms", untraced);
    out.set("op_cpu_ms", cpu_ms);
    out.set("ref.ms", host_ref.median_ms());
    out.set(
        "trace_overhead_frac",
        median(&latency(&|i| traced(i))) / untraced - 1.0,
    );
    out.set(
        "generate.ms",
        generate_time.as_secs_f64() * 1e3 / models.len() as f64,
    );
    out.set("serve.submit_p50_ms", median(&submit_ms));
    out.set("serve.submit_tail_ms", tail(&submit_ms).1);
    out.set("serve.poll_p50_ms", median(&poll_ms));
    out.set("serve.poll_tail_ms", tail(&poll_ms).1);
    out.set(
        "serve.polls_per_job",
        poll_ms.len() as f64 / accepted.max(1) as f64,
    );
    out.set(
        "serve.scrape_ms",
        median(&scrapes.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    out.set(
        "serve.queue_depth_max",
        scrapes.iter().filter_map(|s| s.1).fold(0.0, f64::max),
    );
    out.set("serve.server_duration_p50_ms", median(&server_ms));
    out.set("serve.server_duration_tail_ms", tail(&server_ms).1);
    out.set("serve.rejected", health_u64("rejected").unwrap_or(0) as f64);
    let hits = health_u64("profile_cache_hits").unwrap_or(0) as f64;
    let lookups = hits + health_u64("profile_cache_misses").unwrap_or(0) as f64;
    out.set("serve.cache_hit_ratio", hits / lookups.max(1.0));
    out.set("serve.cache_lookups", lookups);
    out.set(
        "serve.data_bytes_per_job",
        data_bytes as f64 / (accepted + warm_jobs) as f64,
    );
    let nasnet_placement = plans[1].as_ref().map(|(p, _)| {
        Placement::from_vec(
            p.iter()
                .map(|&d| DeviceId::from_index(d as usize))
                .collect(),
        )
    });
    kernels::measure(
        KernelInput {
            graph: &models[1].graph,
            profiler_iterations: 20,
            profile_seed: 1001,
            coarsen_target: pesto::PestoConfig::fast().coarsen_target,
            placement: nasnet_placement,
        },
        &obs,
        &mut out,
    );
    write_trace(args, &obs, &mut out);
    out
}
