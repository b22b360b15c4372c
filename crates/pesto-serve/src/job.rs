//! Job model: the durable spec a client submits, the in-memory record
//! the server tracks, and the terminal result that outlives a crash.
//!
//! ## Lifecycle
//!
//! ```text
//!            admission (bounded queue)
//! POST /jobs ──────────────► Queued ──► Running ──► Completed
//!      │ queue full                       │  ▲          Degraded(reason)
//!      ▼                                  │  │ retryable Failed(error)
//!   Rejected (429 + retry-after,          │  └──backoff──┘
//!   never enters the registry)            ▼
//!                                      Cancelled (DELETE /jobs/:id)
//! ```
//!
//! `Rejected` is an *admission* outcome: the client gets a typed 429 with
//! a retry-after hint and the job is never recorded. Every admitted job
//! reaches exactly one terminal state, which is durably written to
//! `result.json` in the job's directory so a crash cannot lose it.

use pesto::graph::FrozenGraph;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::ops::RangeInclusive;

/// What a client asked for, persisted verbatim at admission so a crashed
/// daemon can re-run the job identically. The graph is kept as its
/// serialized JSON (not re-encoded) so the fingerprint seen on recovery
/// is byte-for-byte the fingerprint seen at submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The placement graph, in `pesto::graph::to_json` format.
    pub graph_json: String,
    /// Pipeline seed (profiling noise, search stream, tie-breaks).
    pub seed: u64,
    /// Per-job SLA mapped onto [`pesto::PestoConfig::time_budget`]: the
    /// pipeline degrades exact → hybrid → mSCT → single-device instead
    /// of blowing the deadline. `None` runs to completion.
    pub sla_ms: Option<u64>,
    /// Hybrid-search checkpoint cadence in iterations; `0` disables
    /// periodic checkpointing (the job is then not crash-resumable).
    pub checkpoint_every: usize,
    /// Extra attempts granted to *retryable* failures (transient
    /// checkpoint I/O, stochastic `NoSolution`). Permanent errors never
    /// retry regardless.
    pub max_retries: u32,
    /// Annealing iterations per restart; `None` uses the quick default.
    pub iterations: Option<usize>,
    /// Independent annealing restarts; `None` uses the quick default.
    /// Admission accepts at most 64.
    pub restarts: Option<usize>,
    /// Profiling iterations for op-time estimation. `None` trusts the
    /// graph's compute times as-is (and skips the shared profile cache).
    /// Admission accepts 2 to 10,000.
    pub profiler_iterations: Option<usize>,
    /// Solver worker threads, mapped onto
    /// [`pesto::PestoConfig::solver_threads`]: `None` (and `1`) keep the
    /// deterministic serial solvers; larger values run the MILP
    /// branch-and-bound (and sharded region solves) on that many workers
    /// for this job. Admission accepts at most 64.
    pub threads: Option<usize>,
    /// Hierarchical sharding: when set, graphs with more ops than this
    /// region cap take the sharded path ([`pesto::PestoConfig::shard`]),
    /// fanning region solves over the job's `threads` workers. `None`
    /// keeps the monolithic pipeline.
    #[serde(default)]
    pub shard_region_cap: Option<usize>,
    /// Chaos-testing hook: `"panic-solve"` makes the solve panic inside
    /// the worker's panic sandbox (the job must become a terminal
    /// `failed` record), `"panic-worker"` panics *outside* it (the worker
    /// thread dies and the supervisor must respawn it). Only the chaos
    /// suite sets this; any other value is rejected at admission.
    #[serde(default)]
    pub chaos: Option<String>,
}

/// The `chaos` values [`JobSpec::from_request_json`] accepts.
pub const CHAOS_MODES: &[&str] = &["panic-solve", "panic-worker"];

/// Accepted `profiler_iterations`: the profiler needs at least two
/// samples per op, and the paper profiles 100.
const PROFILER_ITERATIONS: RangeInclusive<u64> = 2..=10_000;

/// Accepted `restarts` and `threads`: each restart is one annealing
/// thread and each solver thread one branch-and-bound worker, so these
/// bound how many threads one job may start.
const WORKERS: RangeInclusive<u64> = 0..=64;

impl JobSpec {
    /// Parses a `POST /jobs` body. The only required field is `graph`;
    /// every knob has a service-appropriate default.
    pub fn from_request_json(body: &str) -> Result<JobSpec, String> {
        let v: Value =
            serde_json::from_str(body).map_err(|e| format!("body is not valid JSON: {e:?}"))?;
        let graph = v
            .get("graph")
            .ok_or_else(|| "missing required field \"graph\"".to_string())?;
        let graph_json =
            serde_json::to_string(graph).map_err(|e| format!("cannot re-encode graph: {e:?}"))?;
        // Validate the graph eagerly: a malformed graph must be a 400 at
        // admission, not a Failed job discovered minutes later.
        pesto::graph::from_json(&graph_json).map_err(|e| format!("invalid graph: {e}"))?;
        let get_u64 = |key: &str| v.get(key).and_then(Value::as_u64);
        // A value the pipeline cannot run is a 400 at admission, not a
        // worker that panics or floods the host with threads.
        let get_bounded = |key: &str, range: RangeInclusive<u64>| match get_u64(key) {
            Some(n) if !range.contains(&n) => Err(format!(
                "\"{key}\" must be in {}..={}, got {n}",
                range.start(),
                range.end()
            )),
            n => Ok(n.map(|n| n as usize)),
        };
        let chaos = match v.get("chaos").and_then(Value::as_str) {
            Some(mode) if CHAOS_MODES.contains(&mode) => Some(mode.to_string()),
            Some(mode) => {
                return Err(format!(
                    "unknown chaos mode {mode:?} (expected one of {CHAOS_MODES:?})"
                ))
            }
            None => None,
        };
        Ok(JobSpec {
            graph_json,
            seed: get_u64("seed").unwrap_or(0xbe57),
            sla_ms: get_u64("sla_ms"),
            checkpoint_every: get_u64("checkpoint_every").unwrap_or(200) as usize,
            max_retries: get_u64("max_retries").unwrap_or(2) as u32,
            iterations: get_u64("iterations").map(|n| n as usize),
            restarts: get_bounded("restarts", WORKERS)?,
            profiler_iterations: get_bounded("profiler_iterations", PROFILER_ITERATIONS)?,
            threads: get_bounded("threads", WORKERS)?.map(|n| n.max(1)),
            shard_region_cap: get_u64("shard_region_cap").map(|n| (n as usize).max(2)),
            chaos,
        })
    }

    /// Decodes the stored graph.
    pub fn graph(&self) -> Result<FrozenGraph, String> {
        pesto::graph::from_json(&self.graph_json).map_err(|e| format!("stored graph invalid: {e}"))
    }
}

/// Where a job is in its lifecycle. `Completed`, `Degraded`, `Failed`,
/// and `Cancelled` are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is placing it (includes backoff waits between retries).
    Running,
    /// Finished with the full (non-degraded) search.
    Completed,
    /// Finished, but the SLA forced a cheaper rung of the degradation
    /// ladder; the reason rides along in the record.
    Degraded,
    /// A permanent error, or a retryable one that exhausted its retries.
    Failed,
    /// Cooperatively cancelled via `DELETE /jobs/:id`.
    Cancelled,
}

impl JobState {
    /// Stable machine-readable tag (`"queued"`, `"running"`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Degraded => "degraded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether this state ends the lifecycle.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Degraded | JobState::Failed | JobState::Cancelled
        )
    }

    /// Parses a [`JobState::tag`] back (used when loading `result.json`).
    pub fn from_tag(tag: &str) -> Option<JobState> {
        Some(match tag {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "degraded" => JobState::Degraded,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// The durable terminal record written (atomically) to the job
/// directory's `result.json` the moment a job leaves the running set.
/// Recovery treats its presence as "this job is done" — a crash between
/// finishing the search and writing this file re-runs the job, which is
/// safe because placement is deterministic and checkpoint-resumable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TerminalRecord {
    /// Job id.
    pub id: String,
    /// Terminal [`JobState::tag`].
    pub state: String,
    /// Degradation reason tag, when `state == "degraded"`.
    pub degradation: Option<String>,
    /// Honest simulated per-step time of the final plan, µs.
    pub makespan_us: Option<f64>,
    /// Dense per-op device indices of the final placement — the
    /// bit-identity witness the kill/resume acceptance test compares.
    pub placement: Option<Vec<u32>>,
    /// Error message, when `state == "failed"`.
    pub error: Option<String>,
    /// Whether the error was classified retryable (it still failed if
    /// retries ran out).
    pub retryable: bool,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Whether any attempt warm-started from a crash checkpoint.
    pub resumed: bool,
    /// Wall-clock from admission to terminal state, milliseconds.
    pub duration_ms: u64,
    /// Whether the job's solve panicked (the panic was caught by the
    /// worker's sandbox, or the worker died and the supervisor settled
    /// the orphan). Always paired with `state == "failed"`.
    #[serde(default)]
    pub panicked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto::graph::{to_json, DeviceKind, OpGraph};

    fn body(knob: &str, value: u64) -> String {
        let mut g = OpGraph::new("one-op");
        g.add_op("a", DeviceKind::Gpu, 10.0, 16);
        let graph = to_json(&g.freeze().unwrap());
        format!("{{\"graph\":{graph},\"{knob}\":{value}}}")
    }

    #[test]
    fn out_of_range_knobs_are_rejected_by_name() {
        for (knob, value) in [
            ("profiler_iterations", 0),
            ("profiler_iterations", 1),
            ("profiler_iterations", 10_001),
            ("restarts", 1_000_000),
            ("threads", 1_000_000),
        ] {
            let err = JobSpec::from_request_json(&body(knob, value)).unwrap_err();
            assert!(err.contains(knob), "{knob} = {value}: {err}");
        }
    }

    #[test]
    fn in_range_knobs_are_admitted() {
        for (knob, value) in [
            ("profiler_iterations", 2),
            ("profiler_iterations", 10_000),
            ("restarts", 64),
            ("threads", 64),
        ] {
            let spec = JobSpec::from_request_json(&body(knob, value)).unwrap();
            let got = match knob {
                "profiler_iterations" => spec.profiler_iterations,
                "restarts" => spec.restarts,
                _ => spec.threads,
            };
            assert_eq!(got, Some(value as usize), "{knob}");
        }
    }
}
