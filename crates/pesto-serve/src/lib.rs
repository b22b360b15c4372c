//! # pesto-serve: placement as a fault-tolerant service
//!
//! The Pesto pipeline (profile → coarsen → solve → schedule) as a
//! long-running multi-tenant daemon instead of a one-shot CLI. The HTTP
//! surface is four routes:
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /jobs` | Admit a placement job (serialized graph + knobs); `429` + retry-after when the bounded queue is full |
//! | `GET /jobs/:id` | Status + incremental solver-progress events (`?events_since=<cursor>`) |
//! | `DELETE /jobs/:id` | Cooperative cancellation, threaded through the solvers' deadline checks |
//! | `GET /healthz` | Liveness + queue/worker/counter snapshot |
//!
//! The interesting part is the robustness envelope:
//!
//! * **Admission control** — the wait queue is bounded; overload is a
//!   typed rejection with a retry-after hint, not a timeout.
//! * **SLAs** — a job's `sla_ms` becomes [`pesto::PestoConfig::time_budget`],
//!   so an overloaded solve degrades exact → hybrid → mSCT →
//!   single-device instead of blowing its deadline.
//! * **Retry** — failures classified retryable by
//!   [`pesto::PestoError::is_retryable`] get exponential backoff with
//!   deterministic jitter; permanent ones fail fast.
//! * **Crash recovery** — specs and terminal results are durable, and
//!   running jobs checkpoint on a cadence; a restarted daemon re-verifies
//!   checkpoint fingerprints and resumes in-flight jobs bit-identically.
//!
//! The HTTP layer is hand-rolled over `std::net` (one request per
//! connection, `Content-Length` bodies only): the offline build has no
//! tokio/hyper, and the service's request shapes don't need them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
mod job;
mod server;

pub use job::{JobSpec, JobState, TerminalRecord, CHAOS_MODES};
pub use server::{submit_raw, wait_terminal, Server, ServerConfig};
