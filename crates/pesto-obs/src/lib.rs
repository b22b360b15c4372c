//! # pesto-obs: tracing, metrics, and solver-progress telemetry
//!
//! The placement pipeline (profiling → coarsening → ILP formulation → MILP
//! branch-and-bound → hybrid annealing → simulation) historically ran dark:
//! only the final `SimReport` was observable. This crate provides the three
//! primitives every stage now reports through:
//!
//! * **Spans** — hierarchical timed sections with key/value attributes
//!   ([`Obs::span`], or the [`span!`] macro). Nesting is implicit: spans
//!   carry a thread lane and wall-clock interval, which is exactly what the
//!   Chrome trace viewer uses to reconstruct the hierarchy.
//! * **Metrics** — counters, gauges, and histograms (p50/p95/p99 at export
//!   time) in a registry shared by cheap [`Obs`] handles.
//! * **Solver-progress events** — a timestamped stream of incumbent /
//!   best-bound / relative-gap samples from branch-and-bound, annealing
//!   temperature and accept-rate from the hybrid solver, and degradation
//!   events from the deadline ladder ([`Obs::solver_event`]).
//!
//! ## The no-op contract
//!
//! [`Obs::disabled`] (also [`Obs::default`]) is a handle with **no backing
//! storage**: every recording method is a single branch on an `Option` and
//! every span is guaranteed not to allocate or read the clock. Instrumented
//! hot paths (per-B&B-node, per-annealing-iteration) therefore cost nothing
//! measurable unless a sink was explicitly enabled — see the
//! `obs_overhead` benchmark in the `pesto-bench` crate.
//!
//! ## Exporters
//!
//! * [`Obs::chrome_trace`] — Chrome trace-event JSON for the *pipeline
//!   itself* (open in `chrome://tracing` or <https://ui.perfetto.dev>),
//!   complementing the simulator's per-plan trace
//!   (`pesto_sim::SimReport::to_chrome_trace`).
//! * [`Obs::metrics_json`] — flat JSON dump of counters, gauges, histogram
//!   percentiles, per-span wall-time totals, and the solver event stream.
//! * [`Obs::prometheus_text`] — Prometheus text-format exposition
//!   (counters/gauges/histograms with cumulative buckets), what
//!   `pesto-serve` serves at `GET /metrics`.
//! * [`Obs::flight_dump`] — the flight recorder: newest retained spans and
//!   events plus the timestamped metric-snapshot ring, for postmortems
//!   (`GET /debug/flight`, `pesto obs dump`, and
//!   [`Obs::install_panic_hook`]).
//! * [`Obs::text_summary`] — a human-readable digest for `--verbose`.
//!
//! ```
//! use pesto_obs::{Obs, SolverEventKind};
//!
//! let obs = Obs::enabled();
//! {
//!     let mut span = obs.span("milp.solve");
//!     span.set_attr("vars", 42);
//!     obs.counter_add("milp.nodes", 1);
//!     obs.solver_event(
//!         "milp",
//!         SolverEventKind::Gap {
//!             incumbent: 10.0,
//!             best_bound: 9.5,
//!             relative_gap: 0.05,
//!             nodes_explored: 1,
//!         },
//!     );
//! }
//! assert!(obs.chrome_trace().contains("milp.solve"));
//! assert!(obs.metrics_json().contains("milp.nodes"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod events;
mod export;
mod metrics;
mod prom;
mod span;
mod sync;

pub use cancel::CancelToken;
pub use events::{SolverEvent, SolverEventKind};
pub use export::{FlightSnapshot, HistogramStats, MetricsSnapshot, SpanTotal};
pub use metrics::Registry;
pub use prom::sanitize_prom_name;
pub use span::{SpanGuard, SpanRecord};
pub use sync::{wait_robust, RobustMutex};

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock, Weak};
use std::time::Instant;

/// Process-wide thread-lane allocator: each OS thread gets a stable small
/// integer used as the `tid` of the spans it records.
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn current_lane() -> u64 {
    LANE.with(|l| *l)
}

/// Default cap on retained solver-progress events
/// ([`Obs::enabled_with_event_capacity`] overrides it). Sized so a day of
/// sampled solver telemetry fits, while bounding a long-running daemon's
/// memory: each event is ~100 bytes, so the default ring tops out around
/// 6 MB per enabled handle.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Default cap on retained spans. Like the event ring, this bounds an
/// always-on daemon handle: once full, the oldest spans are evicted and
/// [`Obs::dropped_spans`] counts the loss. Aggregates
/// ([`Obs::metrics_snapshot`] span totals) are unaffected by eviction
/// only for the retained window — exporters report the drop count so a
/// truncated trace is never mistaken for a complete one.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// How many timestamped metric snapshots the flight recorder retains
/// ([`Obs::record_flight_snapshot`]).
pub const FLIGHT_SNAPSHOT_CAPACITY: usize = 32;

/// How many of the newest spans / solver events a flight-recorder dump
/// ([`Obs::flight_dump`]) includes. The retained rings may hold far more;
/// the dump is a postmortem digest, not an archive.
pub const FLIGHT_DUMP_TAIL: usize = 512;

/// Bounded store that evicts its oldest item once `capacity` is reached
/// and counts the evictions, so exporters and incremental readers can
/// report the loss instead of hiding it. Holds the spans, the solver
/// events and the flight recorder's metric snapshots; the newest retained
/// spans and events double as the flight dump's tail.
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Items evicted so far; also the sequence number of `buf[0]`.
    evicted: u64,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: VecDeque::new(),
            // A zero capacity would make every push an immediate silent
            // drop; retain at least one item so the store stays usable.
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(item);
    }

    fn snapshot(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }

    /// The newest `n` retained items, oldest first.
    fn tail(&self, n: usize) -> Vec<T> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).cloned().collect()
    }

    /// Items with sequence number `>= seq`, plus the next sequence number
    /// to poll from. Sequence numbers count every item ever pushed, so a
    /// reader that falls behind the ring simply resumes at the oldest
    /// retained item (the gap shows up in the eviction count).
    fn since(&self, seq: u64) -> (u64, Vec<T>) {
        let next = self.evicted + self.buf.len() as u64;
        let skip = seq.saturating_sub(self.evicted).min(self.buf.len() as u64) as usize;
        (next, self.buf.iter().skip(skip).cloned().collect())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

/// Shared storage behind an enabled [`Obs`] handle. The stores are
/// [`RobustMutex`]es because the panic hook reads them: a panicking
/// `lock()` inside the hook would double-panic and abort the process.
pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) spans: RobustMutex<Ring<SpanRecord>>,
    pub(crate) registry: RobustMutex<Registry>,
    pub(crate) events: RobustMutex<Ring<SolverEvent>>,
    /// Human-readable names for span lanes ([`Obs::name_lane`]); unnamed
    /// lanes export as `lane-<tid>`.
    pub(crate) lanes: RobustMutex<BTreeMap<u64, String>>,
    pub(crate) flight: RobustMutex<Ring<export::FlightSnapshot>>,
}

/// Flight-dump sinks of the process-wide panic hook: the storage of each
/// handle passed to [`Obs::install_panic_hook`] with its dump path. Held
/// weakly, so the hook never keeps a dropped handle alive.
static PANIC_SINKS: RobustMutex<Vec<(Weak<Inner>, PathBuf)>> = RobustMutex::new(Vec::new());

/// The registry with the sinks of dropped handles removed.
fn live_panic_sinks() -> MutexGuard<'static, Vec<(Weak<Inner>, PathBuf)>> {
    let mut sinks = PANIC_SINKS.lock();
    sinks.retain(|(weak, _)| weak.strong_count() > 0);
    sinks
}

/// Writes the flight dump of every live sink; runs inside the panic hook.
fn write_panic_dumps() {
    // Upgrade under the lock, render outside it: dropping the last handle
    // to a sink must not happen while the registry is locked.
    let live: Vec<(Obs, PathBuf)> = live_panic_sinks()
        .iter()
        .filter_map(|(weak, path)| {
            let inner = weak.upgrade()?;
            Some((Obs { inner: Some(inner) }, path.clone()))
        })
        .collect();
    for (obs, path) in live {
        obs.record_flight_snapshot();
        let _ = std::fs::write(&path, obs.flight_dump());
    }
}

/// A cheap, clonable observability handle.
///
/// The default handle is a **no-op sink**: recording costs one branch and
/// exporters return empty documents. [`Obs::enabled`] allocates shared
/// storage; clones of an enabled handle all feed the same sink, so a single
/// `Obs` can be threaded through the whole pipeline (including across the
/// hybrid solver's worker threads — all methods take `&self` and the
/// storage is mutex-protected).
#[derive(Clone, Default)]
pub struct Obs {
    pub(crate) inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Obs {
    /// An enabled handle with fresh storage; its epoch (t=0 of every
    /// exported timestamp) is the moment of this call. The solver-event
    /// stream is bounded at [`DEFAULT_EVENT_CAPACITY`]; long-running
    /// daemons can size it explicitly with
    /// [`Obs::enabled_with_event_capacity`].
    pub fn enabled() -> Obs {
        Obs::enabled_with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled handle whose solver-event ring retains at most
    /// `capacity` events (at least 1). Once full, the oldest events are
    /// evicted — [`Obs::dropped_events`] counts the loss — so an
    /// always-on handle in a daemon cannot grow without bound. Spans and
    /// metrics are aggregates and stay as-is.
    pub fn enabled_with_event_capacity(capacity: usize) -> Obs {
        Obs::enabled_with_capacities(capacity, DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled handle with explicit bounds on both rings: at most
    /// `event_capacity` solver events and `span_capacity` spans are
    /// retained (each at least 1). Eviction counts surface through
    /// [`Obs::dropped_events`] and [`Obs::dropped_spans`].
    pub fn enabled_with_capacities(event_capacity: usize, span_capacity: usize) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: RobustMutex::new(Ring::new(span_capacity)),
                registry: RobustMutex::new(Registry::default()),
                events: RobustMutex::new(Ring::new(event_capacity)),
                lanes: RobustMutex::new(BTreeMap::new()),
                flight: RobustMutex::new(Ring::new(FLIGHT_SNAPSHOT_CAPACITY)),
            })),
        }
    }

    /// The no-op handle (same as [`Obs::default`]).
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// Whether this handle records anything. Use to skip *preparing*
    /// expensive attribute values; the recording methods already no-op.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the handle was enabled (0 when disabled).
    pub fn elapsed_us(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.epoch.elapsed().as_secs_f64() * 1e6)
    }

    /// Opens a timed span; it records itself when dropped. Prefer the
    /// [`span!`] macro when also setting attributes.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => SpanGuard::start(Arc::clone(inner), name.into()),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().counter_add(name, delta);
        }
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().gauge_set(name, value);
        }
    }

    /// Records one sample into the named histogram (percentiles are
    /// computed at export time).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.lock().observe(name, value);
        }
    }

    /// Appends a timestamped solver-progress event from `source` (e.g.
    /// `"milp"`, `"hybrid"`, `"pipeline"`).
    pub fn solver_event(&self, source: &str, kind: SolverEventKind) {
        if let Some(inner) = &self.inner {
            let event = SolverEvent {
                t_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
                source: source.to_string(),
                kind,
            };
            inner.events.lock().push(event);
        }
    }

    /// Snapshot of the retained solver-progress event stream (the ring
    /// may have evicted older events; see [`Obs::dropped_events`]).
    pub fn solver_events(&self) -> Vec<SolverEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.lock().snapshot())
    }

    /// Incremental read for pollers (e.g. a job-status endpoint
    /// streaming solver progress): returns the events with sequence
    /// number `>= seq` plus the next sequence number to poll from.
    /// Sequence numbers count every event ever recorded on this handle,
    /// so `solver_events_since(0)` on a fresh handle returns everything,
    /// and a reader that falls behind the ring resumes at the oldest
    /// retained event. Disabled handles return `(0, [])`.
    pub fn solver_events_since(&self, seq: u64) -> (u64, Vec<SolverEvent>) {
        self.inner
            .as_ref()
            .map_or_else(|| (0, Vec::new()), |i| i.events.lock().since(seq))
    }

    /// How many solver events the bounded ring has evicted so far (0 when
    /// disabled). Non-zero means [`Obs::solver_events`] is a suffix of
    /// the true stream.
    pub fn dropped_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.lock().evicted)
    }

    /// Snapshot of the retained spans (the bounded ring may have evicted
    /// older ones; see [`Obs::dropped_spans`]).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.lock().snapshot())
    }

    /// How many spans the bounded ring has evicted so far (0 when
    /// disabled). Non-zero means [`Obs::spans`] is a suffix of the true
    /// stream.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.spans.lock().evicted)
    }

    /// Names the *calling thread's* span lane; exported traces label the
    /// lane with `name` instead of the default `lane-<tid>`. Worker pools
    /// call this once at thread start (e.g. `shard-worker-3`,
    /// `milp-worker-0`) so a multi-threaded run merges into one coherent
    /// chrome-trace with recognizable rows. Calling again renames;
    /// disabled handles ignore the call. Guard the `format!` with
    /// [`Obs::is_enabled`] on hot paths.
    pub fn name_lane(&self, name: impl Into<String>) {
        if let Some(inner) = &self.inner {
            inner.lanes.lock().insert(current_lane(), name.into());
        }
    }

    /// The lane-name table built by [`Obs::name_lane`] (empty when
    /// disabled).
    pub fn lane_names(&self) -> BTreeMap<u64, String> {
        self.inner
            .as_ref()
            .map_or_else(BTreeMap::new, |i| i.lanes.lock().clone())
    }

    /// Pushes a timestamped copy of the current metric state into the
    /// flight recorder's bounded snapshot ring (capacity
    /// [`FLIGHT_SNAPSHOT_CAPACITY`], oldest evicted first). The
    /// `pesto-serve` daemon calls this on every `/metrics` scrape, so a
    /// postmortem dump carries the recent metric history, not just the
    /// final state. No-op when disabled.
    pub fn record_flight_snapshot(&self) {
        if let Some(inner) = &self.inner {
            let snapshot = export::FlightSnapshot {
                t_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
                metrics: self.metrics_snapshot(),
            };
            inner.flight.lock().push(snapshot);
        }
    }

    /// The retained flight-recorder metric snapshots, oldest first
    /// (empty when disabled).
    pub fn flight_snapshots(&self) -> Vec<export::FlightSnapshot> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.flight.lock().snapshot())
    }

    /// The newest `n` retained spans, oldest first.
    pub(crate) fn span_tail(&self, n: usize) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.lock().tail(n))
    }

    /// The newest `n` retained solver events, oldest first.
    pub(crate) fn event_tail(&self, n: usize) -> Vec<SolverEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.lock().tail(n))
    }

    /// Registers this handle's flight-recorder dump ([`Obs::flight_dump`])
    /// to be written to `path` when any thread panics. Gives postmortem
    /// telemetry for crashed jobs at zero steady-state cost — the dump is
    /// only rendered inside the panic path. Disabled handles register
    /// nothing. Several handles (or one handle with several paths) each
    /// write their own dump.
    ///
    /// The first registration installs one process-wide hook, which runs
    /// the previous hook (keeping the default backtrace output) and then
    /// writes the dump of every registered handle that is still alive.
    /// The hook holds handles weakly: dropping a handle's last clone
    /// removes it from the registry. Re-registering the *same* handle
    /// with the *same* path is a no-op returning `false`, so restart
    /// loops (a supervisor re-running daemon startup) cannot grow the
    /// registry. Returns `true` when a sink was actually added.
    ///
    /// The hook itself cannot panic: the telemetry locks recover from
    /// poison (the panicking thread may have died mid-record) and the
    /// dump write is best-effort — a missing directory or unwritable
    /// path loses the dump, never the process (a panic inside a panic
    /// hook aborts).
    pub fn install_panic_hook(&self, path: impl Into<PathBuf>) -> bool {
        static HOOK: OnceLock<()> = OnceLock::new();
        let Some(inner) = &self.inner else {
            return false;
        };
        HOOK.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                prev(info);
                write_panic_dumps();
            }));
        });
        let path: PathBuf = path.into();
        let mut sinks = live_panic_sinks();
        let duplicate = sinks
            .iter()
            .any(|(weak, p)| *p == path && weak.as_ptr() == Arc::as_ptr(inner));
        if !duplicate {
            sinks.push((Arc::downgrade(inner), path));
        }
        !duplicate
    }

    /// Current value of a counter (0 when absent or disabled). Mostly for
    /// tests and the text summary.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.registry.lock().counter(name))
    }

    /// Latest value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|i| i.registry.lock().gauge(name))
    }
}

/// Opens a span on an [`Obs`] handle, optionally setting attributes:
///
/// ```
/// use pesto_obs::{span, Obs};
/// let obs = Obs::enabled();
/// let _guard = span!(obs, "coarsen", ops_before = 100, ops_after = 10);
/// ```
///
/// Attribute values are only formatted when the handle is enabled.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr) => {
        $obs.span($name)
    };
    ($obs:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut guard = $obs.span($name);
        $(guard.set_attr(stringify!($key), $value);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        {
            let mut s = obs.span("x");
            s.set_attr("k", 1);
        }
        obs.counter_add("c", 5);
        obs.gauge_set("g", 1.0);
        obs.observe("h", 2.0);
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 1.0 });
        obs.name_lane("ghost");
        obs.record_flight_snapshot();
        assert!(!obs.is_enabled());
        assert!(obs.spans().is_empty());
        assert!(obs.solver_events().is_empty());
        assert_eq!(obs.counter("c"), 0);
        assert_eq!(obs.gauge("g"), None);
        assert_eq!(obs.elapsed_us(), 0.0);
        assert_eq!(obs.dropped_spans(), 0);
        assert!(obs.lane_names().is_empty());
        assert!(obs.flight_snapshots().is_empty());
        assert_eq!(obs.flight_dump(), "{\"enabled\":false}\n");
        assert_eq!(obs.prometheus_text(), "");
    }

    #[test]
    fn span_ring_evicts_oldest_and_counts_drops() {
        let obs = Obs::enabled_with_capacities(DEFAULT_EVENT_CAPACITY, 3);
        for i in 0..5 {
            drop(obs.span(format!("s{i}")));
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 3, "ring retains only the newest 3");
        assert_eq!(obs.dropped_spans(), 2);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s2", "s3", "s4"]);
    }

    #[test]
    fn named_lanes_label_the_chrome_trace() {
        let obs = Obs::enabled();
        obs.name_lane("unit-test-lane");
        drop(obs.span("work"));
        let lane = current_lane();
        assert_eq!(
            obs.lane_names().get(&lane).map(String::as_str),
            Some("unit-test-lane")
        );
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("unit-test-lane"));
    }

    #[test]
    fn unnamed_lanes_fall_back_to_lane_tid() {
        let obs = Obs::enabled();
        drop(obs.span("work"));
        let trace = obs.chrome_trace();
        assert!(trace.contains(&format!("lane-{}", current_lane())));
    }

    #[test]
    fn flight_dump_carries_rings_snapshots_and_drop_counts() {
        let obs = Obs::enabled_with_capacities(2, 2);
        obs.name_lane("flight-lane");
        obs.counter_add("c", 4);
        obs.observe("h", 2.0);
        for i in 0..3 {
            drop(obs.span(format!("s{i}")));
            obs.solver_event(
                "s",
                SolverEventKind::Incumbent {
                    objective: i as f64,
                },
            );
        }
        obs.record_flight_snapshot();
        obs.counter_add("c", 1);
        obs.record_flight_snapshot();
        assert_eq!(obs.flight_snapshots().len(), 2);
        let dump = obs.flight_dump();
        assert!(dump.contains("\"enabled\":true"));
        assert!(dump.contains("\"dropped_spans\":1"));
        assert!(dump.contains("\"dropped_events\":1"));
        assert!(dump.contains("flight-lane"));
        assert!(dump.contains("\"s1\"") && dump.contains("\"s2\""));
        assert!(!dump.contains("\"s0\""), "evicted span is gone");
        assert!(dump.contains("\"metric_snapshots\":["));
        assert!(dump.contains("\"c\":5"), "current metrics are included");
        assert!(dump.contains("\"p95\""), "histogram summaries are included");
    }

    #[test]
    fn panic_hook_writes_the_flight_dump() {
        let obs = Obs::enabled();
        obs.counter_add("pre.panic", 1);
        let path = std::env::temp_dir().join(format!("pesto-obs-hook-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        obs.install_panic_hook(&path);
        let result = std::thread::Builder::new()
            .name("obs-panic-probe".into())
            .spawn(|| panic!("flight recorder probe"))
            .unwrap()
            .join();
        assert!(result.is_err());
        let dump = std::fs::read_to_string(&path).expect("hook wrote the dump");
        assert!(dump.contains("\"enabled\":true"));
        assert!(dump.contains("pre.panic"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panic_hook_install_is_idempotent_per_handle_and_path() {
        let obs = Obs::enabled();
        let path =
            std::env::temp_dir().join(format!("pesto-obs-hook-idem-{}.json", std::process::id()));
        assert!(obs.install_panic_hook(&path), "first install takes effect");
        assert!(
            !obs.install_panic_hook(&path),
            "same handle + same path is a no-op"
        );
        assert!(
            !obs.install_panic_hook(&path),
            "still a no-op on the third try"
        );
        // A different path for the same handle is a genuinely new sink...
        let other =
            std::env::temp_dir().join(format!("pesto-obs-hook-idem-b-{}.json", std::process::id()));
        assert!(obs.install_panic_hook(&other));
        assert!(!obs.install_panic_hook(&other));
        // ...as is a different handle for the same path.
        let second = Obs::enabled();
        assert!(second.install_panic_hook(&path));
        assert!(!second.install_panic_hook(&path));
        // Disabled handles never install anything.
        assert!(!Obs::disabled().install_panic_hook(&path));
    }

    #[test]
    fn panic_hook_survives_an_unwritable_dump_path() {
        let obs = Obs::enabled();
        obs.counter_add("doomed", 1);
        // A dump path in a directory that does not exist: the write must
        // fail, and the hook must swallow that failure. A panic inside a
        // panic hook aborts the process, so this test finishing at all is
        // the assertion that the hook cannot panic.
        let path = std::env::temp_dir()
            .join(format!("pesto-obs-no-such-dir-{}", std::process::id()))
            .join("deep")
            .join("flight.json");
        obs.install_panic_hook(&path);
        let result = std::thread::Builder::new()
            .name("obs-unwritable-probe".into())
            .spawn(|| panic!("probe with unwritable dump path"))
            .unwrap()
            .join();
        assert!(result.is_err(), "the probe thread panicked normally");
        assert!(!path.exists(), "nothing was written");
        // The handle is still fully usable afterwards.
        obs.counter_add("doomed", 1);
        assert_eq!(obs.counter("doomed"), 2);
    }

    #[test]
    fn panic_hook_registry_survives_concurrent_installs_and_drops() {
        use std::sync::Barrier;
        const THREADS: usize = 4;
        let dir =
            std::env::temp_dir().join(format!("pesto-obs-hook-stress-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Rendezvous 1: every thread has registered one handle it keeps
        // and one it is about to drop. Between the rendezvous, the
        // threads drop handles and register (and drop) fresh ones while
        // the main thread panics a probe. Rendezvous 2: the probe is done.
        let barrier = Barrier::new(THREADS + 1);
        let (kept, dropped) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (barrier, dir) = (&barrier, &dir);
                    scope.spawn(move || {
                        let keep = Obs::enabled();
                        keep.counter_add(&format!("stress.live.{t}"), 1);
                        assert!(keep.install_panic_hook(dir.join(format!("live-{t}.json"))));
                        let gone = Obs::enabled();
                        assert!(gone.install_panic_hook(dir.join(format!("gone-{t}.json"))));
                        let mut weak = vec![Arc::downgrade(gone.inner.as_ref().unwrap())];
                        barrier.wait();
                        drop(gone);
                        for k in 0..8 {
                            let churn = Obs::enabled();
                            churn.install_panic_hook(dir.join(format!("churn-{t}-{k}.json")));
                            weak.push(Arc::downgrade(churn.inner.as_ref().unwrap()));
                        }
                        barrier.wait();
                        (keep, weak)
                    })
                })
                .collect();
            barrier.wait();
            let probe = std::thread::Builder::new()
                .name("obs-stress-probe".into())
                .spawn(|| panic!("registry stress probe"))
                .unwrap()
                .join();
            assert!(probe.is_err());
            barrier.wait();
            let done: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            let kept: Vec<Obs> = done.iter().map(|(keep, _)| keep.clone()).collect();
            let dropped: Vec<Weak<Inner>> = done.into_iter().flat_map(|(_, weak)| weak).collect();
            (kept, dropped)
        });
        // Every handle alive through the panic wrote its own dump.
        for t in 0..THREADS {
            let dump = std::fs::read_to_string(dir.join(format!("live-{t}.json")))
                .expect("a live sink's dump is written");
            assert!(dump.contains(&format!("stress.live.{t}")));
        }
        // The hook kept no dropped handle alive, and the registry lists
        // none of them.
        assert!(dropped.iter().all(|w| w.upgrade().is_none()));
        let sinks = live_panic_sinks();
        assert!(dropped
            .iter()
            .all(|d| !sinks.iter().any(|(w, _)| Weak::ptr_eq(w, d))));
        for obs in &kept {
            let inner = obs.inner.as_ref().unwrap();
            assert!(sinks.iter().any(|(w, _)| w.as_ptr() == Arc::as_ptr(inner)));
        }
        drop(sinks);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_one_sink() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter_add("shared", 2);
        obs.counter_add("shared", 3);
        assert_eq!(obs.counter("shared"), 5);
        drop(clone.span("from-clone"));
        assert_eq!(obs.spans().len(), 1);
    }

    #[test]
    fn span_records_duration_and_attrs() {
        let obs = Obs::enabled();
        {
            let mut s = span!(obs, "work", items = 3);
            s.set_attr("phase", "late");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "work");
        assert!(spans[0].dur_us >= 0.0);
        assert!(spans[0].start_us >= 0.0);
        assert_eq!(
            spans[0].attrs,
            vec![
                ("items".to_string(), "3".to_string()),
                ("phase".to_string(), "late".to_string()),
            ]
        );
    }

    #[test]
    fn events_are_timestamped_and_ordered() {
        let obs = Obs::enabled();
        obs.solver_event("milp", SolverEventKind::Incumbent { objective: 12.0 });
        obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: 12.0,
                best_bound: 11.0,
                relative_gap: 1.0 / 12.0,
                nodes_explored: 9,
            },
        );
        let events = obs.solver_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].t_us <= events[1].t_us);
        assert_eq!(events[0].source, "milp");
    }

    #[test]
    fn event_ring_evicts_oldest_and_counts_drops() {
        let obs = Obs::enabled_with_event_capacity(3);
        for i in 0..5 {
            obs.solver_event(
                "hybrid",
                SolverEventKind::Incumbent {
                    objective: i as f64,
                },
            );
        }
        let events = obs.solver_events();
        assert_eq!(events.len(), 3, "ring retains only the newest 3");
        assert_eq!(obs.dropped_events(), 2);
        // The retained suffix is the newest events, in order.
        let objectives: Vec<f64> = events
            .iter()
            .map(|e| match e.kind {
                SolverEventKind::Incumbent { objective } => objective,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(objectives, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn incremental_reads_resume_where_they_left_off() {
        let obs = Obs::enabled_with_event_capacity(4);
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 0.0 });
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 1.0 });
        let (next, batch) = obs.solver_events_since(0);
        assert_eq!(next, 2);
        assert_eq!(batch.len(), 2);
        // No new events: empty batch, same cursor.
        let (next2, batch2) = obs.solver_events_since(next);
        assert_eq!(next2, 2);
        assert!(batch2.is_empty());
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 2.0 });
        let (next3, batch3) = obs.solver_events_since(next2);
        assert_eq!(next3, 3);
        assert_eq!(batch3.len(), 1);
    }

    #[test]
    fn a_lagging_reader_resumes_at_the_oldest_retained_event() {
        let obs = Obs::enabled_with_event_capacity(2);
        for i in 0..6 {
            obs.solver_event(
                "s",
                SolverEventKind::Incumbent {
                    objective: i as f64,
                },
            );
        }
        // Reader last saw seq 1, but events 0..=3 were evicted.
        let (next, batch) = obs.solver_events_since(1);
        assert_eq!(next, 6);
        assert_eq!(batch.len(), 2, "only the retained suffix is available");
        assert_eq!(obs.dropped_events(), 4);
        // A cursor ahead of the stream returns nothing (and stays put).
        let (next_ahead, empty) = obs.solver_events_since(100);
        assert_eq!(next_ahead, 6);
        assert!(empty.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let obs = Obs::enabled_with_event_capacity(0);
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 1.0 });
        obs.solver_event("s", SolverEventKind::Incumbent { objective: 2.0 });
        assert_eq!(obs.solver_events().len(), 1);
        assert_eq!(obs.dropped_events(), 1);
    }

    #[test]
    fn disabled_handle_event_ring_costs_nothing() {
        let obs = Obs::disabled();
        assert_eq!(obs.solver_events_since(0), (0, Vec::new()));
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn gauges_keep_latest_value() {
        let obs = Obs::enabled();
        obs.gauge_set("temp", 10.0);
        obs.gauge_set("temp", 4.0);
        assert_eq!(obs.gauge("temp"), Some(4.0));
    }
}
