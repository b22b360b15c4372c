//! Timed spans: the RAII guard that records them and the stored record.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use crate::{current_lane, Inner};

/// A finished span as stored in the sink: name, thread lane, interval
/// relative to the sink epoch, and any attributes set while open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"milp.solve"`.
    pub name: String,
    /// Thread lane the span ran on (stable per OS thread).
    pub tid: u64,
    /// Start time in microseconds since the sink epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// RAII guard for an open span; records a [`SpanRecord`] on drop. Obtained
/// from [`crate::Obs::span`] or the [`crate::span!`] macro. A guard from a
/// disabled handle carries no state and its drop is free.
pub struct SpanGuard {
    state: Option<Open>,
}

struct Open {
    inner: Arc<Inner>,
    name: String,
    started: Instant,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    pub(crate) fn noop() -> SpanGuard {
        SpanGuard { state: None }
    }

    pub(crate) fn start(inner: Arc<Inner>, name: String) -> SpanGuard {
        SpanGuard {
            state: Some(Open {
                inner,
                name,
                started: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Attaches a key/value attribute. The value is formatted only when
    /// the span is actually recording.
    pub fn set_attr(&mut self, key: &str, value: impl Display) {
        if let Some(open) = &mut self.state {
            open.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.state.take() {
            let start_us = open.started.duration_since(open.inner.epoch).as_secs_f64() * 1e6;
            let dur_us = open.started.elapsed().as_secs_f64() * 1e6;
            let record = SpanRecord {
                name: open.name,
                tid: current_lane(),
                start_us,
                dur_us,
                attrs: open.attrs,
            };
            open.inner.spans.lock().push(record);
        }
    }
}
