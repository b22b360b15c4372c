//! Exporters: Chrome trace JSON, flat metrics JSON, and a text summary.
//!
//! All JSON is hand-written (this crate is dependency-free). Non-finite
//! floats — e.g. the incumbent objective before the first feasible
//! solution — are emitted as `null`, which both `chrome://tracing` and
//! ordinary JSON parsers accept.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Obs, SolverEvent, SolverEventKind, SpanRecord};

/// Percentile summary of one histogram, computed at export time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Number of recorded samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 50th percentile (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl HistogramStats {
    /// Summarises raw samples; returns `None` for an empty set.
    pub fn from_samples(samples: &[f64]) -> Option<HistogramStats> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let nearest = |p: f64| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(HistogramStats {
            count: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: nearest(50.0),
            p95: nearest(95.0),
            p99: nearest(99.0),
        })
    }
}

/// Total wall time spent in spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// Number of spans recorded under this name.
    pub count: usize,
    /// Sum of their durations in microseconds.
    pub total_us: f64,
}

/// A point-in-time copy of everything an enabled [`Obs`] recorded,
/// with histograms reduced to percentile summaries.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Latest gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramStats>,
    /// Per-span-name wall-time totals.
    pub span_totals: BTreeMap<String, SpanTotal>,
}

/// One timestamped metric snapshot retained by the flight recorder
/// ([`Obs::record_flight_snapshot`]).
#[derive(Debug, Clone)]
pub struct FlightSnapshot {
    /// When the snapshot was taken, µs since the sink epoch.
    pub t_us: f64,
    /// The metric state at that moment.
    pub metrics: MetricsSnapshot,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Displays an `f64` as a JSON value (`null` when non-finite).
struct JsonF64(f64);

impl std::fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

fn span_args_json(span: &SpanRecord) -> String {
    let fields: Vec<String> = span
        .attrs
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn span_json(span: &SpanRecord) -> String {
    format!(
        "{{\"name\":\"{}\",\"tid\":{},\"start_us\":{},\"dur_us\":{},\"args\":{}}}",
        json_escape(&span.name),
        span.tid,
        JsonF64(span.start_us),
        JsonF64(span.dur_us),
        span_args_json(span),
    )
}

/// Compact one-line JSON of a [`MetricsSnapshot`] (histograms reduced to
/// percentile summaries), shared by the flight recorder's snapshot ring
/// and its current-state section.
fn metrics_snapshot_json(s: &MetricsSnapshot) -> String {
    let counters: Vec<String> = s
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
        .collect();
    let gauges: Vec<String> = s
        .gauges
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), JsonF64(*v)))
        .collect();
    let histograms: Vec<String> = s
        .histograms
        .iter()
        .map(|(k, h)| {
            format!(
                "\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(k),
                h.count,
                JsonF64(h.mean),
                JsonF64(h.p50),
                JsonF64(h.p95),
                JsonF64(h.p99),
                JsonF64(h.max),
            )
        })
        .collect();
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(","),
    )
}

impl SolverEvent {
    /// Appends this event to `out` as one JSON object: `t_us`, `source`
    /// and `kind`, then the kind's own fields. Non-finite numbers (an
    /// infinite deadline slack, an incumbent before the first feasible
    /// solution) are written as `null`, as `serde_json` does.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"source\":\"{}\",\"kind\":\"{}\"",
            JsonF64(self.t_us),
            json_escape(&self.source),
            self.kind.tag()
        );
        let _ = match &self.kind {
            SolverEventKind::Incumbent { objective } => {
                write!(out, ",\"objective\":{}", JsonF64(*objective))
            }
            SolverEventKind::Gap {
                incumbent,
                best_bound,
                relative_gap,
                nodes_explored,
            } => write!(
                out,
                ",\"incumbent\":{},\"best_bound\":{},\"relative_gap\":{},\"nodes_explored\":{nodes_explored}",
                JsonF64(*incumbent),
                JsonF64(*best_bound),
                JsonF64(*relative_gap),
            ),
            SolverEventKind::Anneal {
                restart,
                iteration,
                temperature,
                accept_rate,
                best_cost,
            } => write!(
                out,
                ",\"restart\":{restart},\"iteration\":{iteration},\"temperature\":{},\"accept_rate\":{},\"best_cost\":{}",
                JsonF64(*temperature),
                JsonF64(*accept_rate),
                JsonF64(*best_cost),
            ),
            SolverEventKind::Degradation {
                reason,
                remaining_deadline_us,
            } => write!(
                out,
                ",\"reason\":\"{}\",\"remaining_deadline_us\":{}",
                json_escape(reason),
                JsonF64(*remaining_deadline_us),
            ),
        };
        out.push('}');
    }
}

/// Chrome-trace counter track for an event kind, if it maps to one.
fn counter_track(kind: &SolverEventKind) -> Option<(&'static str, Vec<(&'static str, f64)>)> {
    match kind {
        SolverEventKind::Gap {
            incumbent,
            best_bound,
            relative_gap,
            ..
        } => Some((
            "solver gap",
            vec![
                ("incumbent", *incumbent),
                ("best_bound", *best_bound),
                ("relative_gap", *relative_gap),
            ],
        )),
        SolverEventKind::Anneal {
            temperature,
            accept_rate,
            ..
        } => Some((
            "anneal",
            vec![("temperature", *temperature), ("accept_rate", *accept_rate)],
        )),
        _ => None,
    }
}

impl Obs {
    /// Everything recorded so far, with histograms summarised. Empty when
    /// the handle is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let registry = inner.registry.lock();
        let mut snapshot = MetricsSnapshot {
            counters: registry.counters.clone(),
            gauges: registry.gauges.clone(),
            ..MetricsSnapshot::default()
        };
        for (name, samples) in &registry.histograms {
            if let Some(stats) = HistogramStats::from_samples(samples) {
                snapshot.histograms.insert(name.clone(), stats);
            }
        }
        drop(registry);
        for span in inner.spans.lock().iter() {
            let entry = snapshot
                .span_totals
                .entry(span.name.clone())
                .or_insert(SpanTotal {
                    count: 0,
                    total_us: 0.0,
                });
            entry.count += 1;
            entry.total_us += span.dur_us;
        }
        snapshot
    }

    /// Chrome trace-event JSON (`{"traceEvents": [...]}`) covering the
    /// recorded pipeline spans plus counter tracks for solver gap and
    /// annealing progress. Load it in `chrome://tracing` or Perfetto.
    /// Returns an empty (but still valid) trace when disabled.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"pesto pipeline\"}}"
                .to_string(),
        );
        // One thread_name metadata event per lane that recorded spans, so
        // worker pools (shard regions, B&B workers) render as named rows
        // instead of anonymous tids. Lanes named via `Obs::name_lane` use
        // that name; the rest fall back to `lane-<tid>`.
        let spans = self.spans();
        let names = self.lane_names();
        let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("lane-{tid}"));
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&name),
            ));
        }
        for span in spans {
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":0,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{}}}",
                json_escape(&span.name),
                span.tid,
                span.start_us,
                span.dur_us,
                span_args_json(&span),
            ));
        }
        for event in self.solver_events() {
            let Some((track, series)) = counter_track(&event.kind) else {
                continue;
            };
            let args: Vec<String> = series
                .iter()
                .filter(|(_, v)| v.is_finite())
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            if args.is_empty() {
                continue;
            }
            events.push(format!(
                "{{\"ph\":\"C\",\"name\":\"{} ({})\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"args\":{{{}}}}}",
                json_escape(track),
                json_escape(&event.source),
                event.t_us,
                args.join(","),
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Flat JSON metrics document: counters, gauges, histogram
    /// percentiles, per-span wall-time totals, and the full solver event
    /// stream. Returns an empty document when disabled.
    pub fn metrics_json(&self) -> String {
        let snapshot = self.metrics_snapshot();
        let mut out = String::from("{\n");

        let counters: Vec<String> = snapshot
            .counters
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", json_escape(k), v))
            .collect();
        let _ = write!(out, "  \"counters\": {{\n{}\n  }},\n", counters.join(",\n"));

        let gauges: Vec<String> = snapshot
            .gauges
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", json_escape(k), JsonF64(*v)))
            .collect();
        let _ = write!(out, "  \"gauges\": {{\n{}\n  }},\n", gauges.join(",\n"));

        let histograms: Vec<String> = snapshot
            .histograms
            .iter()
            .map(|(k, h)| {
                format!(
                    "    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    json_escape(k),
                    h.count,
                    JsonF64(h.min),
                    JsonF64(h.max),
                    JsonF64(h.mean),
                    JsonF64(h.p50),
                    JsonF64(h.p95),
                    JsonF64(h.p99),
                )
            })
            .collect();
        let _ = write!(
            out,
            "  \"histograms\": {{\n{}\n  }},\n",
            histograms.join(",\n")
        );

        let spans: Vec<String> = snapshot
            .span_totals
            .iter()
            .map(|(k, s)| {
                format!(
                    "    \"{}\": {{\"count\": {}, \"total_us\": {}}}",
                    json_escape(k),
                    s.count,
                    JsonF64(s.total_us),
                )
            })
            .collect();
        let _ = write!(out, "  \"spans\": {{\n{}\n  }},\n", spans.join(",\n"));

        out.push_str("  \"solver_events\": [\n");
        for (i, e) in self.solver_events().iter().enumerate() {
            out.push_str(if i == 0 { "    " } else { ",\n    " });
            e.write_json(&mut out);
        }
        out.push_str("\n  ]\n");

        out.push_str("}\n");
        out
    }

    /// The flight-recorder dump: a single JSON document with the newest
    /// retained spans and solver events (at most
    /// [`crate::FLIGHT_DUMP_TAIL`] each), the timestamped metric-snapshot
    /// ring, the lane-name table, eviction counts, and the current metric
    /// state. Served by `pesto-serve` at `GET /debug/flight`, fetched by
    /// `pesto obs dump`, and written on panic by
    /// [`Obs::install_panic_hook`]. A disabled handle returns
    /// `{"enabled":false}` — rendering happens only on demand, so the
    /// steady-state cost of "having" a flight recorder is the rings'
    /// bounded memory, nothing more.
    pub fn flight_dump(&self) -> String {
        if !self.is_enabled() {
            return String::from("{\"enabled\":false}\n");
        }
        let lanes: Vec<String> = self
            .lane_names()
            .iter()
            .map(|(tid, name)| format!("\"{tid}\":\"{}\"", json_escape(name)))
            .collect();
        let spans: Vec<String> = self
            .span_tail(crate::FLIGHT_DUMP_TAIL)
            .iter()
            .map(span_json)
            .collect();
        let mut events = String::new();
        for (i, e) in self.event_tail(crate::FLIGHT_DUMP_TAIL).iter().enumerate() {
            if i > 0 {
                events.push(',');
            }
            e.write_json(&mut events);
        }
        let snapshots: Vec<String> = self
            .flight_snapshots()
            .iter()
            .map(|s| {
                format!(
                    "{{\"t_us\":{},\"metrics\":{}}}",
                    JsonF64(s.t_us),
                    metrics_snapshot_json(&s.metrics),
                )
            })
            .collect();
        format!(
            "{{\"enabled\":true,\"captured_at_us\":{},\"dropped_spans\":{},\
             \"dropped_events\":{},\"lanes\":{{{}}},\"recent_spans\":[{}],\
             \"recent_events\":[{}],\"metric_snapshots\":[{}],\"metrics\":{}}}\n",
            JsonF64(self.elapsed_us()),
            self.dropped_spans(),
            self.dropped_events(),
            lanes.join(","),
            spans.join(","),
            events,
            snapshots.join(","),
            metrics_snapshot_json(&self.metrics_snapshot()),
        )
    }

    /// Human-readable digest for `--verbose` output: span totals, counters,
    /// gauges, histogram percentiles, and an event-count-by-kind line.
    pub fn text_summary(&self) -> String {
        if !self.is_enabled() {
            return String::from("observability disabled\n");
        }
        let snapshot = self.metrics_snapshot();
        let mut out = String::new();
        out.push_str("-- spans (total wall time) --\n");
        for (name, total) in &snapshot.span_totals {
            let _ = writeln!(
                out,
                "  {:<28} {:>5}x {:>12.1} us",
                name, total.count, total.total_us
            );
        }
        if !snapshot.counters.is_empty() {
            out.push_str("-- counters --\n");
            for (name, value) in &snapshot.counters {
                let _ = writeln!(out, "  {name:<28} {value:>12}");
            }
        }
        if !snapshot.gauges.is_empty() {
            out.push_str("-- gauges --\n");
            for (name, value) in &snapshot.gauges {
                let _ = writeln!(out, "  {name:<28} {value:>12.4}");
            }
        }
        if !snapshot.histograms.is_empty() {
            out.push_str("-- histograms --\n");
            for (name, h) in &snapshot.histograms {
                let _ = writeln!(
                    out,
                    "  {:<28} n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
                    name, h.count, h.mean, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        let events = self.solver_events();
        if !events.is_empty() {
            let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
            for event in &events {
                *by_kind.entry(event.kind.tag()).or_insert(0) += 1;
            }
            let parts: Vec<String> = by_kind
                .iter()
                .map(|(kind, n)| format!("{kind}={n}"))
                .collect();
            let _ = writeln!(out, "-- solver events: {} --", parts.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = HistogramStats::from_samples(&samples).unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 100.0);
        assert_eq!(stats.p50, 50.0);
        assert_eq!(stats.p95, 95.0);
        assert_eq!(stats.p99, 99.0);
        assert!((stats.mean - 50.5).abs() < 1e-9);
        assert!(HistogramStats::from_samples(&[]).is_none());
    }

    #[test]
    fn chrome_trace_contains_span_and_counter_events() {
        let obs = Obs::enabled();
        {
            let mut s = obs.span("pipeline.solve");
            s.set_attr("ops", 7);
        }
        obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: 20.0,
                best_bound: 18.0,
                relative_gap: 0.1,
                nodes_explored: 4,
            },
        );
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("pipeline.solve"));
        assert!(trace.contains("\"ops\":\"7\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("solver gap"));
        assert!(trace.contains("\"ph\":\"M\""));
    }

    #[test]
    fn chrome_trace_skips_nonfinite_counters() {
        let obs = Obs::enabled();
        obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: f64::INFINITY,
                best_bound: 3.0,
                relative_gap: f64::INFINITY,
                nodes_explored: 1,
            },
        );
        let trace = obs.chrome_trace();
        assert!(!trace.contains("inf"));
        assert!(trace.contains("\"best_bound\":3"));
    }

    #[test]
    fn metrics_json_covers_all_sections() {
        let obs = Obs::enabled();
        obs.counter_add("milp.nodes", 3);
        obs.gauge_set("profile.r2", 0.99);
        obs.observe("sim.op_us", 5.0);
        obs.observe("sim.op_us", 15.0);
        drop(obs.span("pipeline.simulate"));
        obs.solver_event("hybrid", SolverEventKind::Incumbent { objective: 8.0 });
        obs.solver_event(
            "pipeline",
            SolverEventKind::Degradation {
                reason: "DeadlineDuringSearch".to_string(),
                remaining_deadline_us: 120.0,
            },
        );
        let json = obs.metrics_json();
        assert!(json.contains("\"milp.nodes\": 3"));
        assert!(json.contains("\"profile.r2\": 0.99"));
        assert!(json.contains("\"sim.op_us\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"pipeline.simulate\""));
        assert!(json.contains("\"kind\":\"incumbent\""));
        assert!(json.contains("\"reason\":\"DeadlineDuringSearch\""));
        assert!(json.contains("\"remaining_deadline_us\":120"));
    }

    #[test]
    fn nonfinite_values_export_as_null() {
        let obs = Obs::enabled();
        obs.solver_event(
            "milp",
            SolverEventKind::Gap {
                incumbent: f64::INFINITY,
                best_bound: 1.0,
                relative_gap: f64::INFINITY,
                nodes_explored: 0,
            },
        );
        let json = obs.metrics_json();
        assert!(json.contains("\"incumbent\":null"));
        assert!(json.contains("\"best_bound\":1"));
    }

    #[test]
    fn text_summary_mentions_each_section() {
        let obs = Obs::enabled();
        obs.counter_add("coarsen.rounds", 2);
        obs.gauge_set("profile.r2", 0.5);
        obs.observe("h", 1.0);
        drop(obs.span("pipeline.profile"));
        obs.solver_event("milp", SolverEventKind::Incumbent { objective: 1.0 });
        let text = obs.text_summary();
        assert!(text.contains("pipeline.profile"));
        assert!(text.contains("coarsen.rounds"));
        assert!(text.contains("profile.r2"));
        assert!(text.contains("incumbent=1"));
        assert_eq!(Obs::disabled().text_summary(), "observability disabled\n");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
