//! Prometheus text-format exposition (format version 0.0.4).
//!
//! Renders the registry of an enabled [`Obs`] as `# HELP`/`# TYPE`
//! families: counters (suffixed `_total` per convention), gauges, and
//! histograms with cumulative `_bucket{le="..."}` series over a fixed
//! log-spaced bound set plus `_sum`/`_count`. Dotted metric names are
//! sanitized to the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset
//! ([`sanitize_prom_name`]); optional constant labels are sorted by key
//! and label values escaped per the exposition spec (`\\`, `\"`, `\n`).
//!
//! Like every exporter in this crate the output is hand-written — no
//! dependencies — and computed entirely at scrape time, so recording
//! paths stay untouched.

use std::fmt::Write as _;

use crate::Obs;

/// Histogram bucket upper bounds used for every exposed histogram, in
/// the unit the samples were recorded in (the serve latency histograms
/// record milliseconds). Log-spaced 1-2.5-5 decades; `+Inf` is always
/// appended. Raw samples are kept until export, so changing this table
/// re-buckets history — no restart or re-record needed.
pub(crate) const BUCKET_BOUNDS: [f64; 14] = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Maps an internal dotted metric name (`serve.jobs.submitted`) onto the
/// Prometheus name charset: every character outside `[a-zA-Z0-9_:]`
/// becomes `_`, and a leading digit gets a `_` prefix. Distinct internal
/// names can collide after sanitization; pick registry names that don't.
pub fn sanitize_prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a sorted label set as `{k="v",...}`; `extra` (the `le` bucket
/// label) is appended last. Empty input renders as an empty string.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_prom_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// A float in exposition format: `+Inf`/`-Inf`/`NaN` are legal sample
/// values there (unlike JSON).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_family(out: &mut String, name: &str, raw: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} Pesto {kind} '{raw}'.");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_histogram(
    out: &mut String,
    name: &str,
    raw: &str,
    samples: &[f64],
    labels: &[(String, String)],
) {
    write_family(out, name, raw, "histogram");
    for bound in BUCKET_BOUNDS {
        let cumulative = samples.iter().filter(|&&v| v <= bound).count();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_block(labels, Some(("le", &prom_f64(bound)))),
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_block(labels, Some(("le", "+Inf"))),
        samples.len(),
    );
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        label_block(labels, None),
        prom_f64(samples.iter().sum()),
    );
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        label_block(labels, None),
        samples.len(),
    );
}

impl Obs {
    /// Prometheus text-format exposition of the registry: counters
    /// (`_total`-suffixed), gauges, and histograms with cumulative
    /// buckets. Families appear in sorted (BTreeMap) order, so the output
    /// is deterministic for a given registry state. A disabled handle
    /// exposes nothing (an empty, still-valid document).
    pub fn prometheus_text(&self) -> String {
        self.prometheus_text_with_labels(&[])
    }

    /// Like [`Obs::prometheus_text`] but attaching `labels` to every
    /// sample (e.g. `[("instance", addr)]`). Labels are sorted by key;
    /// values are escaped per the exposition format.
    pub fn prometheus_text_with_labels(&self, labels: &[(&str, &str)]) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let labels = sorted;

        let mut out = String::new();
        let registry = inner.registry.lock();
        for (raw, value) in &registry.counters {
            let name = format!("{}_total", sanitize_prom_name(raw));
            write_family(&mut out, &name, raw, "counter");
            let _ = writeln!(out, "{name}{} {value}", label_block(&labels, None));
        }
        for (raw, value) in &registry.gauges {
            let name = sanitize_prom_name(raw);
            write_family(&mut out, &name, raw, "gauge");
            let _ = writeln!(
                out,
                "{name}{} {}",
                label_block(&labels, None),
                prom_f64(*value)
            );
        }
        for (raw, samples) in &registry.histograms {
            let name = sanitize_prom_name(raw);
            write_histogram(&mut out, &name, raw, samples, &labels);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_to_the_prometheus_charset() {
        assert_eq!(
            sanitize_prom_name("serve.jobs.submitted"),
            "serve_jobs_submitted"
        );
        assert_eq!(sanitize_prom_name("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize_prom_name("9lives"), "_9lives");
        assert_eq!(sanitize_prom_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_prom_name(""), "_");
    }

    #[test]
    fn disabled_handle_exposes_nothing() {
        assert_eq!(Obs::disabled().prometheus_text(), "");
    }

    /// Golden test for the full exposition: name sanitization, `_total`
    /// suffixing, label ordering (sorted by key, `le` last), label-value
    /// escaping, and cumulative histogram buckets. Deterministic because
    /// nothing here reads the clock.
    #[test]
    fn golden_prometheus_exposition() {
        let obs = Obs::enabled();
        obs.counter_add("serve.jobs.submitted", 7);
        obs.gauge_set("serve.queue_depth", 3.0);
        // Exactly-representable samples so the `_sum` line is stable.
        for v in [0.25, 2.0, 2.5, 40.0, 20_000.0] {
            obs.observe("serve.job_duration_ms", v);
        }
        // Labels given out of order, with every escapable character in
        // the value.
        let text = obs.prometheus_text_with_labels(&[
            ("zone", "b\"ack\\slash\nline"),
            ("instance", "127.0.0.1:0"),
        ]);
        let expected = concat!(
            "# HELP serve_jobs_submitted_total Pesto counter 'serve.jobs.submitted'.\n",
            "# TYPE serve_jobs_submitted_total counter\n",
            "serve_jobs_submitted_total{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\"} 7\n",
            "# HELP serve_queue_depth Pesto gauge 'serve.queue_depth'.\n",
            "# TYPE serve_queue_depth gauge\n",
            "serve_queue_depth{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\"} 3\n",
            "# HELP serve_job_duration_ms Pesto histogram 'serve.job_duration_ms'.\n",
            "# TYPE serve_job_duration_ms histogram\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"0.5\"} 1\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"1\"} 1\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"2.5\"} 3\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"5\"} 3\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"10\"} 3\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"25\"} 3\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"50\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"100\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"250\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"500\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"1000\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"2500\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"5000\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"10000\"} 4\n",
            "serve_job_duration_ms_bucket{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\",le=\"+Inf\"} 5\n",
            "serve_job_duration_ms_sum{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\"} 20044.75\n",
            "serve_job_duration_ms_count{instance=\"127.0.0.1:0\",zone=\"b\\\"ack\\\\slash\\nline\"} 5\n",
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn unlabelled_output_has_no_brace_block() {
        let obs = Obs::enabled();
        obs.counter_add("c", 1);
        obs.gauge_set("g", f64::INFINITY);
        let text = obs.prometheus_text();
        assert!(text.contains("c_total 1\n"));
        assert!(text.contains("g +Inf\n"));
        assert!(!text.contains('{'));
    }
}
