//! End-to-end tests of the `pesto` CLI binary: generate → info → baseline
//! → simulate, exercising the JSON round trip through real process
//! boundaries.

use std::path::PathBuf;
use std::process::Command;

fn pesto_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pesto"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pesto-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_info_baseline_simulate_round_trip() {
    // generate
    let out = pesto_bin()
        .args(["generate", "nasnet", "3", "16"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let graph_path = tmp("graph.json");
    std::fs::write(&graph_path, &out.stdout).unwrap();

    // info
    let out = pesto_bin()
        .args(["info", graph_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let info = String::from_utf8_lossy(&out.stdout);
    assert!(info.contains("NASNet-3-16"), "{info}");
    assert!(info.contains("ops:"));

    // baseline plan
    let out = pesto_bin()
        .args(["baseline", "m_sct", graph_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plan_path = tmp("plan.json");
    std::fs::write(&plan_path, &out.stdout).unwrap();

    // simulate with SVG export
    let svg_path = tmp("step.svg");
    let out = pesto_bin()
        .args([
            "simulate",
            graph_path.to_str().unwrap(),
            plan_path.to_str().unwrap(),
            "--svg",
            svg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sim = String::from_utf8_lossy(&out.stdout);
    assert!(sim.contains("per-step time:"), "{sim}");
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));

    for p in [graph_path, plan_path, svg_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = pesto_bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = pesto_bin()
        .args(["info", "/nonexistent/graph.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn help_text_and_arg_parser_agree_on_every_flag() {
    let out = pesto_bin().args(["help"]).output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).to_string();

    // `__flags` dumps the parser's declared flag table, one
    // `<command> <flag>...` line per subcommand.
    let out = pesto_bin().args(["__flags"]).output().unwrap();
    assert!(out.status.success());
    let declared = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(!declared.trim().is_empty());

    // Every flag the parser accepts appears on its command's usage line.
    for line in declared.lines() {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap();
        let usage_line = help
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("pesto {cmd}")))
            .unwrap_or_else(|| panic!("no usage line for `{cmd}` in:\n{help}"));
        for flag in parts {
            assert!(
                usage_line.contains(flag),
                "usage for `{cmd}` is missing {flag}: {usage_line}"
            );
        }
    }

    // ... and the help text advertises no flag the parser rejects.
    let known: std::collections::HashSet<&str> = declared
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .collect();
    for token in help.split(|c: char| c.is_whitespace() || c == '[' || c == ']') {
        if token.starts_with("--") {
            assert!(
                known.contains(token),
                "help advertises undeclared flag {token}"
            );
        }
    }
}

#[test]
fn place_writes_trace_and_metrics_files() {
    // A 2-op graph takes the exact-MILP path, so the metrics dump carries
    // branch-and-bound gap samples, not just annealing events.
    let mut g = pesto::graph::OpGraph::new("tiny");
    let a = g.add_op("a", pesto::graph::DeviceKind::Gpu, 100.0, 16);
    let b = g.add_op("b", pesto::graph::DeviceKind::Gpu, 100.0, 16);
    g.add_edge(a, b, 1024).unwrap();
    let graph_path = tmp("tiny.json");
    std::fs::write(&graph_path, pesto::graph::to_json(&g.freeze().unwrap())).unwrap();

    let trace_path = tmp("trace.json");
    let metrics_path = tmp("metrics.json");
    let out = pesto_bin()
        .args([
            "place",
            graph_path.to_str().unwrap(),
            "--quick",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--verbose",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout stays a parseable plan even with telemetry flags on.
    let plan: serde_json::Value = serde_json::from_slice(&out.stdout).expect("plan JSON");
    assert!(plan.is_object());

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&trace).expect("valid trace JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for span in [
        "pesto.place",
        "pipeline.profile",
        "pipeline.coarsen",
        "ilp.formulate",
        "pipeline.solve",
        "milp.solve",
        "pipeline.simulate",
    ] {
        assert!(
            events.iter().any(|e| e["name"] == span),
            "trace is missing span {span}"
        );
    }
    // Solver-progress counter track for Perfetto.
    assert!(events.iter().any(|e| {
        e["ph"] == "C"
            && e["name"]
                .as_str()
                .is_some_and(|n| n.starts_with("solver gap"))
    }));

    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&metrics).expect("valid metrics JSON");
    assert!(
        parsed["counters"]["milp.nodes"].as_u64().unwrap_or(0) > 0,
        "{metrics}"
    );
    let events = parsed["solver_events"].as_array().expect("solver_events");
    assert!(
        events.iter().any(|e| e["kind"] == "gap"),
        "no MILP gap samples: {metrics}"
    );
    assert!(parsed["spans"].get("pipeline.solve").is_some());

    // --verbose printed the text summary and per-stage wall times.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stage"), "{err}");

    for p in [graph_path, trace_path, metrics_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn repair_of_a_plan_for_another_graph_is_a_clean_error() {
    // A 260-op NASNet-2-8 plan against a larger RNNLM-2-256 graph: the
    // plan is rejected as `simulate` rejects it (exit 1), not with an
    // out-of-range panic (exit 101).
    let generate = |args: &[&str], name: &str| {
        let out = pesto_bin().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = tmp(name);
        std::fs::write(&path, &out.stdout).unwrap();
        path
    };
    let big = generate(&["generate", "rnnlm", "2", "256"], "repair-big.json");
    let small = generate(&["generate", "nasnet", "2", "8"], "repair-small.json");
    let plan = generate(
        &["baseline", "m_sct", small.to_str().unwrap()],
        "repair-plan.json",
    );
    for cmd in [
        &["simulate", big.to_str().unwrap(), plan.to_str().unwrap()][..],
        &[
            "repair",
            big.to_str().unwrap(),
            plan.to_str().unwrap(),
            "--failed",
            "1",
        ],
    ] {
        let out = pesto_bin().args(cmd).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{}", cmd[0]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid plan: unknown operation"), "{err}");
    }
    for p in [big, small, plan] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn gpus_flag_is_validated() {
    let out = pesto_bin()
        .args(["baseline", "m_topo", "/dev/null", "--gpus", "abc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --gpus"));
}

#[test]
fn obs_subcommand_fetches_metrics_and_flight_dumps() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    // A one-shot stand-in for pesto-serve: answers any GET with a fixed
    // body the way the real daemon does (Content-Length, close).
    let serve_once = |body: &'static str| -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = stream.read(&mut buf);
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(resp.as_bytes()).unwrap();
        });
        addr
    };

    // `obs metrics` prints the exposition to stdout.
    let addr = serve_once("serve_jobs_submitted_total 3\n");
    let out = pesto_bin()
        .args(["obs", "metrics", "--addr", &addr])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "serve_jobs_submitted_total 3\n"
    );

    // `obs dump --out FILE` writes the flight dump to disk.
    let addr = serve_once("{\"enabled\":true}\n");
    let dump_path = tmp("flight.json");
    let out = pesto_bin()
        .args([
            "obs",
            "dump",
            "--addr",
            &addr,
            "--out",
            dump_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&dump_path).unwrap(),
        "{\"enabled\":true}\n"
    );

    // A dead address is a *retryable* failure (exit 75), matching the
    // shared transient classification.
    let out = pesto_bin()
        .args(["obs", "metrics", "--addr", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(75));
}
