//! `pesto` — command-line front end for the placement pipeline.
//!
//! ```text
//! pesto generate <rnnlm|nmt|transformer|nasnet> [ARGS..]  > graph.json
//! pesto place    <graph.json> [--gpus N] [--quick] [--iters N]
//!                [--shard] [--region-cap N] [--budget-ms N]
//!                [--checkpoint FILE] [--resume] [--checkpoint-every N]
//!                [--trace-out FILE] [--metrics-out FILE] [--verbose] > plan.json
//! pesto simulate <graph.json> <plan.json> [--svg out.svg] [--gpus N] [--steps K]
//! pesto baseline <expert|m_topo|m_etf|m_sct> <graph.json> [--gpus N] > plan.json
//! pesto repair   <graph.json> <plan.json> --failed N [--gpus N] [--budget-ms N] > plan.json
//! pesto info     <graph.json>
//! pesto obs      <dump|metrics> --addr HOST:PORT [--out FILE]
//! pesto models
//! pesto help
//! ```
//!
//! Graphs and plans are JSON; `generate` writes to stdout so pipelines
//! compose: `pesto generate rnnlm 2 256 | tee g.json | pesto info /dev/stdin`.
//! `--trace-out` writes a Chrome-trace JSON of the pipeline's own stages
//! (open it in `chrome://tracing` or <https://ui.perfetto.dev>);
//! `--metrics-out` writes the flat metrics/event dump. `obs` talks to a
//! running `pesto-serve` daemon: `obs metrics` fetches the Prometheus
//! `/metrics` exposition, `obs dump` the `/debug/flight` flight-recorder
//! snapshot (recent spans, solver events, metric history).
//!
//! Crash safety: `place --checkpoint FILE` snapshots the search state
//! atomically as it runs; re-running the same command with `--resume`
//! after a crash (or SIGKILL) continues from the snapshot instead of
//! starting over. `repair` re-places the ops stranded by a dead GPU —
//! greedily with `--budget-ms 0`, with a bounded local search otherwise.

use pesto::baselines::{expert, m_etf, m_sct, m_topo};
use pesto::cost::CommModel;
use pesto::graph::{from_json, to_json, Cluster, FrozenGraph, Plan};
use pesto::models::ModelSpec;
use pesto::obs::Obs;
use pesto::sim::Simulator;
use pesto::{
    quarantine_file, repair_after_outage, CheckpointConfig, CheckpointError, FsStorage, Pesto,
    PestoConfig, PestoError,
};
use std::fs;
use std::process::ExitCode;
use std::time::Duration;

/// Every subcommand: name, positional-argument template, and the complete
/// set of flags its parser accepts (`(flag, value-placeholder)`, empty
/// placeholder = boolean flag). This table is the single source of truth:
/// `usage()` renders it, and `flag_value`/`has_flag` assert (in debug
/// builds, which is what `cargo test` exercises) that every flag the
/// parser consults is declared here — so help text and parser cannot
/// drift apart.
type CommandSpec = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

const COMMANDS: &[CommandSpec] = &[
    ("generate", "<rnnlm|nmt|transformer|nasnet> [dims..]", &[]),
    (
        "place",
        "<graph.json>",
        &[
            ("--gpus", "N"),
            ("--quick", ""),
            ("--iters", "N"),
            ("--threads", "N"),
            ("--shard", ""),
            ("--region-cap", "N"),
            ("--budget-ms", "N"),
            ("--checkpoint", "FILE"),
            ("--resume", ""),
            ("--checkpoint-every", "N"),
            ("--trace-out", "FILE"),
            ("--metrics-out", "FILE"),
            ("--verbose", ""),
        ],
    ),
    (
        "simulate",
        "<graph.json> <plan.json>",
        &[("--gpus", "N"), ("--steps", "K"), ("--svg", "FILE")],
    ),
    (
        "baseline",
        "<expert|m_topo|m_etf|m_sct> <graph.json>",
        &[("--gpus", "N")],
    ),
    (
        "repair",
        "<graph.json> <plan.json>",
        &[("--failed", "N"), ("--gpus", "N"), ("--budget-ms", "N")],
    ),
    ("info", "<graph.json>", &[]),
    (
        "obs",
        "<dump|metrics>",
        &[("--addr", "HOST:PORT"), ("--out", "FILE")],
    ),
    ("models", "", &[]),
    ("help", "", &[]),
];

fn usage() -> String {
    let mut s = String::from("usage:\n");
    for (name, positionals, flags) in COMMANDS {
        let mut line = format!("  pesto {name}");
        if !positionals.is_empty() {
            line.push(' ');
            line.push_str(positionals);
        }
        for (flag, value) in *flags {
            if value.is_empty() {
                line.push_str(&format!(" [{flag}]"));
            } else {
                line.push_str(&format!(" [{flag} {value}]"));
            }
        }
        s.push_str(&line);
        s.push('\n');
    }
    s
}

/// A CLI failure: the message plus the shared retryable classification
/// (see [`PestoError::is_retryable`]). Retryable failures exit with `75`
/// (BSD `EX_TEMPFAIL`) so scripts and schedulers can re-run the identical
/// command; permanent failures exit `1`. The `pesto-serve` backoff policy
/// uses the same classification.
struct CliError {
    msg: String,
    retryable: bool,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError {
            msg,
            retryable: false,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError {
            msg: msg.to_string(),
            retryable: false,
        }
    }
}

impl From<PestoError> for CliError {
    fn from(e: PestoError) -> Self {
        CliError {
            retryable: e.is_retryable(),
            msg: e.to_string(),
        }
    }
}

/// Exit code for retryable failures (BSD sysexits `EX_TEMPFAIL`).
const EXIT_TEMPFAIL: u8 = 75;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.retryable => {
            eprintln!("error: {} (transient; safe to retry)", e.msg);
            ExitCode::from(EXIT_TEMPFAIL)
        }
        Err(e) => {
            eprintln!("error: {}", e.msg);
            eprintln!();
            eprint!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn declared(cmd: &str, name: &str) -> bool {
    COMMANDS
        .iter()
        .find(|(c, _, _)| *c == cmd)
        .is_some_and(|(_, _, flags)| flags.iter().any(|(f, _)| *f == name))
}

fn flag_value(args: &[String], cmd: &str, name: &str) -> Option<String> {
    debug_assert!(
        declared(cmd, name),
        "flag {name} is not declared for `{cmd}` in COMMANDS"
    );
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], cmd: &str, name: &str) -> bool {
    debug_assert!(
        declared(cmd, name),
        "flag {name} is not declared for `{cmd}` in COMMANDS"
    );
    args.iter().any(|a| a == name)
}

fn cluster_from(args: &[String], cmd: &str) -> Result<Cluster, String> {
    let gpus: usize = flag_value(args, cmd, "--gpus")
        .map(|v| v.parse().map_err(|_| format!("bad --gpus value {v}")))
        .transpose()?
        .unwrap_or(2);
    if gpus == 0 {
        return Err("--gpus must be at least 1".into());
    }
    Ok(Cluster::homogeneous(gpus, 16 * 1024 * 1024 * 1024))
}

fn load_graph(path: &str) -> Result<FrozenGraph, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Minimal blocking HTTP/1.1 GET against a `pesto-serve` daemon. The
/// server always answers `Connection: close` with a `Content-Length`, so
/// read-to-end after the blank line is the whole body. (The CLI cannot
/// use `pesto_serve::http` — that crate depends on this one.)
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let timeout = Some(Duration::from_secs(10));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response (no header terminator)".to_string())?;
    let status_line = head.lines().next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    if status != 200 {
        return Err(format!("server answered {status}: {}", body.trim()));
    }
    Ok(body.to_string())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().map(String::as_str).ok_or("missing command")?;
    match cmd {
        "generate" => {
            let family = args
                .get(1)
                .map(String::as_str)
                .ok_or("missing model family")?;
            let num = |i: usize, default: usize| -> usize {
                args.get(i).and_then(|v| v.parse().ok()).unwrap_or(default)
            };
            let spec = match family {
                "rnnlm" => ModelSpec::rnnlm(num(2, 2), num(3, 2048)),
                "nmt" => ModelSpec::nmt(num(2, 2), num(3, 1024)),
                "transformer" => ModelSpec::transformer(num(2, 6), num(3, 8), num(4, 1024)),
                "nasnet" => ModelSpec::nasnet(num(2, 4), num(3, 148)),
                other => return Err(format!("unknown model family {other}").into()),
            };
            let graph = spec.generate(spec.paper_batch(), 1);
            println!("{}", to_json(&graph));
            eprintln!(
                "generated {}: {} ops, {} edges",
                spec.label(),
                graph.op_count(),
                graph.edge_count()
            );
            Ok(())
        }
        "place" => {
            let path = args.get(1).ok_or("missing graph path")?;
            let cluster = cluster_from(args, "place")?;
            let graph = load_graph(path)?;
            let trace_out = flag_value(args, "place", "--trace-out");
            let metrics_out = flag_value(args, "place", "--metrics-out");
            let verbose = has_flag(args, "place", "--verbose");
            let mut config = if has_flag(args, "place", "--quick") {
                PestoConfig::fast()
            } else {
                PestoConfig::default()
            };
            if trace_out.is_some() || metrics_out.is_some() || verbose {
                config.obs = Obs::enabled();
            }
            if let Some(iters) = flag_value(args, "place", "--iters") {
                config.placer.hybrid.iterations = iters
                    .parse()
                    .map_err(|_| format!("bad --iters value {iters}"))?;
            }
            if let Some(threads) = flag_value(args, "place", "--threads") {
                config.solver_threads = threads
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad --threads value {threads}"))?;
            }
            if has_flag(args, "place", "--shard") {
                let mut shard = pesto::shard::ShardConfig::default();
                if let Some(cap) = flag_value(args, "place", "--region-cap") {
                    shard.region_cap = cap
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| format!("bad --region-cap value {cap}"))?;
                }
                config.shard = Some(shard);
            } else if flag_value(args, "place", "--region-cap").is_some() {
                return Err("--region-cap requires --shard".into());
            }
            if let Some(ms) = flag_value(args, "place", "--budget-ms") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad --budget-ms value {ms}"))?;
                config.time_budget = Some(Duration::from_millis(ms));
            }
            let resume = has_flag(args, "place", "--resume");
            match flag_value(args, "place", "--checkpoint") {
                Some(path) => {
                    let every = flag_value(args, "place", "--checkpoint-every")
                        .map(|v| {
                            v.parse()
                                .map_err(|_| format!("bad --checkpoint-every value {v}"))
                        })
                        .transpose()?
                        .unwrap_or(200);
                    config.checkpoint = Some(CheckpointConfig {
                        every_iters: every,
                        resume,
                        ..CheckpointConfig::new(path)
                    });
                }
                None if resume => {
                    return Err("--resume requires --checkpoint FILE".into());
                }
                None => {}
            }
            let obs = config.obs.clone();
            let retry_config = config.clone();
            let outcome = match Pesto::new(config).place(&graph, &cluster) {
                // A checkpoint that fails its integrity check (torn
                // write, bit rot) should not brick the resume command:
                // move the evidence into quarantine/ and run once more
                // from scratch. Every *other* checkpoint error (version
                // skew, wrong job, I/O) still surfaces as-is.
                Err(PestoError::Checkpoint(CheckpointError::Corrupt(msg))) if resume => {
                    let mut fresh = retry_config;
                    let ckpt = fresh
                        .checkpoint
                        .as_mut()
                        .expect("--resume implies --checkpoint");
                    eprintln!("warning: checkpoint failed integrity check: {msg}");
                    match quarantine_file(&FsStorage, &ckpt.path) {
                        Ok(dest) => eprintln!(
                            "warning: quarantined corrupt checkpoint to {}",
                            dest.display()
                        ),
                        Err(e) => eprintln!("warning: could not quarantine checkpoint: {e}"),
                    }
                    eprintln!("warning: restarting the search from scratch");
                    ckpt.resume = false;
                    Pesto::new(fresh)
                        .place(&graph, &cluster)
                        .map_err(CliError::from)?
                }
                other => other.map_err(CliError::from)?,
            };
            println!(
                "{}",
                serde_json::to_string(&outcome.plan).map_err(|e| e.to_string())?
            );
            eprintln!(
                "placed in {:?}; simulated per-step time {:.2} ms{}",
                outcome.placement_time,
                outcome.makespan_us / 1000.0,
                if outcome.resumed {
                    " (resumed from checkpoint)"
                } else {
                    ""
                }
            );
            for t in &outcome.stage_timings {
                eprintln!("  stage {:<9} {:>10.1} µs", t.stage, t.wall_us);
            }
            if let Some(p) = trace_out {
                fs::write(&p, obs.chrome_trace()).map_err(|e| format!("cannot write {p}: {e}"))?;
                eprintln!("wrote {p} (open in chrome://tracing or ui.perfetto.dev)");
            }
            if let Some(p) = metrics_out {
                fs::write(&p, obs.metrics_json()).map_err(|e| format!("cannot write {p}: {e}"))?;
                eprintln!("wrote {p}");
            }
            if verbose {
                eprint!("{}", obs.text_summary());
            }
            Ok(())
        }
        "baseline" => {
            let name = args
                .get(1)
                .map(String::as_str)
                .ok_or("missing baseline name")?;
            let path = args.get(2).ok_or("missing graph path")?;
            let cluster = cluster_from(args, "baseline")?;
            let graph = load_graph(path)?;
            let comm = CommModel::default_v100();
            let plan = match name {
                "expert" => expert(&graph, &cluster),
                "m_topo" => m_topo(&graph, &cluster),
                "m_etf" => m_etf(&graph, &cluster, &comm),
                "m_sct" => m_sct(&graph, &cluster, &comm),
                other => return Err(format!("unknown baseline {other}").into()),
            };
            println!(
                "{}",
                serde_json::to_string(&plan).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        "simulate" => {
            let gpath = args.get(1).ok_or("missing graph path")?;
            let ppath = args.get(2).ok_or("missing plan path")?;
            let cluster = cluster_from(args, "simulate")?;
            let graph = load_graph(gpath)?;
            let plan: Plan = serde_json::from_str(
                &fs::read_to_string(ppath).map_err(|e| format!("cannot read {ppath}: {e}"))?,
            )
            .map_err(|e| format!("cannot parse {ppath}: {e}"))?;
            let steps: usize = flag_value(args, "simulate", "--steps")
                .map(|v| v.parse().map_err(|_| format!("bad --steps value {v}")))
                .transpose()?
                .unwrap_or(1);
            if steps == 0 {
                return Err("--steps must be at least 1".into());
            }
            let report = Simulator::new(&graph, &cluster, CommModel::default_v100())
                .with_steps(steps)
                .run(&plan)
                .map_err(|e| e.to_string())?;
            if let Some(stats) = &report.pipeline {
                println!(
                    "{} pipelined steps in {:.2} ms",
                    stats.steps,
                    report.makespan_us / 1000.0
                );
                println!("fill:         {:.2} ms", stats.fill_us / 1000.0);
                println!("steady step:  {:.2} ms", stats.steady_step_us / 1000.0);
                println!("drain:        {:.2} ms", stats.drain_us / 1000.0);
            } else {
                println!("per-step time: {:.2} ms", report.makespan_us / 1000.0);
            }
            println!(
                "queueing delay: {:.2} ms over {} transfers",
                report.total_queue_delay_us() / 1000.0,
                report.transfer_spans.len()
            );
            print!("{}", report.timeline(&cluster, 72));
            if let Some(svg_path) = flag_value(args, "simulate", "--svg") {
                fs::write(&svg_path, report.to_svg(&cluster, 900))
                    .map_err(|e| format!("cannot write {svg_path}: {e}"))?;
                eprintln!("wrote {svg_path}");
            }
            Ok(())
        }
        "repair" => {
            let gpath = args.get(1).ok_or("missing graph path")?;
            let ppath = args.get(2).ok_or("missing plan path")?;
            let cluster = cluster_from(args, "repair")?;
            let graph = load_graph(gpath)?;
            let plan: Plan = serde_json::from_str(
                &fs::read_to_string(ppath).map_err(|e| format!("cannot read {ppath}: {e}"))?,
            )
            .map_err(|e| format!("cannot parse {ppath}: {e}"))?;
            let failed_idx: usize = flag_value(args, "repair", "--failed")
                .ok_or("missing --failed N (index of the dead GPU)")?
                .parse()
                .map_err(|_| "bad --failed value".to_string())?;
            let failed = *cluster.gpus().get(failed_idx).ok_or(format!(
                "--failed {failed_idx} out of range: cluster has {} GPUs",
                cluster.gpu_count()
            ))?;
            let budget_ms: u64 = flag_value(args, "repair", "--budget-ms")
                .map(|v| v.parse().map_err(|_| format!("bad --budget-ms value {v}")))
                .transpose()?
                .unwrap_or(0);
            let out = repair_after_outage(
                &graph,
                &cluster,
                CommModel::default_v100(),
                &plan,
                failed,
                Duration::from_millis(budget_ms),
            )
            .map_err(CliError::from)?;
            println!(
                "{}",
                serde_json::to_string(&out.plan).map_err(|e| e.to_string())?
            );
            eprintln!(
                "repaired after GPU{failed_idx} outage: moved {} ops, per-step time \
                 {:.2} ms on {} surviving GPUs ({})",
                out.moved_ops,
                out.makespan_us / 1000.0,
                out.cluster.gpu_count(),
                if budget_ms == 0 {
                    "greedy".to_string()
                } else {
                    format!("local search, {budget_ms} ms budget")
                }
            );
            Ok(())
        }
        "info" => {
            let path = args.get(1).ok_or("missing graph path")?;
            let graph = load_graph(path)?;
            println!("name:        {}", graph.name());
            println!("ops:         {}", graph.op_count());
            println!("edges:       {}", graph.edge_count());
            println!(
                "memory:      {:.2} GiB",
                graph.total_memory_bytes() as f64 / (1u64 << 30) as f64
            );
            println!(
                "compute:     {:.2} ms serial, {:.2} ms critical path",
                graph.total_compute_us() / 1000.0,
                graph.critical_path_us() / 1000.0
            );
            Ok(())
        }
        "obs" => {
            let what = args
                .get(1)
                .map(String::as_str)
                .ok_or("missing obs subcommand (dump|metrics)")?;
            let path = match what {
                "dump" => "/debug/flight",
                "metrics" => "/metrics",
                other => return Err(format!("unknown obs subcommand {other}").into()),
            };
            let addr = flag_value(args, "obs", "--addr")
                .ok_or("missing --addr HOST:PORT (the pesto-serve address)")?;
            let body = http_get(&addr, path).map_err(|e| CliError {
                msg: format!("GET {addr}{path}: {e}"),
                retryable: true,
            })?;
            match flag_value(args, "obs", "--out") {
                Some(out) => {
                    fs::write(&out, &body).map_err(|e| format!("cannot write {out}: {e}"))?;
                    eprintln!("wrote {out}");
                }
                None => {
                    print!("{body}");
                    if !body.ends_with('\n') {
                        println!();
                    }
                }
            }
            Ok(())
        }
        "models" => {
            // The paper's eleven evaluation variants (§5.2) at their paper
            // batch sizes, with the op/edge counts our generators produce.
            println!(
                "{:<24} {:>6} {:>8} {:>8} {:>10}",
                "model", "batch", "ops", "edges", "mem GiB"
            );
            for spec in pesto::models::paper_variants() {
                let graph = spec.generate(spec.paper_batch(), 1);
                println!(
                    "{:<24} {:>6} {:>8} {:>8} {:>10.2}",
                    spec.label(),
                    spec.paper_batch(),
                    graph.op_count(),
                    graph.edge_count(),
                    graph.total_memory_bytes() as f64 / (1u64 << 30) as f64
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        // Hidden: machine-readable dump of COMMANDS for the help-audit
        // test (`tests/cli.rs`), one `<command> <flag>...` line each.
        "__flags" => {
            for (name, _, flags) in COMMANDS {
                let flags: Vec<&str> = flags.iter().map(|(f, _)| *f).collect();
                println!("{name} {}", flags.join(" "));
            }
            Ok(())
        }
        other => Err(format!("unknown command {other}").into()),
    }
}
