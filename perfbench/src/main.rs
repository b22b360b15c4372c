//! `perfbench`: the pesto-rs benchmark.
//!
//! One binary runs one workload for a fixed measuring time and prints, as
//! the last line of its standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Workloads (all on the paper's 2-GPU cluster with the default V100
//! communication model):
//!
//! * `place_rnnlm`: closed-loop `Pesto::place` of RNNLM-2-1024, default
//!   configuration, one solver thread;
//! * `place_sharded`: closed-loop sharded `Pesto::place` of RNNLM-4-1024,
//!   two solver threads;
//! * `ilp_exact`: the paper's exact ILP, built and solved to proven
//!   optimality on a set of coarsened NASNet-2-8 instances;
//! * `serve_small`: an in-process `pesto-serve` daemon driven by one
//!   closed-loop client.
//!
//! `--trace 0` reports the end-to-end metrics (the same four names on every
//! workload); `--trace 1` runs the same workload with telemetry enabled
//! and reports every per-layer metric listed in `layers.json`. Every
//! workload checks its outputs; a wrong output makes `correct` false and
//! the exit code 1. Files are written only under `--out`.
//!
//! Times are CPU times, so the time an operation waited for a core does
//! not count, and the end-to-end ones (`op_ms`, `setup_s`) are scaled by
//! the reference computation of `calib` to a nominal host speed, so the
//! host's drift does not count either. The wall-clock and unscaled times
//! are per-layer metrics (`op_wall_ms`, `op_cpu_ms`, `ref.ms`).

mod calib;
mod ilp;
mod kernels;
mod place;
mod serve;
mod stats;

use pesto::obs::Obs;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["place_rnnlm", "place_sharded", "ilp_exact", "serve_small"];

/// The end-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("op_ms", "ms"),
    ("quality_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric table: name, unit, layer and which end-to-end metric
/// it should move on which workload. The single source of the per-layer
/// names; `BENCHMARK.json` lists the same names and units.
const LAYERS_JSON: &str = include_str!("../layers.json");

/// Writes the traced run's spans, kept in memory until now, as one
/// chrome trace under `--out`.
pub fn write_trace(args: &Args, obs: &Obs, out: &mut Outcome) {
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::write(&path, obs.chrome_trace()) {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => out
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Generation seed of input `k` of a run seeded `seed`: every run draws
/// its own set of inputs, and one seed always draws the same set.
pub fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// Records the branch-and-bound counters `obs` collected, divided by
/// `per` (the number of solves they cover).
pub fn record_milp_counters(obs: &Obs, out: &mut Outcome, per: f64) {
    for name in [
        "milp.nodes",
        "milp.lp_pivots",
        "milp.prune.bound",
        "milp.prune.infeasible",
    ] {
        out.set(name, obs.counter(name) as f64 / per.max(1.0));
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: PathBuf,
    pub git_rev: String,
    pub rustc: String,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (placements, ILP solves, jobs sent).
    pub attempted: u64,
    /// Operations that failed, were refused or were lost.
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<String, f64>,
    /// Solver threads and LP pool threads the workload used, and serve
    /// workers (0 when no daemon runs).
    pub solver_threads: usize,
    pub serve_workers: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(msg());
        }
    }
}

/// The telemetry handle of a traced run (disabled otherwise): spans
/// around each call into a crate, kept in memory and written once.
pub fn tracer(trace: bool) -> Obs {
    if trace {
        Obs::enabled_with_capacities(1 << 16, 1 << 16)
    } else {
        Obs::disabled()
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")
        .map_or(Ok(1), |v| v.parse())
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")
        .map_or(Ok(10.0), |v| v.parse())
        .map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("bad --trace {v:?} (expected 0 or 1)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        out: PathBuf::from(get("--out").ok_or("missing --out")?),
        git_rev: get("--git-rev").unwrap_or_else(|| "unknown".into()),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
    })
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `(name, unit)` of every per-layer metric in `layers.json`.
fn per_layer_units() -> Vec<(String, String)> {
    let table: serde_json::Value = serde_json::from_str(LAYERS_JSON).expect("layers.json parses");
    table
        .as_array()
        .expect("layers.json is an array")
        .iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(|v| v.as_str()).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut outcome = match args.workload.as_str() {
        "place_rnnlm" => place::run(&args, false),
        "place_sharded" => place::run(&args, true),
        "ilp_exact" => ilp::run(&args),
        "serve_small" => serve::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };

    let rss = peak_rss_mb();
    outcome.check(rss.is_some(), || {
        "cannot read VmHWM from /proc/self/status".into()
    });
    let expected: Vec<(String, String)> = if args.trace {
        per_layer_units()
    } else {
        // A workload may have read it earlier, at a point of its own.
        if !outcome.metrics.contains_key("peak_rss_mb") {
            outcome.set("peak_rss_mb", rss.unwrap_or(0.0));
        }
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    outcome.check(outcome.attempted > 0, || {
        "no operation was attempted".into()
    });
    let mut metrics = Vec::new();
    for (name, unit) in &expected {
        // A layer the workload does not exercise reports 0.
        let value = outcome
            .metrics
            .get(name)
            .copied()
            .or(args.trace.then_some(0.0));
        match value {
            Some(v) if v.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )),
            Some(v) => outcome
                .errors
                .push(format!("metric {name} is not finite ({v})")),
            None => outcome
                .errors
                .push(format!("metric {name} was not measured")),
        }
    }
    let host = format!(
        "{{\"nproc\": {}, \"solver_threads\": {}, \"lp_pool_threads\": {}, \"serve_workers\": {}, \
         \"git_rev\": {}, \"rustc\": {}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        outcome.solver_threads,
        rayon::current_num_threads(),
        outcome.serve_workers,
        json_string(&args.git_rev),
        json_string(&args.rustc),
        args.seed,
        json_string(&args.workload),
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    );
    println!("host: {host}");
    for e in &outcome.errors {
        println!("INCORRECT: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
