//! Kill-and-resume integration test: a checkpointed `pesto place` run is
//! SIGKILLed mid-search at a real process boundary, resumed from its
//! checkpoint file, and must finish no worse than an uninterrupted run
//! given the same iteration budget (with the same seed the two are in
//! fact identical — resume is deterministic).

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn pesto_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pesto"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pesto-kill-test-{}-{name}", std::process::id()));
    p
}

/// Pulls `X.XX` out of the CLI's `simulated per-step time X.XX ms` line.
fn step_ms(stderr: &str) -> f64 {
    let tail = stderr
        .split("per-step time ")
        .nth(1)
        .unwrap_or_else(|| panic!("no per-step time in stderr: {stderr}"));
    tail.split(" ms")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable per-step time in stderr: {stderr}"))
}

#[test]
fn sigkilled_search_resumes_and_matches_the_uninterrupted_run() {
    let out = pesto_bin()
        .args(["generate", "transformer", "2", "2", "128"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let graph_path = tmp("graph.json");
    std::fs::write(&graph_path, &out.stdout).unwrap();
    let ck = tmp("search.ckpt.json");
    let _ = std::fs::remove_file(&ck);

    let graph = graph_path.to_str().unwrap();
    let iters = "60000";
    let base = |cmd: &mut Command| {
        cmd.args(["place", graph, "--quick", "--iters", iters]);
    };

    // Phase 1: start a checkpointed run, wait for the first snapshot to
    // land on disk, then SIGKILL the process mid-search.
    let mut cmd = pesto_bin();
    base(&mut cmd);
    let mut child = cmd
        .args([
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "25",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished_early = false;
    while Instant::now() < deadline && !ck.exists() {
        if child.try_wait().unwrap().is_some() {
            finished_early = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok(); // SIGKILL: no cleanup handlers run
    let _ = child.wait();
    // Even if the run won the race and completed, its final checkpoint is
    // on disk, so the resume path below is still exercised; note which
    // case we hit for debugging.
    assert!(
        ck.exists(),
        "no checkpoint appeared within 120 s (finished_early={finished_early})"
    );

    // Phase 2: resume from the snapshot and run to completion.
    let mut cmd = pesto_bin();
    base(&mut cmd);
    let resumed = cmd
        .args(["--checkpoint", ck.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    let resumed_err = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{resumed_err}");
    assert!(
        resumed_err.contains("(resumed from checkpoint)"),
        "resume not acknowledged: {resumed_err}"
    );
    let resumed_ms = step_ms(&resumed_err);

    // Phase 3: an uninterrupted run with the same budget and no
    // checkpoint. Same seed, same iteration budget: the resumed search
    // must never end up worse.
    let mut cmd = pesto_bin();
    base(&mut cmd);
    let cold = cmd.output().unwrap();
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold.status.success(), "{cold_err}");
    let cold_ms = step_ms(&cold_err);

    assert!(
        resumed_ms <= cold_ms + 1e-6,
        "resumed run ({resumed_ms} ms) lost to a cold restart ({cold_ms} ms)"
    );

    for p in [graph_path, ck] {
        let _ = std::fs::remove_file(p);
    }
}
