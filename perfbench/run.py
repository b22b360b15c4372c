#!/usr/bin/env python3
"""Builds and runs the pesto-rs benchmark (the `perfbench` crate next to
this file) for one workload.

    python3 perfbench/run.py --workload place_rnnlm --seed 1 --seconds 25 --trace 0

Run it from the repository root. It builds the benchmark in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), runs it, and passes its
output through: the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Files (chrome traces with
`--trace 1`, the serve workloads' temporary data directory) are written
only under `--out`, default `.perfbench-out`. The exit code is the
benchmark's: 0 when every output was correct, non-zero otherwise or when
the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark must finish within three minutes of starting to measure.
RUN_TIMEOUT_S = 175


def git_revision():
    """The checkout's git revision, read from `.git` without running git;
    `unknown` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", default=os.path.join(os.getcwd(), ".perfbench-out"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.getcwd(), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", os.path.abspath(args.out),
        "--git-rev", git_revision(),
        "--rustc", rustc_version(),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
