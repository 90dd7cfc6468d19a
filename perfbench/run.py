#!/usr/bin/env python3
"""Build and run the pan-interconnect benchmark.

    python3 perfbench/run.py --workload evolve-steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds the benchmark package in
perfbench/ and the repository's `serve` binary into $CARGO_TARGET_DIR
(default .bench_build), then runs the benchmark program, whose last
stdout line is the summary JSON. Build output goes to stderr. Exits
non-zero, without a summary, when either build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("evolve-steady", "evolve-churn", "serve-mixed")
# Seconds the benchmark program may run before it is stopped.
RUN_TIMEOUT_S = 170
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench")


def source_digest(root):
    """SHA-256 over the paths and contents of the checkout's sources."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCE_ROOTS:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(entry)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.relpath(os.path.join(base, n), root) for n in names)
    for rel in sorted(files):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit(root):
    """The checkout's commit, or an empty string outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return ""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def cargo_build(args, root, env):
    """Runs one release build with its output on stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    result = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed with code {result.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    root = os.getcwd()
    env = dict(os.environ)
    target = os.path.join(root, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], root, env)
    cargo_build(["-p", "pan-bench", "--bin", "serve"], root, env)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(target, "release", "serve"),
        "--state-dir", os.path.join(target, "perfbench-state"),
        "--commit", git_commit(root),
        "--source-digest", source_digest(root),
    ]
    sys.stdout.flush()
    # A session of its own, so that a stop also reaches the server the
    # benchmark started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"run.py: the benchmark failed with code {code}")


if __name__ == "__main__":
    main()
