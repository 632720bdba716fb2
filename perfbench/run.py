#!/usr/bin/env python3
"""Build the audit benchmark and run one of its workloads.

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 25 --trace 0

Builds `repro` (the process backend's worker) and the `perfbench` harness,
release and offline, into $CARGO_TARGET_DIR (default: `.bench_build` at the
repository root), then runs the harness from the repository root. The last
line of stdout is the JSON result. `--workload all` runs the three workloads
one after another in one process.

Exit codes: 0 on a completed run (check `correct` in the result), 1 when the
repository or the build is missing, 2 on a usage error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join(ROOT, "perfbench", "harness")
WORKLOADS = ("paper_all", "campaign_sweep", "faulted_process", "all")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(target_dir, *args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout carries only the harness's lines.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_hash():
    """SHA-256 over the sources the benchmark builds, for provenance."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    for name in ("Cargo.toml", "Cargo.lock"):
        with open(os.path.join(ROOT, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_hash():
    """The checked-out commit, when the repository root is a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("Cargo.toml", "Cargo.lock", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    cargo_build(target_dir, "-p", "alexa-bench", "--bin", "repro")
    cargo_build(target_dir, "--manifest-path", os.path.join(HARNESS, "Cargo.toml"))

    binary = os.path.join(target_dir, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--repro", os.path.join(target_dir, "release", "repro"),
        "--root", ROOT,
        "--commit", commit_hash(),
        "--source", source_hash(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
