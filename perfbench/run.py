#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig-64c --seed 42 --seconds 35 --trace 0

Configures and builds perfbench/ (the simulator library from src/ plus the
program in perfbench.cc) in Release mode under .bench_build/perfbench, then
runs one measurement. The program's last stdout line is the JSON result;
the exit status is non-zero when the build fails, a run fails its
correctness gates, or the run overruns its time limit. Any argument not
listed below is passed through to the program (see perfbench/README.md).
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170  # the measurement itself, after the (possibly no-op) build


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the bench binary or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def revision():
    """The git commit if the checkout has one, plus a digest of the sources
    the benchmark builds (a checkout need not be a git repository)."""
    rev = "none"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            rev = f.read().strip()
        if rev.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", rev[5:])) as f:
                rev = f.read().strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in os.walk(base):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "git:%s,sources-sha256:%s" % (rev[:12], h.hexdigest()[:16])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        # Inherited stdout: the program prints the JSON result last.
        return subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
