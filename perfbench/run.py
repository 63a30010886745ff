#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload archive|service|timeseries \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
aesz library and the perfbench executable (Release) into .bench_build/; later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the executable's result object. The traced run also writes
its spans to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("archive", "service", "timeseries")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from a checkout of the repository: the library sources are missing")
    build_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        # stdout of the build goes to our stderr: stdout carries results only.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def commit():
    """HEAD when this is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--inputs-only", action="store_true",
                    help="print the digest of the seeded inputs and exit")
    a = ap.parse_args()
    if a.seed < 0:
        fail("--seed must be >= 0")
    if not a.inputs_only and (a.seconds is None or a.seconds <= 0 or a.trace is None):
        fail("--seconds (> 0) and --trace are required")

    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed)]
    if a.inputs_only:
        cmd.append("--inputs-only")
    else:
        cmd += ["--seconds", repr(a.seconds), "--trace", a.trace]
        if a.trace == "1":
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
