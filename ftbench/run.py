#!/usr/bin/env python3
"""Build and run the ftspan benchmark.

Usage (from the root of a checkout):

    python3 ftbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds ftbench/ (which compiles the ftspan library from the
checkout's sources) into $CARGO_TARGET_DIR, default `.bench_build`, then runs
the ftbench binary with the same arguments. Build output goes to stderr; the
binary's last stdout line is the result JSON. Exits non-zero without a result
when the checkout holds no ftspan sources or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("convert", "validate", "serve_miss")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[ftbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds ftbench; returns its path or None."""
    src = os.path.join(root, "ftbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "ftbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    exe = os.path.join(build_dir, "ftbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log(f"no ftspan sources in {root}; nothing to benchmark")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    build_dir = os.path.join(build_dir, "ftbench")
    exe = build(root, build_dir)
    if exe is None:
        log("build failed")
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "traces")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ftbench exceeded {RUN_TIMEOUT_S}s; killed")
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
