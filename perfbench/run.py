#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload kv-a --seed 1 --seconds 12 --trace 0

Prints the driver's provenance line, then one JSON result line, last.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; span logs and traces go beside it. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kv-a", "kv-b", "fuzz-crash", "cbo-redundant")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def target_dir():
    """The build root, kept inside the checkout whatever the env says."""
    target = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT != target and ROOT not in target.parents:
        target = ROOT / ".bench_build"
    return target


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build(build_dir):
    """Configure once, then build incrementally; quiet unless it fails."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    log.write_text("")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            sys.stderr.write(log.read_text()[-4000:])
            sys.exit("perfbench: build failed (log: %s)" % log)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs (the benchmark's own tests)")
    ap.add_argument("--break-probe-invalidate", action="store_true",
                    help="negative control: inject the probe fault")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources in %s" % ROOT)
    target = target_dir()
    exe = build(target / "perfbench")
    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.break_probe_invalidate:
        cmd.append("--break-probe-invalidate")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: run failed with exit code %d" % done.returncode)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
