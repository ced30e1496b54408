#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet_hot --seed 1 --seconds 10 --trace 0

The benchmark is compiled from the checkout's own sources (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, on every
call (incremental after the first). The driver's output is relayed; its last
stdout line is the JSON result. With --trace 1 the spans of the traced
window are written next to the build as spans_<workload>_<seed>.tsv.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet_hot", "drift_replay", "orchestrate_dag")
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def quiet(cmd):
    """Runs a build step; its output is shown only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no library sources at {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    return out / "fsw_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", type=int, choices=(0, 1), default=0,
                        help="corrupt one served winner before certification "
                             "(checks that the certifier catches it)")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tamper", str(args.tamper)]
    if args.trace:
        cmd += ["--spans-dir", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected result keys")
    except (IndexError, ValueError) as e:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: no result line ({e}); exit code "
                 f"{proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
