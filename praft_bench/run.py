#!/usr/bin/env python3
"""Builds praft_bench from this checkout and runs one workload of it.

    python3 praft_bench/run.py --workload lan-write-raft --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is built with CMake into
$CARGO_TARGET_DIR/praft_bench (default .bench_build/praft_bench). The binary
repeats the workload until --seconds of wall time are used (at least three
repetitions). The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

It holds the end-to-end metrics named in BENCHMARK.json, or with --trace 1
the per-layer metrics. Build output and the binary's own report go to
standard error. Without a result (failed build, crash, timeout) the script
prints nothing on standard output and exits 1.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s, the first one (which builds) within 900 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 660
RUN_TIMEOUT_S = 160
MIN_REPS = 3


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout, env=None):
    """Runs `cmd` with its output on stderr, in its own process group so a
    timeout stops every process it started. Returns the exit status."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno(),
                            stderr=sys.stderr.fileno(),
                            start_new_session=True, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return 1


def build(build_dir):
    jobs = str(min(2, os.cpu_count() or 1))
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 CONFIGURE_TIMEOUT_S, env) != 0:
        fail("cmake configure failed")
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                 BUILD_TIMEOUT_S, env) != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "praft_bench")
    if not os.access(binary, os.X_OK):
        fail(f"no binary at {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "praft_bench")
    binary = build(build_dir)

    out_path = os.path.join(build_dir, f"result-{os.getpid()}.json")
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--reps={MIN_REPS}", f"--seconds={args.seconds}",
           f"--json={out_path}"]
    if args.trace:
        cmd.append("--trace")
    started = time.monotonic()
    status = run_quiet(cmd, RUN_TIMEOUT_S)
    try:
        with open(out_path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"praft_bench exited {status} without a result: {e}")
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    print(f"run.py: measured for {time.monotonic() - started:.1f} s",
          file=sys.stderr)

    rows = {r["metric"]: r for r in doc["rows"]
            if r["workload"] == args.workload}
    metrics = {}
    for m in wanted:
        row = rows.get(m["name"])
        if row is None or row["value"] is None:
            fail(f"praft_bench reported no {m['name']}")
        if row["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {row['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": row["value"], "unit": m["unit"]}
    for name in ("ops_attempted", "ops_failed"):
        if name not in rows:
            fail(f"praft_bench reported no {name}")
    print(json.dumps({
        "correct": bool(doc["ok"]) and status == 0,
        "attempted": int(rows["ops_attempted"]["value"]),
        "failed": int(rows["ops_failed"]["value"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
