#!/usr/bin/env python3
"""Build and run grtdb's wire-level benchmark.

Usage, from the repository root:

    python3 wirebench/run.py --workload point_lookup --seed 1 --seconds 10 \
        --trace 0

Configures and builds wirebench/ (which compiles the grtdb libraries from
src/) under $CARGO_TARGET_DIR, default .bench_build, then runs one workload.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. The line before it stamps
the run (seed, cores, build type, connections, base size, writer rate) and
gives the metrics BENCHMARK.json does not list. Exits non-zero, without that
line, when the build fails, a check fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point_lookup", "current_scan", "mixed_rw", "wal_ingest")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; progress goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "wirebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="plant one wrong oracle answer; the run must "
                             "then fail (checks the checker)")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    root = os.getcwd()
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        binary = build(os.path.join(out_dir, "wirebench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    workdir = os.path.join(out_dir, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: wirebench timed out", file=sys.stderr)
        return 2
    finally:
        if args.trace:
            # Keep the benchmark's own spans beside the build.
            spans = os.path.join(workdir, "bench_spans.json")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(
                    out_dir, f"spans-{args.workload}-{args.seed}.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines:
        print(f"run.py: wirebench exited {proc.returncode}", file=sys.stderr)
        if lines:
            print(lines[-1], file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run.py: missing metrics {missing}", file=sys.stderr)
        return 1
    listed = {m["name"] for m in wanted}
    extra = {k: v for k, v in metrics.items() if k not in listed}
    print(json.dumps({"stamp": result["stamp"], "other_metrics": extra}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
