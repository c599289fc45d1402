#!/usr/bin/env python3
"""Benchmark of the ``wiring`` package: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload join --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn.

Generates the workload's inputs from ``--seed`` under
``.perfbench_runs/<workload>/``, times set-up in seven fresh processes,
runs the operations in the last of them, and checks every output against
an answer computed without ``wiring``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it holds the run's metadata.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("join", "fixpoint", "scripts", "laws")
RUNS_DIR = ".perfbench_runs"
SETUP_RUNS = 7  # set-up is timed in this many fresh processes, median reported
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in spans.SPAN_NAMES}
    units.update({name: "count" for name in spans.COUNT_NAMES})
    units["relations.out_per_in"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def git_sha(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(root: str, args, work: str, name: str, extra: list[str]) -> dict:
    result_path = os.path.join(work, f"{name}.json")
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--work", work,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path, *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{name} worker exited with status {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in (os.path.join("src", "wiring", "__init__.py"), gen.FACTORIAL_FIXTURE):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        status = run_workload(root, argparse.Namespace(**{**vars(args), "workload": workload}))
        if status:
            return status
    return 0


def run_workload(root: str, args) -> int:
    """Run one workload and print its metadata and result lines."""
    work = os.path.join(root, RUNS_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.perf_counter()
    gen.generate(args.workload, args.seed, work)
    generate_s = time.perf_counter() - started

    try:
        runs = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                runs.append(run_worker(root, args, work, f"setup{i}", ["--setup-only"]))
        main_run = run_worker(root, args, work, "worker", [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)
    setups = [run["setup_s"] for run in runs]
    raw_setups = [run["raw"]["setup_s"] for run in runs]

    attempted, failed = main_run["attempted"], main_run["failed"]
    if args.trace:
        units = layer_units()
        values = main_run["layers"]
    else:
        units = END_TO_END_UNITS
        values = {
            "latency_p50_ms": main_run["latency_p50_ms"],
            "latency_tail_ms": main_run["latency_tail_ms"],
            "throughput_ops_s": main_run["samples"] / main_run["busy_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
    correct = failed == 0 and (not args.trace or main_run["trace_check"]["self_within_traced"])

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 operation at a time",
        "ops_per_cycle": main_run["ops_per_cycle"],
        "cycles": main_run["cycles"],
        "samples": main_run["samples"],
        "tail_percentile": main_run["tail_percentile"],
        "op_median_ms": main_run["op_median_ms"],
        "failed_ratio": failed / attempted,
        "setup_runs_s": setups,
        "raw": {**main_run["raw"], "setup_runs_s": raw_setups},
        "generate_s": generate_s,
        "errors": main_run["errors"],
    }
    if args.trace:
        meta.update(
            traced_cycles=main_run["traced_cycles"],
            spans=main_run["spans"],
            spans_file=os.path.join(RUNS_DIR, args.workload, "spans.csv"),
            trace_check=main_run["trace_check"],
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, **result}, handle, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
