"""Tests of the benchmark itself.  Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, meta = json.loads(lines[-1]), json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, meta["errors"]
    assert result["attempted"] >= 1 and meta["failed_ratio"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    for key in ("git_sha", "python", "nproc", "seed", "samples", "tail_percentile", "cycles"):
        assert key in meta
    if trace:
        check = meta["trace_check"]
        assert check["self_sum_s"] <= check["traced_s"]


@pytest.mark.parametrize("workload", ["join", "fixpoint", "scripts"])
def test_planted_wrong_answer_counts_as_failure(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    spec = gen.generate(workload, 7, str(tmp_path))
    planted = spec["ops"][0]
    if workload == "scripts":
        planted = next(op for op in spec["ops"] if op["expect"]["kind"] == "eval")
        planted["expect"]["rows"].append(["not", "an answer"])
    else:
        planted["expected"].append([-1, -1])
    with open(tmp_path / "spec.json", "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    result_path = tmp_path / "result.json"
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--work", str(tmp_path), "--seconds", "0.01", "--result", str(result_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    cycles = result["attempted"] // result["ops_per_cycle"]  # warm-up and measured
    assert cycles == 2 and result["failed"] == cycles


def test_all_runs_every_workload():
    proc = _run("all", 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    metas = [json.loads(line)["meta"] for line in lines[0::2]]
    results = [json.loads(line) for line in lines[1::2]]
    assert [m["workload"] for m in metas] == [w["name"] for w in BENCHMARK["workloads"]]
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("join", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    summary = worker.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["latency_tail_ms"] == pytest.approx(90.0)
    assert summary["tail_percentile"] == pytest.approx(90.0)
    assert summary["latency_p50_ms"] == pytest.approx(50.5)


def test_scaling_takes_out_host_speed():
    ref = worker.REFERENCE_S
    # the host runs at nominal speed, then at half speed: the program did not change
    times = [0.010] * 20 + [0.020] * 20
    refs = [ref] * 20 + [2 * ref] * 20
    scaled = worker.scale(times, refs)
    assert scaled[:10] == pytest.approx([0.010] * 10)
    assert scaled[-10:] == pytest.approx([0.010] * 10)
    assert worker.reference() == worker.reference() > 0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_same_seed_same_inputs(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    specs, files = [], []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        spec = gen.generate(workload, 3, str(work))
        specs.append(json.dumps(spec).replace(str(work), "WORK"))
        files.append({
            str(p.relative_to(work)): p.read_text()
            for p in work.rglob("*") if p.is_file() and p.name != "spec.json"
        })
    assert specs[0] == specs[1]
    assert files[0] == files[1]
