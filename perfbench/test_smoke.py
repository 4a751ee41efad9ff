"""Smoke test of the benchmark itself, at the smallest size (one call per phase).

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py -q

It takes about two minutes on two cores, most of it in the four sweeps.
"""

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = workloads.ROOT
RUN = os.path.join(workloads.BENCH_DIR, "run.py")


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_matches_recorded_digests(workload):
    result = _result(_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [k for k in result["metrics"]] == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_self_times_fit_in_wall_time(workload):
    proc = _bench(workload, 1)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert [k for k in result["metrics"]] == [name for name, _ in run.PER_LAYER]

    spans_line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# spans: "))
    spans_path = os.path.join(ROOT, spans_line.split()[2])
    with gzip.open(spans_path, "rt", encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    self_ns = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    assert spans and min(self_ns) >= 0
    assert sum(self_ns) <= trace["wall_ns"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        workloads.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-impaired", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
