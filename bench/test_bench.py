"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run the benchmark in subprocesses, so they take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=180,
    )


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"latency_p50_ms", "latency_tail_ms", "throughput_rps", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("kind", list(speed.PROBES))
def test_speed_probes_are_fixed_computations(kind):
    assert speed.PROBES[kind]() == speed.PROBES[kind]()
    assert speed.probe(kind) > 0.0
    reference = speed.REFERENCE_S[kind]
    assert speed.factor(kind, reference, reference) == pytest.approx(1.0)
    assert speed.factor(kind, 2 * reference, 2 * reference) == pytest.approx(0.5)
    assert {w.probe for w in workloads.WORKLOADS.values()} <= set(speed.PROBES)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_work_counters_repeat_exactly(workload):
    counters = []
    for _ in range(2):
        done = run_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in tracer.PER_LAYER}
        counters.append({name: result["metrics"][name]["value"] for name in tracer.WORK_COUNTERS})
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def _tampered(request, result):
    """A wrong answer of the same shape as `result`."""
    if isinstance(result, bool):
        return not result
    if dataclasses.is_dataclass(result):
        return dataclasses.replace(result, verdict=True, failed_condition=None)
    code, stdout = result
    if request.kind.startswith("permanent"):
        doc = json.loads(stdout)
        doc["value"] = doc["value"] * (1 + 1e-5) + 1e-5
        return code, json.dumps(doc)
    return 1, stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_checks_accept_outputs_and_reject_wrong_ones(workload, tmp_path):
    first_cycle = workloads.build_cycles(workload, 5, tmp_path)[0]
    for request in first_cycle:
        result = request.call()
        assert request.check(result) is None, request.kind
        assert request.check(_tampered(request, result)) is not None, request.kind


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
