"""The benchmark binds permkernel names by string: bench/tracer.py wraps
each (module, name) of its TARGETS, and bench/run.py reads
mcverify.worker_count and mcverify.SHARD_SIZE."""

import importlib.util
import json
import sys
from pathlib import Path

from permkernel import mcverify


def test_benchmark_bound_names_exist():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.TARGETS.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"permkernel.{module}"), name))
    assert mcverify.worker_count() >= 1 and mcverify.SHARD_SIZE >= 1


def load_workloads(monkeypatch):
    """bench/workloads.py, imported for one test."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_requests_pass_their_checks(tmp_path, monkeypatch):
    # every workload's warm-up call, and the first cycle of the scan and
    # structure workloads, whose pool members' verdicts are recorded in
    # bench/expected.json, as the benchmark issues and checks them
    workloads = load_workloads(monkeypatch)
    requests = [
        workloads.warmup_request(name, 0, tmp_path / f"warmup-{name}.json")
        for name in workloads.WORKLOADS
    ]
    for name in ("scan", "structure"):
        requests += workloads.build_cycles(name, 0, tmp_path / name)[0]
    for request in requests:
        assert request.check(request.call()) is None, request.kind


def test_every_recorded_pool_member_passes_its_check(tmp_path, monkeypatch):
    # all classify and reduce-scan members recorded in bench/expected.json,
    # issued and checked as the benchmark does
    workloads = load_workloads(monkeypatch)
    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    pools = [*workloads.SCAN_POOLS.values(), *workloads.STRUCTURE_POOLS.values()]
    specs = {spec.key: spec for spec in pools}
    assert set(specs) == set(expected["pools"])
    checked = 0
    for key, members in expected["pools"].items():
        for index in range(len(members)):
            path = tmp_path / f"{key.replace('/', '-')}-{index}.json"
            request = workloads._pool_request(specs[key], index, expected, path)
            assert request.check(request.call()) is None, f"{key}#{index}"
            checked += 1
    assert checked == sum(spec.size for spec in specs.values())  # 324
