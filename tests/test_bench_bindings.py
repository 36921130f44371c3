"""The benchmark binds permkernel names by string: bench/tracer.py wraps
each (module, name) of its TARGETS, and bench/run.py reads
mcverify.worker_count and mcverify.SHARD_SIZE."""

import importlib.util
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


def test_benchmark_requests_pass_their_checks(tmp_path, monkeypatch):
    # every workload's warm-up call, and the first cycle of the scan and
    # structure workloads, whose pool members' verdicts are recorded in
    # bench/expected.json, as the benchmark issues and checks them
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    requests = [
        workloads.warmup_request(name, 0, tmp_path / f"warmup-{name}.json")
        for name in workloads.WORKLOADS
    ]
    for name in ("scan", "structure"):
        requests += workloads.build_cycles(name, 0, tmp_path / name)[0]
    for request in requests:
        assert request.check(request.call()) is None, request.kind
