"""The benchmark binds permkernel names by string: bench/tracer.py wraps
each (module, name) of its TARGETS, and bench/run.py reads
mcverify.worker_count and mcverify.SHARD_SIZE."""

import importlib.util
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
