"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public functions named in TARGETS at every
module-global binding inside the permkernel package, because the package
binds with `from .x import f` and patching only the defining module would
miss those calls. numpy.linalg functions are wrapped on the numpy.linalg
module, which the package reaches by attribute lookup. Each call made while
the tracer is active appends one span (name, start, end, parent, request,
info) to an in-memory list; `write` saves the list when the run ends.

Call sites are single-threaded: the Monte Carlo worker threads run no traced
function.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TARGETS = {
    "permanent": ("per_b", "repeated_matrix", "is_b_positive_definite", "vere_jones_check"),
    "matcore": (
        "det",
        "principal_minors",
        "effectively_equivalent",
        "resolvent",
        "find_positivity_signature",
    ),
    "classify": (
        "classify_kernel",
        "count_symmetrizable_3subsets",
        "is_diag_equiv_inverse_m",
        "is_m_matrix",
        "is_inverse_m_matrix",
    ),
    "reductions": (
        "ratio_matrix",
        "symmetrizability_breakpoints",
        "conditioning_kernel",
        "johnson_smith_inverse_m",
        "schur_complement",
    ),
    "mcverify": ("sample_squared_gaussian", "empirical_laplace", "verify_conditioning"),
    "matrixio": ("load_matrix",),
    "cli": ("run", "emit", "main"),
}
LINALG = ("inv", "solve", "det", "eig", "eigvals", "eigh")


def _draws(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["count"]


def _gamma_counts(args, kwargs, result):
    scans = result.gamma_scans
    return (
        len(scans),
        sum(scan.status == "skipped" for scan in scans),
        sum(scan.signature_certificate for scan in scans),
    )


# per-call facts kept in a span's info field
OBSERVERS = {
    "permanent.per_b": lambda args, kwargs, result: len(args[0]),
    "permanent.is_b_positive_definite": lambda args, kwargs, result: result.passed,
    "permanent.vere_jones_check": _gamma_counts,
    "classify.count_symmetrizable_3subsets": lambda args, kwargs, result: math.comb(len(args[0]), 3),
    "mcverify.sample_squared_gaussian": _draws,
}

MAX_PERMANENT_M = 12

PER_LAYER = [
    ("permanent.per_b.calls", "count"),
    ("permanent.per_b.busy_s", "s"),
    *((f"permanent.per_b.m{m}.calls", "count") for m in range(1, MAX_PERMANENT_M + 1)),
    *((f"permanent.per_b.m{m}.busy_s", "s") for m in range(1, MAX_PERMANENT_M + 1)),
    ("permanent.repeated_matrix.busy_s", "s"),
    ("permanent.is_b_positive_definite.calls", "count"),
    ("permanent.is_b_positive_definite.busy_s", "s"),
    ("permanent.is_b_positive_definite.self_s", "s"),
    ("permanent.is_b_positive_definite.multisets", "count"),
    ("permanent.is_b_positive_definite.fail_ratio", "ratio"),
    ("permanent.vere_jones_check.busy_s", "s"),
    ("permanent.vere_jones_check.gamma_points", "count"),
    ("permanent.vere_jones_check.gamma_skipped", "count"),
    ("permanent.vere_jones_check.certified_share", "ratio"),
    ("matcore.det.calls", "count"),
    ("matcore.principal_minors.calls", "count"),
    ("matcore.principal_minors.busy_s", "s"),
    ("matcore.effectively_equivalent.calls", "count"),
    ("matcore.effectively_equivalent.busy_s", "s"),
    ("matcore.resolvent.calls", "count"),
    ("matcore.resolvent.busy_s", "s"),
    ("matcore.find_positivity_signature.calls", "count"),
    ("classify.is_m_matrix.calls", "count"),
    ("classify.is_inverse_m_matrix.calls", "count"),
    ("numpy.linalg.calls", "count"),
    ("numpy.linalg.busy_s", "s"),
    ("classify.classify_kernel.busy_s", "s"),
    ("classify.classify_kernel.self_s", "s"),
    ("classify.count_symmetrizable_3subsets.calls", "count"),
    ("classify.count_symmetrizable_3subsets.busy_s", "s"),
    ("classify.count_symmetrizable_3subsets.triples", "count"),
    ("classify.is_diag_equiv_inverse_m.busy_s", "s"),
    *(
        (f"reductions.{name}.{stat}", unit)
        for name in TARGETS["reductions"]
        for stat, unit in (("calls", "count"), ("busy_s", "s"))
    ),
    ("mcverify.sample_squared_gaussian.calls", "count"),
    ("mcverify.sample_squared_gaussian.busy_s", "s"),
    ("mcverify.sample_squared_gaussian.draws", "count"),
    ("mcverify.sample_squared_gaussian.draws_per_s", "1/s"),
    ("mcverify.empirical_laplace.busy_s", "s"),
    ("mcverify.verify_conditioning.busy_s", "s"),
    ("mcverify.workers", "count"),
    ("mcverify.shards", "count"),
    ("matrixio.load_matrix.busy_s", "s"),
    ("cli.run.busy_s", "s"),
    ("cli.emit.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
]

# per-layer counters that must repeat exactly for a given seed
WORK_COUNTERS = [
    name
    for name, unit in PER_LAYER
    if unit == "count"
    or name.endswith(("gamma_skipped", "certified_share", "fail_ratio"))
]


class Tracer:
    """Records spans of wrapped calls while `active` is true."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, info]
        self.stack: list[int] = []
        self.request = -1
        self.active = False
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, tracer = self.spans, self.stack, self
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[5] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "permkernel" or name.startswith("permkernel.")
        ]
        for module_name, names in TARGETS.items():
            module = sys.modules[f"permkernel.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patches.append((holder, attr, original))
        for name in LINALG:
            original = getattr(np.linalg, name)
            setattr(np.linalg, name, self._wrap(f"numpy.linalg.{name}", original))
            self._patches.append((np.linalg, name, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """One span per line: request, id, parent, name, start, end (s)."""
        with open(path, "w") as out:
            for index, (name, start, end, parent, request, _) in enumerate(self.spans):
                out.write(f"{request},{index},{parent},{name},{start:.9f},{end:.9f}\n")

    def metrics(self, request_walls: dict, overhead_frac: float, shard_size: int, workers: int) -> dict:
        """Per-layer metrics over every recorded span.

        request_walls maps request id to its traced wall time; overhead_frac
        is the traced requests' time over that of the same requests run
        without tracing, minus one.
        """
        calls: dict = defaultdict(int)
        busy: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rooted: dict = defaultdict(float)
        out: dict = defaultdict(float)
        for index, (name, start, end, parent, request, info) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            self_time[name] += duration - child[index]
            if parent < 0:
                rooted[request] += duration
            if name == "permanent.per_b":
                out[f"permanent.per_b.m{info}.calls"] += 1
                out[f"permanent.per_b.m{info}.busy_s"] += duration
                if parent >= 0 and self.spans[parent][0] == "permanent.is_b_positive_definite":
                    out["permanent.is_b_positive_definite.multisets"] += 1
            elif name == "permanent.is_b_positive_definite" and info is False:
                out["fail"] += 1
            elif name == "permanent.vere_jones_check" and info is not None:
                out["permanent.vere_jones_check.gamma_points"] += info[0]
                out["permanent.vere_jones_check.gamma_skipped"] += info[1]
                out["certified"] += info[2]
            elif name == "classify.count_symmetrizable_3subsets" and info is not None:
                out["classify.count_symmetrizable_3subsets.triples"] += info
            elif name == "mcverify.sample_squared_gaussian" and info is not None:
                shards = math.ceil(info / shard_size)
                out["mcverify.sample_squared_gaussian.draws"] += info
                out["mcverify.shards"] += shards
                out["mcverify.workers"] = max(out["mcverify.workers"], min(workers, shards))

        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_time[name]
        linalg = [name for name in calls if name.startswith("numpy.linalg.")]
        out["numpy.linalg.calls"] = sum(calls[name] for name in linalg)
        out["numpy.linalg.busy_s"] = sum(busy[name] for name in linalg)
        scans = calls["permanent.is_b_positive_definite"]
        out["permanent.is_b_positive_definite.fail_ratio"] = out.pop("fail", 0.0) / scans if scans else 0.0
        points = out["permanent.vere_jones_check.gamma_points"]
        out["permanent.vere_jones_check.certified_share"] = out.pop("certified", 0.0) / points if points else 0.0
        sampling = busy["mcverify.sample_squared_gaussian"]
        draws = out["mcverify.sample_squared_gaussian.draws"]
        out["mcverify.sample_squared_gaussian.draws_per_s"] = draws / sampling if sampling else 0.0
        out["trace.overhead_frac"] = overhead_frac
        out["trace.unattributed_s"] = sum(
            wall - rooted[request] for request, wall in request_walls.items()
        )
        return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
