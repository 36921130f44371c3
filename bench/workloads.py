"""Workloads of the permkernel benchmark: input generators, request slots and
output checks.

A workload is a fixed cycle of request slots. A run issues whole cycles back
to back, one request at a time (closed loop, one client), so every run holds
the same mix of request kinds. The seed decides the
inputs: fresh matrices for kinds whose outputs have an independent check, and
a seed-dependent draw from a pool of generated members for kinds whose
outputs are discrete verdicts recorded in `expected.json` (see `record.py`).

Why each workload exists:

* scan: `classify` on 4x4 and 5x5 candidates at the default 16-point gamma
  grid. Thousands of tiny `per_b` calls per request. Three kinds of
  candidate: sign-scrambled inverse-M kernels (a positivity certificate at
  every gamma), entrywise-positive kernels that are not inverse-M (full
  scan, no certificate everywhere) and kernels with a negative 2-cycle
  (scan fails at order 2 at the small gammas).
* permanent: one large `per_b` enumeration per request, half dense signed
  (m = 8, 9), half sparse (m = 10..12, 50-60 % zeros, where the DFS prunes).
* structure: `reduce-scan`, `effectively_equivalent`,
  `johnson_smith_inverse_m` and `classify --max-order 2`, where the
  permanent layer does almost no work.
* montecarlo: `mc-verify` at 1M draws on symmetric PSD covariances, n = 3..8.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from permkernel import cli, gallery, matcore, reductions

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# 1M draws instead of the 2M of the original plan: at 2M one request takes
# 1-2.3 s, so a 20 s run holds about a dozen requests, too few for a tail
# percentile with ten samples above it.
MC_COUNT = 1_000_000
# The CLI flags each line within 3 standard errors; with five lines per
# request that misfires by chance on about 1.3 % of requests. The benchmark's
# own check uses 5 SE, which a wrong sampler or closed form still fails by far.
MC_SE_LIMIT = 5.0
DIGITS = 10  # generated entries are rounded, so inputs do not depend on BLAS


# --------------------------------------------------------------- generators


def _rounded(a) -> np.ndarray:
    return np.round(np.asarray(a, dtype=float), DIGITS) + 0.0  # no -0.0


def cert_kernel(rng, n: int) -> np.ndarray:
    """Inverse M-matrix conjugated by a positive diagonal and a nontrivial
    +-1 signature: diagonally equivalent to inverse-M, so every tilted
    kernel carries a positivity certificate."""
    off = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(off))))
    inv_m = np.linalg.inv(rho * rng.uniform(1.1, 1.6) * np.eye(n) - off)
    d = rng.uniform(0.5, 2.0, n)
    s = np.ones(n)
    s[rng.integers(1, n)] = -1.0
    s[1:] *= rng.choice([-1.0, 1.0], n - 1)
    if np.all(s == 1.0):
        s[-1] = -1.0
    return _rounded(inv_m * np.outer(d, 1.0 / d) * np.outer(s, s))


def positive_kernel(rng, n: int) -> np.ndarray:
    """Entrywise-positive, diagonally heavy matrix whose inverse has a
    positive off-diagonal entry (so it is not inverse-M)."""
    while True:
        g = _rounded(rng.uniform(0.1, 1.0, (n, n)) + np.diag(rng.uniform(0.3, 1.0, n) * n))
        inv = np.linalg.inv(g)
        off = inv - np.diag(np.diag(inv))
        if off.max() > 1e-6 * np.abs(inv).max():
            return g


def negative_cycle_kernel(rng, n: int) -> np.ndarray:
    """Positive-diagonal matrix with one 2-cycle G_ij G_ji < -G_ii G_jj, so
    the 2x2 b-permanent at b = 1/2 is negative for small gamma."""
    g = rng.uniform(0.1, 1.0, (n, n)) + np.diag(rng.uniform(0.3, 1.0, n) * n)
    i, j = rng.choice(n, 2, replace=False)
    scale = math.sqrt(g[i, i] * g[j, j])
    g[i, j] = rng.uniform(1.0, 2.0) * scale
    g[j, i] = -rng.uniform(1.0, 2.0) * scale
    return _rounded(g)


KERNELS = {"cert": cert_kernel, "pos": positive_kernel, "neg": negative_cycle_kernel}


def dense_signed(rng, m: int) -> np.ndarray:
    return _rounded(rng.uniform(-1.0, 1.0, (m, m)))


def sparse_signed(rng, m: int, zero_share: float) -> np.ndarray:
    """Signed matrix with exactly round(zero_share * m^2) zero entries."""
    a = rng.uniform(-1.0, 1.0, m * m)
    a[rng.permutation(m * m)[: round(zero_share * m * m)]] = 0.0
    return _rounded(a.reshape(m, m))


def covariance(rng, n: int) -> np.ndarray:
    x = rng.standard_normal((n, n + 2))
    c = x @ x.T / (n + 2) + 0.1 * np.eye(n)
    return _rounded(0.5 * (c + c.T))


def matrix_json(a: np.ndarray) -> str:
    return json.dumps({"n": a.shape[0], "entries": a.tolist()})


def matrix_csv(a: np.ndarray) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in a)


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(matrix_json(a).encode()).hexdigest()[:16]


# ------------------------------------------------------------------ pools


@dataclass(frozen=True)
class PoolSpec:
    """Members 0..size-1 of one generated pool and the CLI command run on
    them. Member i is generated from the key and i alone."""

    command: str  # "classify" | "reduce-scan"
    kind: str
    n: int
    order: int | None
    size: int

    @property
    def key(self) -> str:
        tail = f"/o{self.order}" if self.order is not None else ""
        return f"{self.command}/{self.kind}/n{self.n}{tail}"

    def member(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([zlib.crc32(self.key.encode()), index])
        return KERNELS[self.kind](rng, self.n)

    def argv(self, path: str) -> list[str]:
        argv = [self.command, "--input", path, "--deterministic"]
        if self.order is not None:
            argv += ["--max-order", str(self.order)]
        return argv


def classify_fields(doc: dict) -> dict:
    """Discrete verdict fields of a classify report."""
    report = doc["report"]
    return {
        "theorem1": report["theorem1"],
        "m_class": report["m_class"],
        "sym3_subsets": report["sym3_subsets"],
        "overall": report["vere_jones"]["overall"],
        "status": [scan["status"] for scan in report["vere_jones"]["condition_ii"]],
    }


def reduce_fields(doc: dict) -> list:
    """Discrete fields of a reduce-scan report: per pivot, each triple's
    breakpoint count and degeneracy, and each sigma's status and
    symmetrizable triples."""
    return [
        {
            "pivot": pivot["pivot"],
            "breakpoints": [
                [bp["triple"], bp["degenerate"], len(bp["values"])] for bp in pivot["breakpoints"]
            ],
            "scan": [
                [point["status"], point.get("symmetrizable_3subsets")] for point in pivot["scan"]
            ],
        }
        for pivot in doc["pivots"]
    ]


def report_fields(command: str, code: int, stdout: str) -> dict:
    """What a pool member's output is compared on. reduce-scan fields are
    kept as a hash of their canonical JSON (an n = 10 report lists about
    800 triples), classify fields in full."""
    doc = json.loads(stdout)
    if command == "classify":
        return {"exit": code, "fields": classify_fields(doc)}
    canonical = json.dumps(reduce_fields(doc), sort_keys=True, separators=(",", ":"))
    return {"exit": code, "fields_sha256": hashlib.sha256(canonical.encode()).hexdigest()}


# ---------------------------------------------------------------- requests


@dataclass
class Request:
    """One public call: `call` is timed, `check` runs after the timed phase
    and returns None when the output is correct, else the reason."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    props: dict = field(default_factory=dict)


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _pool_request(spec: PoolSpec, index: int, expected: dict, path: Path) -> Request:
    entry = expected["pools"][spec.key][index]
    a = spec.member(index)
    if digest(a) != entry["digest"]:
        raise RuntimeError(
            f"generated member {spec.key}#{index} differs from the recorded one; "
            "re-run bench/record.py at the reference commit"
        )
    path.write_text(matrix_json(a))

    def check(result):
        code, stdout = result
        if report_fields(spec.command, code, stdout) != entry["expect"]:
            return f"{spec.key}#{index}: verdict fields differ from the recorded ones"
        return None

    props = {"n": spec.n}
    if spec.command == "classify":
        overall = entry["expect"]["fields"]["overall"]
        props.update(order=spec.order, certified=overall == "pass", early_fail=overall == "fail")
    return Request(spec.key, cli_call(spec.argv(str(path))), check, props)


def _ryser(a: np.ndarray) -> tuple[float, float]:
    """Permanent by Ryser's formula and the sum of its terms' magnitudes."""
    m = a.shape[0]
    bits = ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    terms = np.prod(bits @ a.T, axis=1) * (-1.0) ** (m - bits.sum(axis=1))
    return float(terms.sum()), float(np.abs(terms).sum())


def _permanent_request(a: np.ndarray, b: int, path: Path, tag: str, sparse: bool) -> Request:
    path.write_text(matrix_csv(a))
    m = a.shape[0]

    def check(result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        value = json.loads(stdout)["value"]
        # an upper bound on the sum of |term| over all permutations
        bound = float(np.prod(np.abs(a).sum(axis=1)))
        if b == -1:
            reference, spread = (-1.0) ** m * float(np.linalg.det(a)), 0.0
        else:
            reference, spread = _ryser(a)
        if abs(value - reference) > 1e-12 * (bound + spread):
            return f"per_b = {value!r}, identity gives {reference!r}"
        return None

    argv = ["permanent", "--input", str(path), f"--b={b}", "--deterministic"]
    return Request(tag, cli_call(argv), check, {"m": m, "sparse": sparse, "b": b})


def _mc_closed_form(g: np.ndarray, alphas) -> float:
    al = np.asarray(alphas, dtype=float)
    return float(np.linalg.det(np.eye(len(al)) + al[:, None] * g)) ** -0.5


def _mc_request(g: np.ndarray, mc_seed: int, path: Path, tag: str) -> Request:
    path.write_text(matrix_json(g))
    n = g.shape[0]

    def check(result):
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(stdout)
        if doc["count"] != MC_COUNT or len(doc["transform_lines"]) != 4:
            return "report does not cover the requested draws"
        sigma = doc["conditioning"]["sigma"]
        pivot = g[-1, -1]
        kernel = g[:-1, :-1] - sigma / (1.0 + sigma * pivot) * np.outer(g[:-1, -1], g[-1, :-1])
        lines = [(line, _mc_closed_form(g, line["alphas"])) for line in doc["transform_lines"]]
        cond = doc["conditioning"]
        lines.append((cond, _mc_closed_form(kernel, cond["alphas"])))
        for line, closed in lines:
            if not math.isclose(line["closed_form"], closed, rel_tol=1e-9):
                return f"closed form {line['closed_form']!r}, expected {closed!r}"
            if abs(line["empirical"] - closed) > MC_SE_LIMIT * line["std_error"]:
                return f"empirical {line['empirical']!r} is over {MC_SE_LIMIT} SE from {closed!r}"
        return None

    argv = ["mc-verify", "--input", str(path), "--seed", str(mc_seed),
            "--mc-count", str(MC_COUNT), "--deterministic"]
    return Request(tag, cli_call(argv), check, {"n": n})


def _equivalence_request(rng, n: int, equivalent: bool, variant: int, tag: str) -> Request:
    a = _rounded(rng.uniform(0.1, 1.0, (n, n)) + np.eye(n))
    if not equivalent:
        b = a.copy()
        i, j = rng.choice(n, 2, replace=False)
        b[i, j] *= 1.0 + rng.uniform(0.05, 0.2)
    elif variant == 0:
        d = rng.uniform(0.5, 2.0, n)
        b = a * np.outer(d, 1.0 / d)
    elif variant == 1:
        s = rng.choice([-1.0, 1.0], n)
        b = a * np.outer(s, s)
    else:
        b = a.T.copy()

    def check(result):
        return None if result is equivalent else f"returned {result!r}, expected {equivalent}"

    return Request(
        tag,
        lambda: matcore.effectively_equivalent(a, b),
        check,
        {"n": n, "equivalent": equivalent},
    )


def _johnson_smith_request(rng, base: np.ndarray, tag: str) -> Request:
    h = reductions.block_double(base, float(rng.uniform(0.1, 0.9)))
    split = base.shape[0]

    def check(result):
        # block-doubled kernels are never inverse-M; the failure is in the
        # off-diagonal block conditions
        if result.verdict or result.failed_condition not in ("iii", "iv"):
            return f"got {result!r}"
        return None

    return Request(tag, lambda: reductions.johnson_smith_inverse_m(h, split), check, {"n": h.shape[0]})


# ---------------------------------------------------------------- workloads


# A slot is one position of a workload's cycle: make(c, draw, rng, path,
# expected) builds its request for cycle c, where draw(spec) returns the next
# index of a pool and expected holds the recorded pool verdicts.


def _pool_slot(*specs: PoolSpec) -> Callable:
    """A slot drawing from the given pools, one pool per cycle in turn."""

    def make(c, draw, rng, path, expected):
        spec = specs[c % len(specs)]
        return _pool_request(spec, draw(spec), expected, path)

    return make


SCAN_POOLS = {
    (kind, n, order): PoolSpec("classify", kind, n, order, size)
    for kind, n, order, size in (
        ("neg", 4, 5, 8),
        ("neg", 5, 5, 8),
        ("cert", 4, 5, 8),
        ("pos", 4, 5, 8),
        ("cert", 5, 5, 24),
        ("pos", 5, 5, 24),
        ("cert", 4, 6, 6),
        ("pos", 4, 6, 6),
    )
}


# 5x5 full scans are two thirds of the requests, so in a run of 2 to 10
# cycles both the median and the tail (11th slowest) fall inside that
# cluster. A minority of 4x4 requests scan to order 6.
SCAN_SLOTS = [
    _pool_slot(SCAN_POOLS[("neg", 4, 5)], SCAN_POOLS[("neg", 5, 5)]),
    _pool_slot(SCAN_POOLS[("cert", 4, 5)], SCAN_POOLS[("pos", 4, 5)]),
    *(_pool_slot(SCAN_POOLS[(kind, 5, 5)]) for kind in ("cert", "pos") * 3),
    _pool_slot(SCAN_POOLS[("cert", 4, 6)], SCAN_POOLS[("pos", 4, 6)]),
]


def _permanent_slot(m: int, zero_share: float | None, phase: int) -> Callable:
    tag = f"permanent/{'dense' if zero_share is None else 'sparse'}/m{m}"

    def make(c, draw, rng, path, expected):
        a = dense_signed(rng, m) if zero_share is None else sparse_signed(rng, m, zero_share)
        # b alternates between -1 and 1, the two values with a cheap
        # independent identity (determinant, Ryser's formula)
        b = (-1, 1)[(c + phase) % 2]
        return _permanent_request(a, b, path.with_suffix(".csv"), tag, zero_share is not None)

    return make


# Dense m = 10 takes about 6 s per request, which would leave two or three of
# them in a run; m = 9 already exercises the full m! enumeration. Sparse
# m = 12 at 55 % zeros is slower than dense m = 8, so the median falls
# halfway into the dense m = 8 cluster.
PERMANENT_SLOTS = [
    _permanent_slot(8, None, 0),
    _permanent_slot(8, None, 1),
    _permanent_slot(9, None, 0),
    _permanent_slot(10, 0.5, 1),
    _permanent_slot(11, 0.6, 0),
    _permanent_slot(12, 0.55, 1),
]

STRUCTURE_POOLS = {
    **{
        ("reduce-scan", n): PoolSpec("reduce-scan", "pos", n, None, 64 if n == 10 else 24)
        for n in (6, 7, 8, 9, 10)
    },
    **{
        ("classify", n): PoolSpec("classify", kind, n, 2, 24)
        for kind, n in (("cert", 6), ("pos", 7), ("neg", 8))
    },
}


def _equivalence_slot(n: int, equivalent: bool, shift: int = 0) -> Callable:
    tag = f"effectively_equivalent/{'equal' if equivalent else 'perturbed'}/n{n}"
    # the conjugation used for equal pairs rotates: diagonal, signature, transpose
    return lambda c, draw, rng, path, expected: _equivalence_request(
        rng, n, equivalent, (c + shift) % 3, tag
    )


def _johnson_smith_slot(c, draw, rng, path, expected):
    name, base = (
        ("one_symmetrizable_triple", gallery.one_symmetrizable_triple),
        ("two_symmetrizable_triples", gallery.two_symmetrizable_triples),
    )[c % 2]
    return _johnson_smith_request(rng, base(), f"johnson_smith_inverse_m/{name}")


# Eight kinds of request are faster than the two equal n = 10 pairs and
# eight are slower, so the median falls in the middle of that tight cluster;
# the tail (11th slowest) falls among the n = 10 reduce-scans.
STRUCTURE_SLOTS = [
    _johnson_smith_slot,
    _equivalence_slot(11, False),
    _equivalence_slot(12, False),
    _equivalence_slot(12, False),
    *(_pool_slot(STRUCTURE_POOLS[("classify", n)]) for n in (6, 7, 8)),
    _pool_slot(STRUCTURE_POOLS[("reduce-scan", 6)]),
    _equivalence_slot(10, True),
    _equivalence_slot(10, True, shift=1),
    _equivalence_slot(12, True),
    *(_pool_slot(STRUCTURE_POOLS[("reduce-scan", n)]) for n in (7, 8, 9, 10, 10, 10, 10)),
]


def _mc_slot(n: int) -> Callable:
    tag = f"mc-verify/n{n}"
    return lambda c, draw, rng, path, expected: _mc_request(
        covariance(rng, n), int(rng.integers(2**31)), path, tag
    )


# weighted to large n: the median falls halfway into the n = 7 cluster and
# the tail (11th slowest) inside the n = 8 one from three cycles a run on
MONTECARLO_SLOTS = [_mc_slot(n) for n in (3, 4, 5, 6, 7, 7, 8, 8, 8, 8)]


@dataclass(frozen=True)
class Workload:
    name: str
    slots: list
    # whole cycles generated at set-up; a run that needs more reuses them
    max_cycles: int
    # cycles replayed by a traced run (untraced, then traced)
    trace_cycles: int
    # speed probe whose work resembles the workload's (see speed.py)
    probe: str
    # seconds one cycle takes at the probe's reference speed, measured at
    # the reference commit; fixes how many cycles a run of --seconds holds
    cycle_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", SCAN_SLOTS, 10, 1, "python", 6.32),
        Workload("permanent", PERMANENT_SLOTS, 60, 8, "python", 1.05),
        Workload("structure", STRUCTURE_SLOTS, 40, 4, "linalg", 2.32),
        Workload("montecarlo", MONTECARLO_SLOTS, 20, 2, "numpy", 4.6),
    )
}


def warmup_request(workload: str, seed: int, path: Path) -> Request:
    """The untimed call made at set-up, outside the measured stream."""
    rng = np.random.default_rng([seed, zlib.crc32(b"warmup")])
    if workload == "scan":
        expected = "hypotheses-met-ID"
        path.write_text(matrix_json(gallery.one_symmetrizable_triple()))

        def check(result):
            code, stdout = result
            got = json.loads(stdout)["report"]["theorem1"]
            return None if code == 0 and got == expected else f"theorem1 {got}"

        return Request("warmup", cli_call(["classify", "--input", str(path), "--deterministic"]), check)
    if workload == "permanent":
        return _permanent_request(dense_signed(rng, 7), -1, path.with_suffix(".csv"), "warmup", False)
    if workload == "structure":
        path.write_text(matrix_json(gallery.blockwise_inverse_m()))

        def check(result):
            code, stdout = result
            return None if code == 0 and len(json.loads(stdout)["pivots"]) == 4 else "no report"

        return Request("warmup", cli_call(["reduce-scan", "--input", str(path), "--deterministic"]), check)
    return _mc_request(covariance(rng, 3), 1, path, "warmup")


def build_cycles(workload: str, seed: int, input_dir: Path) -> list[list[Request]]:
    """Generate and write the inputs of max_cycles whole cycles."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    expected = json.loads(EXPECTED_PATH.read_text())
    orders: dict = {}
    used: dict = {}

    def draw(spec: PoolSpec) -> int:
        # each pool is walked in a seed-dependent order, without repeats
        # until it is exhausted
        if spec.key not in orders:
            orders[spec.key] = np.random.default_rng([seed, zlib.crc32(spec.key.encode())]).permutation(spec.size)
        k = used.get(spec.key, 0)
        used[spec.key] = k + 1
        return int(orders[spec.key][k % spec.size])

    input_dir.mkdir(parents=True, exist_ok=True)
    return [
        [make(c, draw, rng, input_dir / f"c{c}-s{j}.json", expected) for j, make in enumerate(w.slots)]
        for c in range(w.max_cycles)
    ]
