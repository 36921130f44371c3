"""Speed probes: fixed reference computations timed between requests.

On a 2-vCPU share of a busy host, core speed drifted by up to 1.8x within
minutes: a fixed `per_b` call measured in 10 s windows over 5 minutes had
medians from 40 to 82 ms, an interquartile spread of 0.29 of the median.
CPU time drifted the same way, so it is the speed of the core that changes,
not the share of it the process gets.

A probe is a small computation that does not touch permkernel. Timed right
before and right after a request, it tells how fast the core ran then, and

    normalized latency = latency * REFERENCE_S[kind] / probe time

is the request's latency at the reference speed, the speed at which the
probe takes REFERENCE_S. In the same 5 minutes the normalized `per_b` time
had a window spread of 0.016. Core speed does not change alike for every
kind of work (in the fast state interpreted loops gain more than numpy
calls), so each workload uses the probe whose work resembles its own:
`python`, interpreted loops over floats (permutation enumeration); `linalg`,
many small numpy calls (fancy indexing and determinants of small matrices,
as in principal-minor tables and reduce-scan); `numpy`, vectorized sampling
and reductions (Monte Carlo). Over 4 minutes in which the host swung
between both states, `effectively_equivalent` on a 12x12 pair had a 10 s
window spread of 0.349 raw, 0.104 normalized by the python probe and 0.026
by the linalg probe.

The probes are part of the benchmark, not the program, so a change to the
program cannot change them. A program change that left threads busy between
requests would slow the probes and hide part of its own cost; the program
has no such threads (its Monte Carlo pool ends with each call).
"""

from __future__ import annotations

import itertools
import statistics
import time

PROBE_REPEATS = 7

# Typical probe medians on that 2-vCPU host (Python 3.11.7, numpy 2.4.6) in
# its slower, more common state. They only fix the unit, so that normalized
# values read as milliseconds there.
REFERENCE_S = {"python": 1.0e-3, "linalg": 0.9e-3, "numpy": 3.6e-3}

_WEIGHTS = [[1.0 + 0.01 * (6 * i + j) for j in range(6)] for i in range(6)]


def _python_probe() -> float:
    """Sum of entry products over the 720 permutations of a 6x6 table,
    enumerated depth-first."""
    n = len(_WEIGHTS)
    free = [True] * n
    total = 0.0

    def extend(i: int, prod: float) -> None:
        nonlocal total
        if i == n:
            total += prod
            return
        row = _WEIGHTS[i]
        for j in range(n):
            if free[j]:
                free[j] = False
                extend(i + 1, prod * row[j])
                free[j] = True

    extend(0, 1.0)
    return total


_numpy_state: dict = {}


def _numpy_probe() -> float:
    """20 000 seeded 8-dimensional normal draws and one reduction."""
    import numpy as np

    if "x" not in _numpy_state:
        _numpy_state["x"] = np.random.default_rng(0).standard_normal((20000, 8))
    z = np.random.default_rng(1).standard_normal((20000, 8))
    return float(np.einsum("ij,ij->", z, _numpy_state["x"]))


_MINORS = [list(s) for k in (2, 3, 4) for s in itertools.combinations(range(6), k)]


def _linalg_probe() -> float:
    """Sum of the determinants of the 50 principal submatrices of order 2
    to 4 of a fixed 6x6 matrix, each cut out by fancy indexing."""
    import numpy as np

    if "m" not in _numpy_state:
        _numpy_state["m"] = np.array(_WEIGHTS) + np.eye(len(_WEIGHTS))
        # bound once, before a traced run can wrap numpy.linalg.det
        _numpy_state["det"] = np.linalg.det
    m, det = _numpy_state["m"], _numpy_state["det"]
    return float(sum(det(m[np.ix_(s, s)]) for s in _MINORS))


PROBES = {"python": _python_probe, "linalg": _linalg_probe, "numpy": _numpy_probe}


def probe(kind: str) -> float:
    """Median seconds of PROBE_REPEATS runs of the probe."""
    fn = PROBES[kind]
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def factor(kind: str, before: float, after: float) -> float:
    """Multiplier from a latency measured between two probes to the
    latency at the reference speed."""
    return REFERENCE_S[kind] / (0.5 * (before + after))
