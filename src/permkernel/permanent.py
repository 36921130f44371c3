"""Cycle-weighted permanents and the positivity scan of the Vere-Jones
existence criterion.

per_b(A) = sum over permutations tau of b^(number of cycles of tau) times
prod_i A[i, tau(i)]. Specialisations: per_b(A, 1) is the permanent and
per_b(A, -1) = (-1)^m det(A). A kernel candidate K satisfies the criterion
for exponent b when all real eigenvalues of K are nonnegative and, for every
gamma > 0, every repeated principal submatrix of (I + gamma*K)^{-1} K has a
nonnegative b-permanent. Only a finite portion of that quantifier space can
be searched, so scan verdicts are evidence, not proofs, unless a positivity
certificate is found.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooLarge, IndexOutOfRange
from .matcore import (
    DEFAULT_TOL,
    Tolerance,
    _minors_of_size,
    _positivity_signatures,
    _resolvents,
    as_matrix,
    subset_table,
)

MAX_PERMANENT_DIM = 12
MAX_POSITIVITY_ORDER = 8


def _subset_tables(m: int):
    """Bit table (row T holds the bits of mask T), popcount and lowest set
    bit of every mask over m indices."""
    masks = np.arange(1 << m)
    bits = np.zeros((1 << m, m), dtype=np.uint8)
    for i in range(m):
        bits[:, i] = (masks >> i) & 1
    return bits, bits.sum(axis=1, dtype=np.intp), np.argmax(bits, axis=1)


def _cycle_weights(a: np.ndarray, bits, pop, low) -> np.ndarray:
    """C[T] for every index set T (a bitmask): the sum, over the cyclic
    orders of T, of the entry products around the cycle.

    Held-Karp: path[T, e] sums the products along the paths that start at
    min(T), visit all of T and end at e. One product with A extends every
    path by an edge; the edge back to min(T) closes it into a cycle and
    gives C[T]. Path rows that are all zero are not extended.
    """
    m = a.shape[0]
    path = np.zeros((1 << m, m))
    path[1 << np.arange(m), np.arange(m)] = 1.0
    weight = np.zeros(1 << m)
    for k in range(1, m + 1):
        rows = np.flatnonzero(pop == k)
        rows = rows[path[rows].any(axis=1)]
        ext = path[rows] @ a
        weight[rows] = ext[np.arange(len(rows)), low[rows]]
        r, e = np.nonzero((bits[rows] == 0) & (np.arange(m) > low[rows, None]))
        path[rows[r] | (1 << e), e] = ext[r, e]
    return weight


def per_b(a, b: float) -> float:
    """Permutation sum sum_tau b^(cycles of tau) * prod_i A[i, tau(i)].

    A permutation is a partition of the indices into cycles, so with the
    Held-Karp cycle weights C[T], f[S] = sum over blocks T of S that
    contain min(S) of b * C[T] * f[S - T], and per_b(A) = f[all indices].
    Only sets without index 1 and the full set are needed. Raises
    OverflowError when the sum is not finite in double precision.
    """
    a = as_matrix(a)
    m = a.shape[0]
    if m > MAX_PERMANENT_DIM:
        raise DimensionTooLarge(f"b-permanents are capped at m = {MAX_PERMANENT_DIM}")
    bits, pop, low = _subset_tables(m)
    full = (1 << m) - 1
    f = np.zeros(1 << m)
    f[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        weight = b * _cycle_weights(a, bits, pop, low)
        for k in range(1, m + 1):
            s = np.flatnonzero(pop == k)
            s = s[((s & 1) == 0) | (s == full)]
            head = 1 << low[s]
            rest = s ^ head
            pos = np.nonzero(bits[rest])[1].reshape(len(s), k - 1)
            sub = (1 << pos) @ bits[: 1 << (k - 1), : k - 1].T
            f[s] = (weight[sub | head[:, None]] * f[rest[:, None] ^ sub]).sum(axis=1)
    if not np.isfinite(f[full]):
        raise OverflowError(f"per_b of this {m}x{m} matrix is not finite in double precision")
    return float(f[full])


def repeated_matrix(a, selection) -> np.ndarray:
    """m x m matrix A[k_i, k_j] for a 1-based index selection with repeats."""
    a = as_matrix(a)
    n = a.shape[0]
    sel = [int(k) for k in selection]
    if not sel:
        raise IndexOutOfRange("selection must be nonempty")
    if any(k < 1 or k > n for k in sel):
        raise IndexOutOfRange(f"selection indices must lie in 1..{n}, got {sel}")
    z = [k - 1 for k in sel]
    return a[np.ix_(z, z)]


@dataclass(frozen=True)
class PositivityScan:
    """Outcome of a bounded b-positive-definiteness search.

    passed means no violation was found up to max_order, which is necessary
    evidence only; a fail carries the offending selection and value.
    """

    passed: bool
    max_order: int
    witness: tuple | None = None
    value: float | None = None


@functools.lru_cache(maxsize=64)
def _multisets(n: int, d: int) -> np.ndarray:
    """The size-d multisets of range(n) as rows of nondecreasing indices, in
    itertools.combinations_with_replacement order."""
    return np.array(list(itertools.combinations_with_replacement(range(n), d)), dtype=np.intp)


@functools.lru_cache(maxsize=64)
def _scan_level(n: int, d: int):
    """Index plan of level d of the generating-function recurrence.

    Returns (selections, factorials, plan). selections are the size-d
    multisets k of 1..n in scan order and factorials[i] = k! = prod_i k_i!.
    plan[s - 1] = (target, subset, source) holds three index arrays with
    one entry per pair of a size-s subset S of range(n) and a size-(d - s)
    multiset j: the position of k = j + 1_S in selections, of S among the
    size-s subsets in itertools.combinations order, and of j among the
    size-(d - s) multisets. These pairs are exactly the pairs of a multiset
    k and a subset S of its support.
    """
    own = _multisets(n, d)
    # the base-n values of nondecreasing rows in lexicographic order ascend,
    # and n^d is below 2^63 for every plan that fits in memory
    place = n ** np.arange(d - 1, -1, -1)
    values = own @ place
    counts = (own[:, :, None] == np.arange(n)).sum(axis=1)
    factorials = np.array([math.factorial(c) for c in range(d + 1)], dtype=float)
    plan = []
    for s in range(1, min(n, d) + 1):
        subsets = subset_table(n, s)
        sources = _multisets(n, d - s)
        shape = (len(sources), len(subsets))
        merged = np.concatenate(
            [
                np.broadcast_to(sources[:, None, :], (*shape, d - s)),
                np.broadcast_to(subsets[None, :, :], (*shape, s)),
            ],
            axis=-1,
        )
        merged.sort(axis=-1)
        source, subset = np.indices(shape).reshape(2, -1)
        plan.append((np.searchsorted(values, (merged @ place).ravel()), subset, source))
    selections = [tuple(k) for k in (own + 1).tolist()]
    return selections, factorials[counts].prod(axis=1), tuple(plan)


def _plan_pairs(n: int, d: int) -> int:
    """Number of (subset, multiset) pairs in the plan of level d."""
    return sum(math.comb(n, s) * math.comb(n + d - s - 1, d - s) for s in range(1, min(n, d) + 1))


def _positivity_scans(stack: np.ndarray, b: float, max_order: int, tol: Tolerance) -> list:
    """The level recurrence of is_b_positive_definite on a (k, n, n) stack
    of matrices; one PositivityScan per matrix, in stack order.

    Each level takes one batched determinant for the minors of all live
    matrices and one bincount per plan entry, with matrix j's bins at
    j * (multisets of the level) + target. Every bin sums its terms in the
    same order as for one matrix alone, so the values do not depend on the
    stack. A matrix whose level has a value below its threshold leaves the
    stack with the first such multiset as its witness, and no larger
    minors of it are computed. At most 2^16 // (pairs in the top level's
    plan) matrices are stacked, so that a gather holds about 2^16 entries
    or one matrix's plan: a small plan takes a whole gamma grid, an
    order-8 scan at n = 8 one matrix at a time.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if max_order > MAX_POSITIVITY_ORDER:
        raise DimensionTooLarge(
            f"multiset scan is capped at order {MAX_POSITIVITY_ORDER}"
        )
    n = stack.shape[-1]
    width = max(1, 2**16 // _plan_pairs(n, max_order))
    if len(stack) > width:
        return [
            scan
            for start in range(0, len(stack), width)
            for scan in _positivity_scans(stack[start : start + width], b, max_order, tol)
        ]
    scans = [PositivityScan(True, max_order)] * len(stack)
    live = np.arange(len(stack))
    signed = [None]  # signed[s][j, i]: D_S of matrix j for the i-th size-s subset S
    levels = [np.ones((len(stack), 1))]  # levels[d][j, i]: f_k of matrix j, i-th size-d multiset k
    for d in range(1, max_order + 1):
        if not live.size:
            break
        with np.errstate(over="ignore"):
            threshold = tol.threshold(stack, d, axis=(1, 2))
        if not np.all(np.isfinite(threshold)):
            # an infinite threshold would pass every value of the level
            raise OverflowError(f"the zero threshold of order {d} is not a finite double")
        if d <= n:
            signed.append((-1.0) ** d * _minors_of_size(stack, d))
        selections, factorials, plan = _scan_level(n, d)
        total = np.zeros((live.size, len(selections)))
        bins = np.arange(live.size)[:, None] * len(selections)
        for s, (target, subset, source) in enumerate(plan, start=1):
            weights = signed[s].take(subset, axis=1) * levels[d - s].take(source, axis=1)
            sums = np.bincount((bins + target).ravel(), weights.ravel(), total.size)
            total += (d - s + b * s) * sums.reshape(total.shape)
        f = -total / d
        values = factorials * f
        bad = values < -threshold[:, None]
        levels.append(f)
        failed = bad.any(axis=1)
        if failed.any():
            for row in np.flatnonzero(failed):
                i = int(bad[row].argmax())
                scans[live[row]] = PositivityScan(
                    False, max_order, witness=selections[i], value=float(values[row, i])
                )
            keep = ~failed
            live, stack = live[keep], stack[keep]
            signed = [None] + [x[keep] for x in signed[1:]]
            levels = [x[keep] for x in levels]
    return scans


def is_b_positive_definite(
    a, b: float, max_order: int = 5, tol: Tolerance = DEFAULT_TOL
) -> PositivityScan:
    """Search all index multisets of size <= max_order for per_b < 0.

    The b-permanents of the repeated principal submatrices are the Taylor
    coefficients of the generating function
    det(I - ZA)^(-b) = sum_k per_b(A[k]) z^k / k!, with Z = diag(z). The
    polynomial det(I - ZA) = sum_S D_S z^S has D_S = (-1)^|S| det A_S, and
    the Euler operator turns P F' = -b P' F into
        d f_k = -sum_{nonempty S within supp k} D_S f_{k - 1_S} (d - |S| + b|S|)
    for |k| = d, so per_b(A[k]) = k! f_k needs only the principal minors of
    A of size <= max_order. Levels d = 1, 2, ... are computed and checked in
    turn, each multiset in itertools.combinations_with_replacement order,
    one nondecreasing representative per multiset (per_b is invariant under
    simultaneous relabeling). The first value below -tol.threshold(A, d) is
    the witness; a threshold that overflows raises OverflowError. This is
    the one-matrix case of the stacked scan vere_jones_check runs.
    """
    return _positivity_scans(as_matrix(a)[None], b, max_order, tol)[0]


def default_gamma_grid() -> list[float]:
    """16 log-spaced gamma values over [1e-3, 1e3]."""
    return [float(g) for g in np.logspace(-3.0, 3.0, 16)]


@dataclass(frozen=True)
class GammaScan:
    """Positivity scan of the tilted kernel at one gamma value."""

    gamma: float
    status: str  # "pass" | "fail" | "skipped"
    signature_certificate: bool = False
    witness: tuple | None = None
    value: float | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "status": self.status,
            "signature_certificate": self.signature_certificate,
            "witness": list(self.witness) if self.witness else None,
            "value": self.value,
            "note": self.note,
        }


@dataclass(frozen=True)
class VJReport:
    """Verdicts for both existence conditions.

    overall is "fail" on any violation, "pass" when every tilted kernel
    admitted a positivity signature (which certifies nonnegative
    b-permanents at every order, but only at the searched gammas), and
    "inconclusive" when the bounded scan simply found nothing. Neither
    non-fail verdict is a proof: the criterion quantifies over all orders
    and all gamma > 0.
    """

    b: float
    max_order: int
    condition_i: bool
    real_eigenvalues: tuple
    gamma_scans: tuple = field(default_factory=tuple)
    overall: str = "inconclusive"

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "max_order": self.max_order,
            "condition_i": self.condition_i,
            "real_eigenvalues": list(self.real_eigenvalues),
            "condition_ii": [scan.to_dict() for scan in self.gamma_scans],
            "overall": self.overall,
        }


def vere_jones_check(
    g,
    b: float,
    gamma_grid=None,
    max_order: int = 5,
    tol: Tolerance = DEFAULT_TOL,
) -> VJReport:
    """Run both existence conditions on a kernel candidate.

    Condition (I): all real eigenvalues nonnegative (complex pairs are
    ignored). Condition (II) at every grid gamma: a positivity signature of
    the tilted kernel certifies a pass at every order; without one, the
    bounded multiset scan runs. Gammas at resolvent poles are skipped with a
    note.

    Condition (II) runs on the whole grid at once: one batched determinant
    finds the poles, one batched solve tilts the kernel at the other
    gammas, and one signature test covers that stack. The uncertified
    gammas are then scanned together, level by level, and a gamma leaves
    the stack at its first failing level. Every value is the one that
    is_b_positive_definite gives for that gamma's tilted kernel alone.
    """
    g = as_matrix(g)
    if b <= 0.0:
        raise ValueError("exponent b must be strictly positive")
    grid = default_gamma_grid() if gamma_grid is None else [float(x) for x in gamma_grid]
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    if any(x <= 0.0 for x in grid):
        raise ValueError("gamma values must be strictly positive")

    thr = tol.threshold(g)
    real = sorted(float(ev.real) for ev in np.linalg.eigvals(g) if abs(ev.imag) <= thr)
    condition_i = all(ev >= -thr for ev in real)

    poles, tilted = _resolvents(g, grid, tol)
    if not np.all(np.isfinite(tilted)):
        raise ValueError("matrix entries must be finite")
    _, certified = _positivity_signatures(tilted, tol)
    # a signature S makes S A S entrywise positive, so every term of every
    # per_b of a repeated submatrix is positive: the scan cannot fail
    results = iter(_positivity_scans(tilted[~certified], b, max_order, tol))
    marks = iter(certified)
    scans = []
    for gamma, pole in zip(grid, poles):
        if pole:
            scans.append(GammaScan(gamma, "skipped", note="resolvent pole"))
        elif next(marks):
            scans.append(GammaScan(gamma, "pass", signature_certificate=True))
        else:
            result = next(results)
            status = "pass" if result.passed else "fail"
            scans.append(GammaScan(gamma, status, witness=result.witness, value=result.value))

    if not condition_i or any(scan.status == "fail" for scan in scans):
        overall = "fail"
    elif scans and all(
        scan.status == "pass" and scan.signature_certificate for scan in scans
    ):
        overall = "pass"
    else:
        overall = "inconclusive"
    return VJReport(
        b=b,
        max_order=max_order,
        condition_i=condition_i,
        real_eigenvalues=tuple(real),
        gamma_scans=tuple(scans),
        overall=overall,
    )
