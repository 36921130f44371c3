"""Cycle-weighted permanents and the positivity scan of the Vere-Jones
existence criterion.

per_b(A) = sum over permutations tau of b^(number of cycles of tau) times
prod_i A[i, tau(i)]. Specialisations: per_b(A, 1) is the permanent and
per_b(A, -1) = (-1)^m det(A). A kernel candidate K satisfies the criterion
for exponent b when every principal minor of K is nonnegative and, for every
gamma > 0, every repeated principal submatrix of (I + gamma*K)^{-1} K has a
nonnegative b-permanent. Only a finite portion of that quantifier space can
be searched, so scan verdicts are evidence, not proofs, unless a positivity
certificate is found.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooLarge, IndexOutOfRange
from .matcore import (
    DEFAULT_TOL,
    MAX_ENUMERATION_DIM,
    STACK_BUDGET,
    Tolerance,
    _as_int,
    _minor_table,
    _positions,
    _positivity_signatures,
    _resolvents,
    _table_order,
    as_matrix,
    subset_table,
)

MAX_PERMANENT_DIM = 12
MAX_POSITIVITY_ORDER = 8


@functools.cache
def _per_b_plan(m: int):
    """Read-only intp index arrays of per_b at size m, built on first use.

    Sets go by size, and within a size those without index 0 come first.
    Held-Karp level k: its slice of the sets and, among the products held
    after a +0.0 slot, the flat positions of (T - {e}, e) for each (T, e)
    of its path table (the slot where no path ends) and of (T, min(T)).
    Set-partition level k: the slice of the sets S it needs and positions
    sub | head and rest ^ sub of their blocks that contain head = min(S).
    """
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # row T: the bits of mask T
    pop, low = bits.sum(axis=1), bits.argmax(axis=1)
    order = np.lexsort((bits[:, 0], pop))  # stable: by mask within each part
    rank = np.argsort(order)  # the position of each mask in level order
    edges = np.cumsum([0] + [math.comb(m, k) for k in range(m + 1)]).tolist()
    walk, split = [], []
    for k in range(1, m + 1):
        rows = order[edges[k] : edges[k + 1]]
        ends = (bits[rows] == 1) & ((np.arange(m) != low[rows, None]) | (k == 1))
        prev = rank[rows[:, None] ^ (1 << np.arange(m))] - edges[k - 1]
        src = np.where(ends, 1 + prev * m + np.arange(m), 0)
        walk.append((slice(*edges[k : k + 2]), src, 1 + np.arange(len(rows)) * m + low[rows]))
        s = rows[((rows & 1) == 0) | (k == m)]  # a prefix of the level
        head = 1 << low[s]
        rest = s ^ head
        pos = np.nonzero(bits[rest])[1].reshape(len(s), k - 1)
        sub = (1 << pos) @ bits[: 1 << (k - 1), : k - 1].T
        blocks = rank[sub | head[:, None]], rank[rest[:, None] ^ sub]
        split.append((slice(edges[k], edges[k] + len(s)), *blocks))
    for _, *arrays in walk + split:
        for array in arrays:
            array.setflags(write=False)
    return tuple(walk), tuple(split)


def _cycle_weights(a: np.ndarray, walk) -> np.ndarray:
    """C[T] for every index set T, in _per_b_plan's order: the sum, over
    the cyclic orders of T, of the entry products around the cycle.

    Held-Karp: path[T, e] sums the products along the paths that start at
    min(T), visit all of T and end at e; one gather builds it from the
    last level's products. One product with A extends every path by an
    edge; the edge back to min(T) closes it into a cycle and gives C[T].
    """
    m = a.shape[0]
    ext = np.zeros(1 + math.comb(m, m // 2) * m)
    ext[1 : 1 + m], weight = 1.0, np.zeros(1 << m)  # level 0: a path starts anywhere
    for level, src, close in walk:
        path = ext[src]
        np.matmul(path, a, out=ext[1 : 1 + path.size].reshape(path.shape))
        weight[level] = ext[close]
    return weight


def per_b(a, b: float) -> float:
    """Permutation sum sum_tau b^(cycles of tau) * prod_i A[i, tau(i)].

    A permutation is a partition of the indices into cycles, so with the
    Held-Karp cycle weights C[T], f[S] = sum over blocks T of S that
    contain min(S) of b * C[T] * f[S - T], and per_b(A) = f[all indices].
    Only sets without index 1 and the full set are needed; their indices
    are built once per m (_per_b_plan). Raises ValueError for a non-finite
    b and OverflowError when the sum is not finite in double precision.
    """
    a = as_matrix(a)
    m = a.shape[0]
    if m > MAX_PERMANENT_DIM:
        raise DimensionTooLarge(f"b-permanents are capped at m = {MAX_PERMANENT_DIM}")
    if not math.isfinite(b):
        raise ValueError("exponent b must be finite")
    walk, split = _per_b_plan(m)
    f = np.zeros(1 << m)
    f[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        weight = b * _cycle_weights(a, walk)
        for level, wi, fi in split:
            terms = weight[wi]
            terms *= f[fi]
            terms.sum(axis=1, out=f[level])
    if not np.isfinite(f[-1]):
        raise OverflowError(f"per_b of this {m}x{m} matrix is not finite in double precision")
    return float(f[-1])


def repeated_matrix(a, selection) -> np.ndarray:
    """m x m matrix A[k_i, k_j] for a 1-based index selection with repeats."""
    a = as_matrix(a)
    z = _positions(selection, a.shape[0])
    if not z:
        raise IndexOutOfRange("selection must be nonempty")
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


@functools.cache
def _scan_level(n: int, d: int):
    """Index plan of level d of the generating-function recurrence, built
    on first use and kept for the process.

    Returns (factorials, plan). factorials[i] = k! = prod_i k_i! for the
    i-th size-d multiset k of range(n), k = y - arange(d) for row i, y, of
    subset_table(n + d - 1, d) (stars and bars). plan[s - 1] is the
    read-only (C(n + d - s - 1, d - s), C(n, s)) table of targets: row j,
    column S holds the position of k = j + 1_S among the size-d
    multisets, for the j-th size-(d - s) multiset and the S-th size-s
    subset of range(n) in _minor_table (colex) order, found by binary
    search in that lex-ordered table of multisets. These pairs are
    exactly the pairs of a multiset k and a subset S of its support.
    """

    def keys(rows):
        # big-endian bytes of nonnegative rows compare as the rows do in lex order
        return np.ascontiguousarray(rows, dtype=">i8").view(f"V{8 * d}").ravel()

    own = subset_table(n + d - 1, d) - np.arange(d)
    counts = (own[:, :, None] == np.arange(n)).sum(axis=1)
    factorials = np.array([math.factorial(c) for c in range(d + 1)], dtype=float)
    plan = []
    for s, subsets in enumerate(_table_order(n, min(n, d))[1][1:], start=1):
        sources = subset_table(n + d - s - 1, d - s) - np.arange(d - s)
        pairs = np.concatenate(
            [np.repeat(sources, len(subsets), axis=0), np.tile(subsets, (len(sources), 1))], axis=1
        )
        target = np.searchsorted(keys(own), keys(np.sort(pairs))).reshape(len(sources), -1)
        target.setflags(write=False)
        plan.append(target)
    return factorials[counts].prod(axis=1), tuple(plan)


def _positivity_scans(stack: np.ndarray, b: float, max_order: int, tol: Tolerance) -> list:
    """The level recurrence of is_b_positive_definite on a (k, n, n) stack
    of matrices; one PositivityScan per matrix, in stack order.

    Every minor it reads comes from one _minor_table of the stack, capped
    at size max_order, split by size in table order, and every bound from
    one tol.threshold call over the orders, so the level loop reads only
    the plans, the signed minors and the bounds. Each level takes one
    bincount per plan entry, with matrix j's bins at j * (multisets of the
    level) + target; a target's terms of one size have distinct sources,
    so they add in source order and no value depends on the stack. A
    matrix whose level has a value below its bound leaves the stack with
    the first such multiset as its witness. At most STACK_BUDGET //
    (targets in the top level's plan) matrices are stacked, so a level's
    terms hold about STACK_BUDGET entries or one matrix's plan: a small
    plan takes a whole gamma grid, an order-8 scan at n = 8 one at a time.
    """
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if max_order > MAX_POSITIVITY_ORDER:
        raise DimensionTooLarge(
            f"multiset scan is capped at order {MAX_POSITIVITY_ORDER}"
        )
    if not len(stack):
        return []
    n = stack.shape[-1]
    width = max(1, STACK_BUDGET // sum(t.size for t in _scan_level(n, max_order)[1]))
    if len(stack) > width:
        return [
            scan
            for start in range(0, len(stack), width)
            for scan in _positivity_scans(stack[start : start + width], b, max_order, tol)
        ]
    scans = [PositivityScan(True, max_order)] * len(stack)
    live = np.arange(len(stack))
    # signed[s - 1][j, i]: D_S of matrix j for the i-th size-s subset S in table order
    table, sizes = _minor_table(stack, max_order), _table_order(n, min(n, max_order))[0]
    signed = [(-1.0) ** s * table[:, sizes == s] for s in range(1, min(n, max_order) + 1)]
    with np.errstate(over="ignore"):  # bounds[d, j]: matrix j's bound at order d
        bounds = tol.threshold(stack, np.arange(max_order + 1)[:, None], axis=(1, 2))
    levels = [np.ones((len(stack), 1))]  # levels[d][j, i]: f_k of matrix j, i-th size-d multiset k
    for d in range(1, max_order + 1):
        if not live.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            threshold = bounds[d, live]
            factorials, plan = _scan_level(n, d)
            total = np.zeros((live.size, len(factorials)))
            bins = np.arange(live.size)[:, None, None] * len(factorials)
            for s, (target, minors) in enumerate(zip(plan, signed), start=1):
                terms = levels[d - s][:, :, None] * minors[:, None, :]
                sums = np.bincount((bins + target).ravel(), terms.ravel(), total.size)
                total += (d - s + b * s) * sums.reshape(total.shape)
            f = -total / d
            values = factorials * f
        if not (np.isfinite(threshold).all() and np.isfinite(values).all()):
            # an infinite threshold would pass every value, and NaN passes any
            raise OverflowError(f"the values or zero threshold of order {d} are not finite doubles")
        bad = values < -threshold[:, None]
        levels.append(f)
        failed = bad.any(axis=1)
        if failed.any():
            multisets = subset_table(n + d - 1, d) + 1 - np.arange(d)  # 1-based, _scan_level order
            for row in np.flatnonzero(failed):
                i = int(bad[row].argmax())
                scans[live[row]] = PositivityScan(
                    False, max_order, tuple(multisets[i].tolist()), float(values[row, i])
                )
            keep = ~failed
            live = live[keep]
            signed = [x[keep] for x in signed]
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
    A of size <= max_order, all read from one capped Schur-complement table
    before level 1. Levels d = 1, 2, ... are checked in turn, each multiset
    in itertools.combinations_with_replacement order, one nondecreasing
    representative per multiset (per_b is invariant under simultaneous
    relabeling). The first value below -tol.threshold(A, d) is the witness;
    a level with a threshold or value beyond a double raises OverflowError
    naming its order, and a non-finite b raises ValueError. b is read as a
    float and max_order as an int (ValueError if not integral), as in
    vere_jones_check. This is the one-matrix case of the stacked scan
    vere_jones_check runs.
    """
    b = float(b)
    if not math.isfinite(b):
        raise ValueError("exponent b must be finite")
    return _positivity_scans(as_matrix(a)[None], b, _as_int(max_order, "max_order"), tol)[0]


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
        return self.__dict__ | {"witness": list(self.witness) if self.witness else None}


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
    condition_i_witness: tuple | None = None  # (subset, minor): see _condition_i_witness
    gamma_scans: tuple = field(default_factory=tuple)
    overall: str = "inconclusive"

    def to_dict(self) -> dict:
        # keys by name: the gamma_scans field goes out as condition_ii (cli, bench/tracer.py read it)
        witness = self.condition_i_witness
        return {
            "b": self.b,
            "max_order": self.max_order,
            "condition_i": self.condition_i,
            "condition_i_witness": witness and {"subset": list(witness[0]), "minor": witness[1]},
            "condition_ii": [scan.to_dict() for scan in self.gamma_scans],
            "overall": self.overall,
        }


def _condition_i_witness(g: np.ndarray, max_order: int, tol: Tolerance) -> tuple | None:
    """(1-based subset, minor) of the first principal minor of G below
    -tol.threshold(G, |S|), by size and then in combinations order, or None,
    from one _minor_table of G (sizes up to max_order only above n = 16).
    A size with no failing minor that decides (it and its threshold finite
    doubles) but a negative or NaN one raises OverflowError.
    """
    n = g.shape[0]
    top = n if n <= MAX_ENUMERATION_DIM else min(n, max_order)
    table, (sizes, sets) = _minor_table(g, top), _table_order(n, top)
    with np.errstate(over="ignore"):
        bounds = tol.threshold(g, np.arange(top + 1), axis=(0, 1))[sizes]
    decides = np.isfinite(table) & np.isfinite(bounds)
    bad = decides & (table < -bounds)
    flagged = bad | (~decides & ~(table >= 0.0))  # NaN fails >= too
    if flagged.any():
        size = sizes[flagged].min()
        bad = bad[sizes == size]
        if not bad.any():
            raise OverflowError(f"the minors or threshold of order {size} are not finite doubles")
        minors = table[sizes == size][bad].tolist()
        return min(zip(map(tuple, (sets[size][bad] + 1).tolist()), minors))


def vere_jones_check(
    g,
    b: float,
    gamma_grid=None,
    max_order: int = 5,
    tol: Tolerance = DEFAULT_TOL,
) -> VJReport:
    """Run both existence conditions on a kernel candidate.

    Condition (I): G is P0, exactly when det(I + diag(alpha) G) > 0 on
    alpha >= 0 (see _condition_i_witness; necessary only above n = 16).
    Condition (II) at every grid gamma: a positivity signature of the
    tilted kernel certifies a pass at every order; without one, the
    bounded multiset scan runs. Gammas at resolvent poles are skipped with a
    note; a gamma whose tilt overflows (see _resolvents) raises OverflowError.

    Condition (II) runs on the whole grid at once: one batched determinant
    finds the poles, one batched solve tilts the kernel at the other
    gammas, and one signature test covers that stack. The uncertified
    gammas are then scanned together, level by level, and a gamma leaves
    the stack at its first failing level. Every value is the one that
    is_b_positive_definite gives for that gamma's tilted kernel alone. b is
    read as a float and max_order as an int (ValueError if not integral).
    """
    g = as_matrix(g)
    b = float(b)
    max_order = _as_int(max_order, "max_order")
    if not 0.0 < b < math.inf:
        raise ValueError("exponent b must be finite and strictly positive")
    grid = default_gamma_grid() if gamma_grid is None else [float(x) for x in gamma_grid]
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    if not all(0.0 < x < math.inf for x in grid):
        raise ValueError("gamma values must be finite and strictly positive")

    poles, tilted = _resolvents(g, grid, tol)
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

    witness = _condition_i_witness(g, max_order, tol)
    if witness or any(scan.status == "fail" for scan in scans):
        overall = "fail"
    elif all(scan.signature_certificate for scan in scans):
        overall = "pass"
    else:
        overall = "inconclusive"
    return VJReport(
        b=b,
        max_order=max_order,
        condition_i=witness is None,
        condition_i_witness=witness,
        gamma_scans=tuple(scans),
        overall=overall,
    )
