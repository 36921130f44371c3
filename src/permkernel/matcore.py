"""Dense real matrix core: determinants, inverses, resolvents, diagonal and
signature scalings, and equality of all principal minors (effective
equivalence). Everything is small and dense; enumeration-based operations
are capped at n = 16."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    SingularMatrix,
)

MAX_ENUMERATION_DIM = 16
# Entries one level of the stacked positivity scan may hold (plan terms x matrices)
STACK_BUDGET = 2**16
# _minor_table's guard: a Schur complement whose entries grow past this
# multiple of max|A| no longer gives minors to working accuracy
GROWTH_LIMIT = 100.0


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds.

    zero_tol decides when a value counts as zero, through `threshold`,
    which scales it by the max-norm of the matrix at hand (the Monte Carlo
    input checks scale it without a floor); rel_tol governs relative
    equality of two quantities (see `close`).
    """

    zero_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.zero_tol < np.inf and 0.0 < self.rel_tol < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def threshold(self, a, degree: int = 1, axis=None):
        """zero_tol * max(1, max|a|)^degree: the bound at or below which a
        quantity of that degree in the entries of `a` (k for a k x k minor)
        counts as zero. Without `axis`, a Python float, and OverflowError
        when the power is not a double; with `axis`, one value per matrix
        of a stack (the max runs over `axis`) or degree of an array of
        degrees, and numpy's inf and overflow warning where it overflows.
        """
        if axis is None:
            return self.zero_tol * float(np.abs(a).max(initial=1.0)) ** degree
        scale = np.abs(a).max(axis=axis, initial=1.0)
        if isinstance(degree, int) and degree == 1:  # most callers; float_power costs more than the rest
            return self.zero_tol * scale
        # float_power rounds as Python's pow does; np.power and ** take an
        # integer-exponent path that can differ in the last bit
        return self.zero_tol * np.float_power(scale, degree)


DEFAULT_TOL = Tolerance()


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite square float matrix (n >= 1)."""
    try:
        a = np.array(entries, dtype=float)
    except OverflowError as exc:  # a Python int beyond a double
        raise ValueError("matrix entries must be finite") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_signature(signs, n: int) -> np.ndarray:
    """Coerce to a length-n vector with entries exactly -1 or +1."""
    s = np.array(signs, dtype=float).ravel()
    if s.size == 0 or not np.all(np.isin(s, (-1.0, 1.0))):
        raise ValueError("signature entries must be -1 or +1")
    if s.size != n:
        raise DimensionMismatch(f"signature has length {s.size}, expected {n}")
    return s


def as_scaling(diag, n: int) -> np.ndarray:
    """Coerce to a length-n strictly positive diagonal-scaling vector."""
    d = np.array(diag, dtype=float).ravel()
    if d.size == 0 or not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("diagonal scaling entries must be strictly positive")
    if d.size != n:
        raise DimensionMismatch(f"scaling has length {d.size}, expected {n}")
    return d


def _as_int(value, name: str) -> int:
    """value as an int; ValueError naming `name` when it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def det(a: np.ndarray):
    """np.linalg.det of a matrix or of each matrix of a stack (..., n, n),
    without its divide-by-zero, invalid and overflow warnings: singular
    input gives 0, and a determinant beyond a double gives +-inf."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.linalg.det(a)


def close(a, b, rel_tol: float, floor=0.0):
    """Relative equality within rel_tol, or a difference of at most `floor`
    (which absorbs round-off on tiny values); elementwise on arrays."""
    return np.abs(a - b) <= np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), floor)


def determinant(a) -> float:
    """det(A) via pivoted LU elimination."""
    return float(det(as_matrix(a)))


def _solve(m: np.ndarray, rhs: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The one singularity guard: M^{-1} rhs for each matrix M of a stack
    (k, n, n), against one shared right-hand side rhs (n, r).

    Returns (singular, x): singular[i] is True when M_i is numerically
    singular, |det M_i| <= tol.threshold(M_i), and x stacks the solutions
    of the other matrices in order. One batched determinant and one
    batched solve serve the whole stack.
    """
    singular = np.abs(det(m)) <= tol.threshold(m, axis=(-2, -1))
    return singular, np.linalg.solve(m[~singular], rhs)


def _inverse_or_none(a: np.ndarray, tol: Tolerance) -> np.ndarray | None:
    """A^{-1} of a float matrix, or None where `_solve` finds A singular."""
    singular, inv = _solve(a[None], np.eye(a.shape[0]), tol)
    return None if singular[0] else inv[0]


def inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A^{-1}; raises SingularMatrix when |det A| falls below tolerance."""
    inv = _inverse_or_none(as_matrix(a), tol)
    if inv is None:
        raise SingularMatrix("matrix is numerically singular")
    return inv


def _resolvents(g: np.ndarray, sigmas, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(poles, tilted) of `_solve` for I + sigma*G against G: the tilted
    kernels (I + sigma*G)^{-1} G of a sequence of sigmas at once; OverflowError
    names the first sigma where I + sigma*G, else its tilt, is not finite."""
    with np.errstate(over="ignore"):
        m = np.eye(g.shape[0]) + np.asarray(sigmas, dtype=float)[:, None, None] * g
    finite = np.isfinite(m).all(axis=(1, 2))
    if finite.all():  # an infinite I + sigma*G would read as a pole or bad input
        poles, tilted = _solve(m, g, tol)
        finite[~poles] = np.isfinite(tilted).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"I + {sigmas[finite.argmin()]}*G or its tilted kernel is not finite")
    return poles, tilted


def resolvent(g, sigma: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """G_sigma = (I + sigma*G)^{-1} G, the exponentially tilted kernel.

    Raises SingularMatrix when I + sigma*G is numerically singular, which
    signals that -1/sigma is an eigenvalue of G, and OverflowError when
    sigma*max|G| or the tilted kernel is not finite (see _resolvents).
    """
    g = as_matrix(g)
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and nonnegative")
    poles, tilted = _resolvents(g, [sigma], tol)
    if poles[0]:
        raise SingularMatrix(f"I + {sigma}*G is numerically singular")
    return tilted[0]


def _positions(indices, n: int) -> list[int]:
    """The 0-based positions of 1-based `indices`; IndexOutOfRange for one
    that is not an integer (2.0 is) or lies outside 1..n."""
    given = list(indices)
    ids = np.asarray(given, dtype=float)
    if not np.all((ids == np.floor(ids)) & (ids >= 1) & (ids <= n)):  # NaN fails too
        raise IndexOutOfRange(f"indices must be integers in 1..{n}, got {given}")
    return (ids.astype(int) - 1).tolist()


def principal_submatrix(a, idx) -> np.ndarray:
    """Rows and columns `idx` (1-based, strictly increasing) of `a`."""
    a = as_matrix(a)
    z = _positions(idx, a.shape[0])
    if not z:
        raise IndexOutOfRange("index set must be nonempty")
    if any(j <= i for i, j in zip(z, z[1:])):
        raise IndexOutOfRange(f"indices must be strictly increasing, got {list(idx)}")
    return a[np.ix_(z, z)]


def diagonal_conjugate(a, diag) -> np.ndarray:
    """D A D^{-1} for a strictly positive diagonal D: entries d_i A_ij / d_j."""
    a = as_matrix(a)
    d = as_scaling(diag, a.shape[0])
    return a * np.outer(d, 1.0 / d)


def signature_conjugate(a, signs) -> np.ndarray:
    """S A S for a +-1 diagonal S: entries s_i A_ij s_j. An involution."""
    a = as_matrix(a)
    s = as_signature(signs, a.shape[0])
    return a * np.outer(s, s)


@functools.cache
def subset_table(n: int, m: int) -> np.ndarray:
    """The C(n, m) 0-based subsets of size m of range(n), in combinations
    (lex) order, as a read-only (C, m) array; built once per (n, m) and
    kept for the process."""
    combinations = list(itertools.combinations(range(n), m))
    subsets = np.array(combinations, dtype=np.intp).reshape(len(combinations), m)
    subsets.flags.writeable = False
    return subsets


@functools.cache
def _table_order(n: int, max_size: int) -> tuple[np.ndarray, tuple]:
    """(sizes, sets) of a _minor_table of n x n matrices capped at max_size
    <= n, whose columns are the sets of at most max_size indices in
    increasing bitmask order: sizes[c] is the size of column c's set and
    sets[m] holds the size-m sets in table order (colex). Read-only, built
    once per (n, max_size) and kept for the process; the full table
    (max_size = n) is refused above n = 16."""
    if max_size == n > MAX_ENUMERATION_DIM:
        raise DimensionTooLarge(
            f"principal-minor enumeration is capped at n = {MAX_ENUMERATION_DIM}"
        )
    sizes = np.zeros(1, dtype=np.intp)
    for _ in range(n):  # index k follows the sets of range(k) with each S + k
        sizes = np.concatenate((sizes, sizes[sizes < max_size] + 1))
    sets = [subset_table(n, m) for m in range(max_size + 1)]
    sets[1:] = [z[np.lexsort(z.T)] for z in sets[1:]]  # largest index first: colex
    for array in (sizes, *sets):
        array.flags.writeable = False
    return sizes, tuple(sets)


def _minor_table(stack: np.ndarray, max_size: int | None = None) -> np.ndarray:
    """The principal minors of size <= max_size (default n) of each matrix
    of a stack (..., n, n), shape (..., sets), in _table_order's bitmask
    order: column T of the full table is det A[T]; column 0 is all ones.

    Level k extends the Schur complement on range(k, n) of each A[S], S in
    range(k) below max_size elements, by index k: det A[S + k] = det A[S] *
    pivot, the complement's first diagonal entry, and while S + k stays
    below max_size elements its complement is one rank-one update of the
    rest (Griffin and Tsatsomeros, Principal minors, Part I, 2006; O(2^n)
    for the full table). A complement that is not finite or holds an entry
    above GROWTH_LIMIT * max|A| (a zero or tiny pivot made it) is NaN, and
    so is every minor beneath it. LU recomputes each minor that is not a
    finite double, one batched determinant per size. No value depends on
    the rest of the stack.
    """
    n = stack.shape[-1]
    max_size = n if max_size is None else min(max_size, n)
    sizes, sets = _table_order(n, max_size)
    a = stack.reshape(-1, n, n)
    limit = GROWTH_LIMIT * np.abs(a).max(axis=(1, 2))[:, None]
    table = np.ones((len(a), 1))
    # comp[j, :, :, i]: the complement on range(k, n) of A_j[S], S the i-th set within range(k)
    # below max_size elements (table order; all of the table when uncapped), of minor base[j, i];
    # S + k grows on while extends[i]. Subsets are last, so operations run on contiguous entries
    comp, base, extends = a[..., None], table, sizes[sizes < max_size] < max_size - 1
    with np.errstate(all="ignore"):
        for k in range(n):
            extended = base * comp[:, 0, 0]
            table = np.concatenate((table, extended), axis=1)
            if k == n - 1:
                break
            rest = comp[:, 1:, 1:]
            if max_size < n:  # a set that reaches max_size elements stops growing
                grows = extends[: base.shape[1]]
                comp, extended = comp[..., grows], extended[:, grows]
            grown = comp[:, 1:, 1:] - comp[:, 1:, :1] * (comp[:, :1, 1:] / comp[:, :1, :1])
            tripped = ~(np.abs(grown).max(axis=(1, 2)) <= limit)  # NaN trips too
            if tripped.any():
                np.copyto(grown, np.nan, where=tripped[:, None, None])
            comp = np.concatenate((rest, grown), axis=3)
            base = np.concatenate((base, extended), axis=1) if max_size < n else table
    rows, cols = np.nonzero(~np.isfinite(table))
    for m in sorted(set(sizes[cols].tolist())):  # one LU batch per size
        at = sizes[cols] == m
        z = sets[m][np.searchsorted(np.flatnonzero(sizes == m), cols[at])]
        table[rows[at], cols[at]] = det(a[rows[at, None, None], z[:, :, None], z[:, None, :]])
    return table.reshape(stack.shape[:-2] + table.shape[1:])


def principal_minors(a) -> dict:
    """All 2^n - 1 principal minors keyed by 1-based index subset, by size
    then in combinations order, read from _minor_table by bitmask (n <= 16)."""
    a = as_matrix(a)
    n = a.shape[0]
    table = _minor_table(a)
    subsets = [subset_table(n, m) for m in range(1, n + 1)]
    keys = [tuple(idx) for z in subsets for idx in (z + 1).tolist()]
    return dict(zip(keys, table[np.concatenate([(1 << z).sum(axis=1) for z in subsets])].tolist()))


def effectively_equivalent(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every principal minor of A equals the matching minor of B.

    Equality of all principal minors is the multilinear restatement of
    |I + xA| = |I + xB| for every diagonal x, so this decides whether A and
    B can serve as kernels of the same vector. Exponential in n and refused
    above n = 16 (DimensionTooLarge), but only once the table is needed: the
    1x1 and 2x2 minors, a_ii and a_ii a_jj - a_ij a_ji, are read from the
    pair and compared first, so a pair that differs there stops early with
    False at any n; the rest come from one _minor_table of the pair, compared
    in one pass, each column against the floor of its size. A pair of
    size-k minors decides when both minors and its floor
    tol.threshold((A, B), k) are finite doubles, and is equal within that
    floor or rel_tol. A deciding pair that differs gives False; else
    OverflowError names the smallest order with a pair that cannot decide.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    pair = np.stack((a, b))
    d = pair.diagonal(axis1=1, axis2=2)
    i, j = subset_table(n, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        floors = tol.threshold(pair, np.arange(n + 1), axis=(0, 1, 2))
        direct = (d, d[:, i] * d[:, j] - pair[:, i, j] * pair[:, j, i])
        for m, minors in zip(range(1, n + 1), direct):  # no 2x2 minors at n = 1
            same = close(*minors, tol.rel_tol, floors[m]).all()
            if not same and floors[m] < np.inf and np.isfinite(minors).all():
                return False  # otherwise the table decides
        table, sizes = _minor_table(pair), _table_order(n, n)[0]
        floor = floors[sizes]
        decides = np.isfinite(table).all(axis=0) & np.isfinite(floor)
        if np.any(decides & ~close(*table, tol.rel_tol, floor)):
            return False
    if not decides.all():
        order = sizes[~decides].min()
        raise OverflowError(f"the minors or floor of order {order} are not finite doubles")
    return True


def _positivity_signatures(a: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """The find_positivity_signature candidate of each matrix of a stack
    (..., n, n), and whether it works: every entry of S A S above
    tol.threshold(A). That test also rules out a nonpositive
    diagonal and zero off-diagonal entries (a zero entry gives a zero
    sign), so it needs no separate check for them.
    """
    thr = tol.threshold(a, axis=(-2, -1))
    s = np.ones(a.shape[:-1])
    s[..., 1:] = np.sign(a[..., 0, 1:])
    conjugated = a * s[..., :, None] * s[..., None, :]
    return s, np.all(conjugated > thr[..., None, None], axis=(-2, -1))


def find_positivity_signature(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """Signature S with S_i A_ij S_j > 0 for all i, j, or None.

    Signs are propagated from index 1 (S_1 = +1, S_j = sign of A_1j) and
    then verified against every entry, so a signature is returned exactly
    when one exists. Requires a strictly positive diagonal and no zero
    off-diagonal entry; otherwise no full positive pattern is reachable.
    """
    s, works = _positivity_signatures(as_matrix(a), tol)
    return s if works else None
