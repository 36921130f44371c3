"""Dense real matrix core: determinants, inverses, resolvents, diagonal and
signature scalings, and equality of all principal minors (effective
equivalence). Everything is small and dense; enumeration-based operations
are capped at n = 16."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    SingularMatrix,
)

MAX_ENUMERATION_DIM = 16


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
        if self.zero_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be strictly positive")

    def threshold(self, a, degree: int = 1, axis=None):
        """zero_tol * max(1, max|a|)^degree: the bound at or below which a
        quantity of that degree in the entries of `a` (k for a k x k minor)
        counts as zero. Without `axis`, a Python float, and OverflowError
        when the power is not a double; with `axis`, one value per matrix
        of a stack (the max runs over `axis`), and numpy's inf and overflow
        warning where the power is not a double.
        """
        if axis is None:
            return self.zero_tol * float(np.abs(a).max(initial=1.0)) ** degree
        scale = np.abs(a).max(axis=axis, initial=1.0)
        if degree == 1:  # most callers; float_power would cost more than the rest
            return self.zero_tol * scale
        # float_power rounds as Python's pow does; np.power and ** take an
        # integer-exponent path that can differ in the last bit
        return self.zero_tol * np.float_power(scale, degree)


DEFAULT_TOL = Tolerance()


def as_matrix(entries) -> np.ndarray:
    """Coerce to a finite square float matrix (n >= 1)."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_signature(signs, n: int | None = None) -> np.ndarray:
    """Coerce to a vector with entries exactly -1 or +1."""
    s = np.array(signs, dtype=float).ravel()
    if s.size == 0 or not np.all(np.isin(s, (-1.0, 1.0))):
        raise ValueError("signature entries must be -1 or +1")
    if n is not None and s.size != n:
        raise DimensionMismatch(f"signature has length {s.size}, expected {n}")
    return s


def as_scaling(diag, n: int | None = None) -> np.ndarray:
    """Coerce to a strictly positive diagonal-scaling vector."""
    d = np.array(diag, dtype=float).ravel()
    if d.size == 0 or not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("diagonal scaling entries must be strictly positive")
    if n is not None and d.size != n:
        raise DimensionMismatch(f"scaling has length {d.size}, expected {n}")
    return d


def det(a: np.ndarray) -> float:
    """np.linalg.det without the divide-by-zero warning on singular input."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.linalg.det(a))


def close(a, b, rel_tol: float):
    """Relative equality, elementwise on arrays."""
    return np.abs(a - b) <= rel_tol * np.maximum(np.abs(a), np.abs(b))


def determinant(a) -> float:
    """det(A) via pivoted LU elimination."""
    return det(as_matrix(a))


def inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A^{-1}; raises SingularMatrix when |det A| falls below tolerance."""
    a = as_matrix(a)
    if abs(det(a)) <= tol.threshold(a):
        raise SingularMatrix("matrix is numerically singular")
    return np.linalg.inv(a)


def _resolvents(g: np.ndarray, sigmas, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Tilted kernels (I + sigma*G)^{-1} G for a sequence of sigmas at once.

    Returns (poles, tilted): poles[i] is True when I + sigma_i*G is
    numerically singular, |det| <= tol.threshold(I + sigma_i*G), and
    tilted stacks the kernels of the other sigmas in order. One batched
    determinant and one batched solve serve the whole sequence.
    """
    m = np.eye(g.shape[0]) + np.asarray(sigmas, dtype=float)[:, None, None] * g
    with np.errstate(divide="ignore", invalid="ignore"):
        dets = np.linalg.det(m)
    poles = np.abs(dets) <= tol.threshold(m, axis=(1, 2))
    return poles, np.linalg.solve(m[~poles], g)


def resolvent(g, sigma: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """G_sigma = (I + sigma*G)^{-1} G, the exponentially tilted kernel.

    Raises SingularMatrix when I + sigma*G is numerically singular, which
    signals that -1/sigma is an eigenvalue of G.
    """
    g = as_matrix(g)
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    poles, tilted = _resolvents(g, [sigma], tol)
    if poles[0]:
        raise SingularMatrix(f"I + {sigma}*G is numerically singular")
    return tilted[0]


def principal_submatrix(a, idx) -> np.ndarray:
    """Rows and columns `idx` (1-based, strictly increasing) of `a`."""
    a = as_matrix(a)
    n = a.shape[0]
    ids = [int(i) for i in idx]
    if not ids:
        raise IndexOutOfRange("index set must be nonempty")
    if any(i < 1 or i > n for i in ids):
        raise IndexOutOfRange(f"indices must lie in 1..{n}, got {ids}")
    if any(j <= i for i, j in zip(ids, ids[1:])):
        raise IndexOutOfRange(f"indices must be strictly increasing, got {ids}")
    z = [i - 1 for i in ids]
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


@functools.lru_cache(maxsize=64)
def subset_table(n: int, m: int) -> np.ndarray:
    """The C(n, m) 0-based subsets of size m of range(n), in combinations
    order, as a read-only (C, m) array; built once per (n, m)."""
    subsets = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp).reshape(-1, m)
    subsets.flags.writeable = False
    return subsets


def _minors_of_size(a: np.ndarray, m: int) -> np.ndarray:
    """The size-m principal minors of a stack (..., n, n), shape (..., C),
    in subset_table order, with one batched determinant over the whole
    stack."""
    z = subset_table(a.shape[-1], m)
    sub = a[..., z[:, :, None], z[:, None, :]]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.linalg.det(sub.reshape(-1, m, m)).reshape(sub.shape[:-2])


def _minors(a: np.ndarray, max_size: int | None = None):
    """Yield (size, subsets, minors) for each subset size up to max_size,
    smallest first, with one batched determinant per size. Row i of
    `subsets` holds the 0-based indices of the i-th subset in
    itertools.combinations order, and minors[i] is its principal minor.
    Enumerating all 2^n - 1 minors is refused above n = 16."""
    n = a.shape[0]
    if max_size is None and n > MAX_ENUMERATION_DIM:
        raise DimensionTooLarge(
            f"principal-minor enumeration is capped at n = {MAX_ENUMERATION_DIM}"
        )
    top = n if max_size is None else min(max_size, n)
    for m in range(1, top + 1):
        yield m, subset_table(n, m), _minors_of_size(a, m)


def principal_minors(a) -> dict:
    """All 2^n - 1 principal minors keyed by 1-based index subset."""
    return {
        tuple(idx): float(minor)
        for _, subsets, minors in _minors(as_matrix(a))
        for idx, minor in zip((subsets + 1).tolist(), minors)
    }


def effectively_equivalent(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every principal minor of A equals the matching minor of B.

    Equality of all principal minors is the multilinear restatement of
    |I + xA| = |I + xB| for every diagonal x, so this decides whether A and
    B can serve as kernels of the same vector. Exponential in n; intended
    for n <= 12 and refused above n = 16. Stops at the first subset size
    with an unequal minor.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    for (m, _, ma), (_, _, mb) in zip(_minors(a), _minors(b)):
        # floor absorbs round-off on minors that are tiny relative to the
        # natural determinant scale of the subset size
        floor = tol.threshold((a, b), m)
        bound = np.maximum(tol.rel_tol * np.maximum(np.abs(ma), np.abs(mb)), floor)
        if not np.all(np.abs(ma - mb) <= bound):
            return False
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
