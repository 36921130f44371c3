"""Kernel transformations: conditioning kernels, pivot ratio matrices,
symmetrizability breakpoints in the tilting parameter and the scan over
pivots that reports them, block doubling, and the Schur-complement
criterion for inverse M-matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, MatrixError, PoleAtSigma, SingularBlock, ZeroPivotEntry
from .matcore import DEFAULT_TOL, Tolerance, as_matrix, det
from .classify import (
    count_symmetrizable_3subsets,
    is_inverse_m_matrix,
    three_cycles,
    triple_table,
)


def conditioning_kernel(g, sigma: float, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Kernel of the vector tilted by exp(-sigma/2 * psi_k), pivot removed.

    Entry (i, j) over the remaining indices is
    G(i,j) - sigma / (1 + sigma G(k,k)) * G(i,k) G(k,j); as sigma -> 0 this
    is plain deletion of row and column k. `k` is 1-based.
    """
    g = as_matrix(g)
    n = g.shape[0]
    if n < 2:
        raise ValueError("conditioning needs dimension at least 2")
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"pivot {k} outside 1..{n}")
    p = k - 1
    denom = 1.0 + sigma * g[p, p]
    # |sigma| * max(1, max|G|), to the last bit, without building an array
    scale = max(abs(sigma), abs(sigma) * float(np.abs(g).max()))
    if abs(denom) <= tol.threshold(scale):
        raise PoleAtSigma(f"1 + sigma*G({k},{k}) vanishes at sigma = {sigma}")
    coef = sigma / denom
    keep = [i for i in range(n) if i != p]
    sub = g[np.ix_(keep, keep)]
    return sub - coef * np.outer(g[keep, p], g[p, keep])


def ratio_matrix(g, p: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pivot ratio matrix with entries G(i,j) / (G(i,p) G(p,j)), 1-based p.

    Requires the pivot column and row to be entrywise nonzero. Entry (p, p)
    equals 1 / G(p,p).
    """
    g = as_matrix(g)
    n = g.shape[0]
    if not 1 <= p <= n:
        raise IndexOutOfRange(f"pivot {p} outside 1..{n}")
    q = p - 1
    thr = tol.threshold(g)
    if np.any(np.abs(g[:, q]) <= thr) or np.any(np.abs(g[q, :]) <= thr):
        raise ZeroPivotEntry(f"pivot row/column {p} has a zero entry")
    return g / np.outer(g[:, q], g[q, :])


@dataclass(frozen=True)
class BreakpointSet:
    """Shift values c at which the shifted triple becomes symmetrizable.

    values lie in the open interval (0, 1/pivot_diag) and are sorted;
    degenerate means the triple is symmetrizable for every c (then values
    is empty).
    """

    values: tuple
    degenerate: bool

    def __post_init__(self):
        if self.degenerate and self.values:
            raise ValueError("degenerate breakpoint sets carry no values")


def _interval_end(pivot_diag: float) -> float:
    """1 / pivot_diag, the upper end of the breakpoint interval."""
    if pivot_diag <= 0.0:
        raise ValueError("pivot_diag must be strictly positive")
    return 1.0 / pivot_diag


def _breakpoints(gm: np.ndarray, hi: float, tol: Tolerance):
    """Breakpoints of every triple of `gm` (see `three_cycles`) in one pass.

    Returns (degenerate, values): a flag and the sorted roots in (0, hi)
    for each triple. The thresholds are tol.threshold of the triple's 3x3
    block at degree 1 for c^2, 2 for c and 3 for the constant term.
    """
    entries = three_cycles(gm)
    x, y, z, u, v, w = entries[:6]
    # cubic terms cancel identically; remaining coefficients of c^2, c, 1
    a2 = (x + y + z) - (u + v + w)
    a1 = -((x * y + y * z + z * x) - (u * v + v * w + w * u))
    a0 = x * y * z - u * v * w

    quadratic = np.abs(a2) > tol.threshold(entries, 1, axis=0)
    linear = ~quadratic & (np.abs(a1) > tol.threshold(entries, 2, axis=0))
    degenerate = ~quadratic & ~linear & (np.abs(a0) <= tol.threshold(entries, 3, axis=0))

    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(a1 * a1 - 4.0 * a2 * a0)  # NaN for a negative discriminant
        left, right = (-a1 - r) / (2.0 * a2), (-a1 + r) / (2.0 * a2)
        linear_root = np.where(linear, -a0 / a1, np.nan)
        roots = np.where(
            quadratic,
            np.stack((np.fmin(left, right), np.fmax(left, right))),
            np.stack((linear_root, np.full_like(linear_root, np.nan))),
        )
    inside = (0.0 < roots) & (roots < hi)
    distinct = np.abs(roots[1] - roots[0]) > tol.threshold(hi)
    keep = np.stack((inside[0], inside[1] & (~inside[0] | distinct)), axis=1)
    values = [
        [root for root, kept in zip(pair, flags) if kept]
        for pair, flags in zip(roots.T.tolist(), keep.tolist())
    ]
    return degenerate.tolist(), values


def symmetrizability_breakpoints(
    gamma_mat, triple, pivot_diag: float, tol: Tolerance = DEFAULT_TOL
) -> BreakpointSet:
    """Solve the 3-cycle identity of the shifted triple for the shift c.

    Writing x, y, z for the forward cycle of the ratio matrix over `triple`
    and u, v, w for the reverse cycle, the identity
    (x - c)(y - c)(z - c) = (u - c)(v - c)(w - c) loses its cubic terms on
    expansion and reduces to a quadratic; there are therefore at most two
    (in any case at most three) breakpoints, or the identity holds for
    every c and the set is degenerate. Roots are filtered to the open
    interval (0, 1/pivot_diag).
    """
    gm = as_matrix(gamma_mat)
    hi = _interval_end(pivot_diag)
    ids = [int(i) - 1 for i in triple]
    if len(ids) != 3 or len(set(ids)) != 3:
        raise ValueError("triple must consist of three distinct indices")
    if any(i < 0 or i >= gm.shape[0] for i in ids):
        raise ValueError(f"triple {tuple(triple)} outside 1..{gm.shape[0]}")
    (degenerate,), (values,) = _breakpoints(gm[np.ix_(ids, ids)], hi, tol)
    return BreakpointSet(values=tuple(values), degenerate=degenerate)


def reduce_scan(g, sigma_grid, tol: Tolerance = DEFAULT_TOL) -> list[dict]:
    """Per-pivot report of the conditioning scan, one entry per 1-based pivot.

    An entry lists the breakpoints of every triple of the other indices
    and, at each sigma of `sigma_grid`, the symmetrizable 3-subsets of the
    conditioning kernel (status "ok") or the pole there (status "pole"). A
    pivot whose row or column has a zero entry carries a "note" and empty
    lists instead.
    """
    g = as_matrix(g)
    n = g.shape[0]
    if n < 4:
        raise MatrixError("reduce-scan needs dimension at least 4")
    pivots = []
    for pivot in range(1, n + 1):
        try:
            gamma_mat = ratio_matrix(g, pivot, tol)
        except ZeroPivotEntry as exc:
            pivots.append({"pivot": pivot, "note": str(exc), "breakpoints": [], "scan": []})
            continue
        hi = _interval_end(g[pivot - 1, pivot - 1])
        rest = np.delete(np.arange(n), pivot - 1)
        degenerate, values = _breakpoints(gamma_mat[np.ix_(rest, rest)], hi, tol)
        triples = rest[triple_table(n - 1)[0]]
        breakpoints = [
            {"triple": triple, "values": roots, "degenerate": flag}
            for triple, roots, flag in zip((triples + 1).tolist(), values, degenerate)
        ]
        scan = []
        for sigma in sigma_grid:
            try:
                conditioned = conditioning_kernel(g, sigma, pivot, tol)
            except PoleAtSigma as exc:
                scan.append({"sigma": sigma, "status": "pole", "note": str(exc)})
                continue
            sym3 = count_symmetrizable_3subsets(conditioned, tol)
            scan.append(
                {"sigma": sigma, "status": "ok", "symmetrizable_3subsets": [list(t) for t in sym3]}
            )
        pivots.append({"pivot": pivot, "breakpoints": breakpoints, "scan": scan})
    return pivots


def block_double(g, alpha: float) -> np.ndarray:
    """2n x 2n block matrix [[G, alpha G], [alpha G, G]] for alpha in [0, 1]."""
    g = as_matrix(g)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return np.block([[g, alpha * g], [alpha * g, g]])


def _blocks(h: np.ndarray, split: int):
    n = h.shape[0]
    if not 1 <= split < n:
        raise ValueError(f"split must lie in 1..{n - 1}")
    return (
        h[:split, :split],
        h[:split, split:],
        h[split:, :split],
        h[split:, split:],
    )


def _solve_block(block: np.ndarray, rhs: np.ndarray, name: str, tol: Tolerance):
    if abs(det(block)) <= tol.threshold(block):
        raise SingularBlock(f"block {name} is numerically singular")
    return np.linalg.solve(block, rhs)


def schur_complement(h, block: str, split: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Schur complement of the named diagonal block of H.

    block="upper-left" eliminates H11 (rows/cols 1..split) and returns
    H22 - H21 H11^{-1} H12; block="lower-right" eliminates H22 and returns
    H11 - H12 H22^{-1} H21.
    """
    h = as_matrix(h)
    h11, h12, h21, h22 = _blocks(h, split)
    if block == "upper-left":
        return h22 - h21 @ _solve_block(h11, h12, "H11", tol)
    if block == "lower-right":
        return h11 - h12 @ _solve_block(h22, h21, "H22", tol)
    raise ValueError('block must be "upper-left" or "lower-right"')


@dataclass(frozen=True)
class JohnsonSmithResult:
    """Verdict of the blockwise inverse-M criterion with the first failure."""

    verdict: bool
    failed_condition: str | None  # "i" | "ii" | "iii" | "iv" | None


def johnson_smith_inverse_m(
    h, split: int, tol: Tolerance = DEFAULT_TOL
) -> JohnsonSmithResult:
    """Johnson-Smith criterion: H is an inverse M-matrix iff

      i.   H/H11 is an inverse M-matrix,
      ii.  H/H22 is an inverse M-matrix,
      iii. H22^{-1} H21 (H/H22)^{-1} is entrywise nonnegative,
      iv.  (H/H22)^{-1} H12 (H22)^{-1} is entrywise nonnegative,

    for entrywise-nonnegative H with nonsingular blocks (the four conditions
    are exactly the sign constraints on the block inverse of H). Conditions
    are evaluated in order and the first failure is reported.
    """
    h = as_matrix(h)
    h11, h12, h21, h22 = _blocks(h, split)
    over_h11 = schur_complement(h, "upper-left", split, tol)
    over_h22 = schur_complement(h, "lower-right", split, tol)

    if not is_inverse_m_matrix(over_h11, tol):
        return JohnsonSmithResult(False, "i")
    if not is_inverse_m_matrix(over_h22, tol):
        return JohnsonSmithResult(False, "ii")

    h22_inv_h21 = _solve_block(h22, h21, "H22", tol)
    over22_inv = np.linalg.inv(over_h22)  # nonsingular: it passed inverse-M above
    lower_left = h22_inv_h21 @ over22_inv
    if lower_left.min() < -tol.threshold(lower_left):
        return JohnsonSmithResult(False, "iii")

    upper_right = over22_inv @ h12 @ np.linalg.inv(h22)
    if upper_right.min() < -tol.threshold(upper_right):
        return JohnsonSmithResult(False, "iv")
    return JohnsonSmithResult(True, None)
