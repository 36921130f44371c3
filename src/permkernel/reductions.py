"""Kernel transformations: conditioning kernels, pivot ratio matrices,
symmetrizability breakpoints in the tilting parameter and the scan over
pivots that reports them, block doubling, and the Schur-complement
criterion for inverse M-matrices."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, MatrixError, PoleAtSigma, SingularBlock, ZeroPivotEntry
from .matcore import DEFAULT_TOL, Tolerance, as_matrix, det, scale_of
from .classify import count_symmetrizable_3subsets, is_inverse_m_matrix


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
    if abs(denom) <= tol.zero_tol * max(1.0, abs(sigma) * scale_of(g)):
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
    thr = tol.zero_tol * scale_of(g)
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
    if pivot_diag <= 0.0:
        raise ValueError("pivot_diag must be strictly positive")
    ids = [int(i) - 1 for i in triple]
    if len(ids) != 3 or len(set(ids)) != 3:
        raise ValueError("triple must consist of three distinct indices")
    if any(i < 0 or i >= gm.shape[0] for i in ids):
        raise ValueError(f"triple {tuple(triple)} outside 1..{gm.shape[0]}")
    i, j, k = ids
    x, y, z = gm[i, j], gm[j, k], gm[k, i]
    u, v, w = gm[j, i], gm[i, k], gm[k, j]

    # cubic terms cancel identically; remaining coefficients of c^2, c, 1
    a2 = (x + y + z) - (u + v + w)
    a1 = -((x * y + y * z + z * x) - (u * v + v * w + w * u))
    a0 = x * y * z - u * v * w

    s = max(1.0, float(np.abs(gm[np.ix_(ids, ids)]).max()))
    if (
        abs(a2) <= tol.zero_tol * s
        and abs(a1) <= tol.zero_tol * s**2
        and abs(a0) <= tol.zero_tol * s**3
    ):
        return BreakpointSet(values=(), degenerate=True)

    hi = 1.0 / pivot_diag
    roots: list[float] = []
    if abs(a2) > tol.zero_tol * s:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0:
            r = math.sqrt(disc)
            roots = [(-a1 - r) / (2.0 * a2), (-a1 + r) / (2.0 * a2)]
    elif abs(a1) > tol.zero_tol * s**2:
        roots = [-a0 / a1]
    selected: list[float] = []
    for r in sorted(float(r) for r in roots):
        if 0.0 < r < hi and all(
            abs(r - prev) > tol.zero_tol * max(1.0, hi) for prev in selected
        ):
            selected.append(r)
    return BreakpointSet(values=tuple(selected), degenerate=False)


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
        rest = [i for i in range(1, n + 1) if i != pivot]
        breakpoints = []
        for triple in itertools.combinations(rest, 3):
            bp = symmetrizability_breakpoints(gamma_mat, triple, g[pivot - 1, pivot - 1], tol)
            breakpoints.append(
                {"triple": list(triple), "values": list(bp.values), "degenerate": bp.degenerate}
            )
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
    if abs(det(block)) <= tol.zero_tol * scale_of(block):
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
    slack = tol.zero_tol * scale_of(lower_left)
    if lower_left.min() < -slack:
        return JohnsonSmithResult(False, "iii")

    upper_right = over22_inv @ h12 @ np.linalg.inv(h22)
    slack = tol.zero_tol * scale_of(upper_right)
    if upper_right.min() < -slack:
        return JohnsonSmithResult(False, "iv")
    return JohnsonSmithResult(True, None)
