"""Kernel transformations: conditioning kernels, pivot ratio matrices,
symmetrizability breakpoints in the tilting parameter and the scan over
pivots that reports them, block doubling, and the Schur-complement
criterion for inverse M-matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatrixError, PoleAtSigma, SingularBlock, ZeroPivotEntry
from .matcore import DEFAULT_TOL, Tolerance, _as_int, _inverse_or_none, _positions, _solve, as_matrix
from .classify import _is_inverse_m, _nonnegative, _symmetrizable, three_cycles, triple_table

_ZERO_NOTE = "pivot row/column {0} has a zero entry"
_POLE_NOTE = "1 + sigma*G({0},{0}) vanishes at sigma = {1}"
# Triples x matrices in one reduce_scan stack. three_cycles gathers 9 doubles
# a triple, 72 KiB, below glibc's 128 KiB mmap threshold: larger temporaries
# are mapped afresh and page-faulted in on every call
_TRIPLE_CHUNK = 2**10


def _zero_pivots(g: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the unusable pivots: a row or column entry is at most tol.threshold(g)."""
    zero = np.abs(g) <= tol.threshold(g)
    return zero.any(axis=0) | zero.any(axis=1)


def _pivot_products(cols: np.ndarray, rows: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """G(i,p) G(p,j) from the columns and rows (k, n') of the 0-based `pivots`;
    OverflowError naming the first pivot where a product is not finite."""
    with np.errstate(over="ignore"):
        outer = cols[:, :, None] * rows[:, None, :]
    bad = ~np.isfinite(outer).all(axis=(1, 2))
    if bad.any():
        raise OverflowError(f"G(i,p) G(p,j) overflows at pivot p = {pivots[bad.argmax()] + 1}")
    return outer


def _pivot_blocks(g: np.ndarray, pivots: np.ndarray):
    """For each 0-based pivot p of `pivots`: the other indices in order,
    shape (k, n-1), G without row and column p and the outer product
    G(i,p) G(p,j) over the other indices, both stacks (k, n-1, n-1)."""
    step = np.arange(g.shape[0] - 1)
    rest = step + (step >= pivots[:, None])
    cols, rows = g[rest, pivots[:, None]], g[pivots[:, None], rest]
    return rest, g[rest[:, :, None], rest[:, None, :]], _pivot_products(cols, rows, pivots)


def _poles(g: np.ndarray, pivots: np.ndarray, sigmas, tol: Tolerance):
    """Poles (k, s), where |1 + sigma G(p,p)| <= tol.threshold(|sigma| max(1,
    max|G|)), and the other pairs' positions in `pivots` and sigma / (1 +
    sigma G(p,p)). ValueError for a non-finite sigma, OverflowError where
    sigma G(p,p) or |sigma| max|G| overflows (against inf every denominator
    is a pole)."""
    sig = np.asarray(sigmas, dtype=float)
    if not np.isfinite(sig).all():
        raise ValueError("sigma values must be finite")
    with np.errstate(over="ignore"):
        terms = sig * g[pivots, pivots][:, None]
        scale = np.abs(sig) * max(1.0, float(np.abs(g).max()))
    bad = np.argwhere(~(np.isfinite(terms) & np.isfinite(scale)))
    if bad.size:
        k, j = pivots[bad[0, 0]] + 1, bad[0, 1]
        raise OverflowError(f"sigma*G({k},{k}) or |sigma|*max|G| overflows at sigma = {sigmas[j]}")
    denom = 1.0 + terms
    poles = np.abs(denom) <= tol.threshold(scale, axis=())  # axis=(): one per sigma
    pi, si = np.nonzero(~poles)
    return poles, pi, sig[si] / denom[pi, si]


def _conditioning_kernels(sub: np.ndarray, outer: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sub - coef * outer per pair: the `_pivot_blocks` of each pair's pivot
    and its `_poles` coefficient."""
    return sub - coefs[:, None, None] * outer


def conditioning_kernel(g, sigma: float, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Kernel of the vector tilted by exp(-sigma/2 * psi_k), pivot removed.

    Entry (i, j) over the remaining indices is
    G(i,j) - sigma / (1 + sigma G(k,k)) * G(i,k) G(k,j); as sigma -> 0 this
    is plain deletion of row and column k. `k` is 1-based. The one-pair case
    of reduce_scan's stack, with its PoleAtSigma and errors (see `_poles`).
    """
    g = as_matrix(g)
    n = g.shape[0]
    if n < 2:
        raise ValueError("conditioning needs dimension at least 2")
    pivots = np.array(_positions([k], n))
    poles, _, coefs = _poles(g, pivots, [sigma], tol)
    if poles[0, 0]:
        raise PoleAtSigma(_POLE_NOTE.format(pivots[0] + 1, sigma))
    _, sub, outer = _pivot_blocks(g, pivots)
    return _conditioning_kernels(sub, outer, coefs)[0]


def ratio_matrix(g, p: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pivot ratio matrix with entries G(i,j) / (G(i,p) G(p,j)), 1-based p.

    Requires the pivot column and row to be entrywise nonzero, with finite
    products (see `_pivot_products`). Entry (p, p) equals 1 / G(p,p).
    """
    g = as_matrix(g)
    (q,) = _positions([p], g.shape[0])
    if _zero_pivots(g, tol)[q]:
        raise ZeroPivotEntry(_ZERO_NOTE.format(q + 1))
    return g / _pivot_products(g[None, :, q], g[None, q], np.array([q]))[0]


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
    if not np.isfinite(pivot_diag):
        raise ValueError("pivot_diag must be finite")
    if pivot_diag <= 0.0:
        raise ValueError("pivot_diag must be strictly positive")
    return 1.0 / pivot_diag


def _breakpoints(gm: np.ndarray, hi: np.ndarray, tol: Tolerance):
    """Breakpoints of every triple (see `three_cycles`) of each matrix of a
    stack (k, n, n) in one pass; hi (k,) holds each one's interval end.

    Returns (degenerate, matrix, triple, values): the (k, m) flags, then the
    matrix, triple and value of each root kept in (0, hi), by matrix, triple
    and value. The thresholds are tol.threshold of the triple's 3x3 block at
    degree 1 for c^2, 2 for c and 3 for the constant term. OverflowError
    when a discriminant or degree-3 threshold is not a finite double.
    """
    entries = three_cycles(gm)
    x, y, z, u, v, w = entries[:6]
    with np.errstate(over="ignore", invalid="ignore"):
        # cubic terms cancel identically; remaining coefficients of c^2, c, 1
        a2 = (x + y + z) - (u + v + w)
        a1 = -((x * y + y * z + z * x) - (u * v + v * w + w * u))
        a0 = x * y * z - u * v * w
        discriminant = a1 * a1 - 4.0 * a2 * a0  # finite only if a2, a1 and a0 are
        cubic_zero = tol.threshold(entries, 3, axis=0)  # finite only if degrees 1, 2 are
    if not (np.isfinite(discriminant).all() and np.isfinite(cubic_zero).all()):
        raise OverflowError("a breakpoint discriminant or zero threshold is not a finite double")

    quadratic = np.abs(a2) > tol.threshold(entries, 1, axis=0)
    linear = ~quadratic & (np.abs(a1) > tol.threshold(entries, 2, axis=0))
    degenerate = ~quadratic & ~linear & (np.abs(a0) <= cubic_zero)

    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(discriminant)  # NaN for a negative discriminant
        left, right = (-a1 - r) / (2.0 * a2), (-a1 + r) / (2.0 * a2)
        linear_root = np.where(linear, -a0 / a1, np.nan)
        roots = np.where(
            quadratic,
            np.stack((np.fmin(left, right), np.fmax(left, right))),
            np.stack((linear_root, np.full_like(linear_root, np.nan))),
        )
    inside = (0.0 < roots) & (roots < hi[:, None])
    distinct = np.abs(roots[1] - roots[0]) > tol.threshold(hi[:, None], axis=())  # per matrix
    keep = np.stack((inside[0], inside[1] & (~inside[0] | distinct)), axis=-1)
    matrix, triple, _ = np.nonzero(keep)
    return degenerate, matrix, triple, np.moveaxis(roots, 0, -1)[keep]


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
    interval (0, 1/pivot_diag). OverflowError when the quadratic's
    discriminant or zero threshold is beyond a double.
    """
    gm = as_matrix(gamma_mat)
    hi = _interval_end(pivot_diag)
    ids = _positions(triple, gm.shape[0])
    if len(ids) != 3 or len(set(ids)) != 3:
        raise ValueError("triple must consist of three distinct indices")
    degenerate, _, _, values = _breakpoints(gm[np.ix_(ids, ids)][None], np.array([hi]), tol)
    return BreakpointSet(values=tuple(values.tolist()), degenerate=bool(degenerate[0, 0]))


def reduce_scan(g, sigma_grid, tol: Tolerance = DEFAULT_TOL) -> list[dict]:
    """Per-pivot report of the conditioning scan, one entry per 1-based pivot.

    An entry lists the breakpoints of every triple of the other indices
    and, at each sigma of `sigma_grid`, the symmetrizable 3-subsets of the
    conditioning kernel (status "ok") or the pole there (status "pole"). A
    pivot whose row or column has a zero entry carries a "note" and empty
    lists instead. Errors: ValueError for a nonpositive diagonal at a usable
    pivot, then those of `_poles` and `_pivot_products`. Pivots and non-pole
    (pivot, sigma) pairs run in stacks of _TRIPLE_CHUNK // C(n-1, 3) matrices
    (at least one), on pivot blocks built once; each kernel is bit for bit
    conditioning_kernel's. Each pair's subsets come from one mask of all pairs.
    """
    g = as_matrix(g)
    sigma_grid = [float(sigma) for sigma in sigma_grid]  # echoed in the report
    n = g.shape[0]
    if n < 4:
        raise MatrixError("reduce-scan needs dimension at least 4")
    unusable = _zero_pivots(g, tol)
    usable = np.flatnonzero(~unusable)
    hi = np.array([_interval_end(g[p, p]) for p in usable])
    poles, pairs, coefs = _poles(g, usable, sigma_grid, tol)
    rest, sub, outer = _pivot_blocks(g, usable)
    triples = triple_table(n - 1)[0]
    width = max(1, _TRIPLE_CHUNK // len(triples))
    found = []  # breakpoint entries per usable pivot
    for part in (slice(start, start + width) for start in range(0, len(usable), width)):
        flags, matrix, triple, values = _breakpoints(sub[part] / outer[part], hi[part], tol)
        entries = [
            [{"triple": t, "values": [], "degenerate": f} for t, f in zip(*entry)]
            for entry in zip((rest[part][:, triples] + 1).tolist(), flags.tolist())
        ]
        for i, t, value in zip(matrix.tolist(), triple.tolist(), values.tolist()):
            entries[i][t]["values"].append(value)
        found += entries
    mask = np.empty((len(coefs), len(triples)), dtype=bool)  # per non-pole pair
    for part in (slice(start, start + width) for start in range(0, len(coefs), width)):
        kernels = _conditioning_kernels(sub[pairs[part]], outer[pairs[part]], coefs[part])
        mask[part] = _symmetrizable(kernels, tol)
    listed, ends = (triples[np.nonzero(mask)[1]] + 1).tolist(), np.cumsum(mask.sum(axis=1)).tolist()
    subsets = (listed[start:end] for start, end in zip([0, *ends], ends))
    found, pivots = iter(zip(found, poles.tolist())), []
    for pivot, skip in enumerate(unusable.tolist(), 1):
        if skip:
            note = _ZERO_NOTE.format(pivot)
            pivots.append({"pivot": pivot, "note": note, "breakpoints": [], "scan": []})
            continue
        breakpoints, pole_row = next(found)
        scan = [
            {"sigma": sigma, "status": "pole", "note": _POLE_NOTE.format(pivot, sigma)}
            if pole
            else {"sigma": sigma, "status": "ok", "symmetrizable_3subsets": next(subsets)}
            for sigma, pole in zip(sigma_grid, pole_row)
        ]
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
    split = _as_int(split, "split")
    if not 1 <= split < n:
        raise ValueError(f"split must lie in 1..{n - 1}")
    return (
        h[:split, :split],
        h[:split, split:],
        h[split:, :split],
        h[split:, split:],
    )


def _solve_block(block: np.ndarray, rhs: np.ndarray, name: str, tol: Tolerance):
    singular, x = _solve(block[None], rhs, tol)
    if singular[0]:
        raise SingularBlock(f"block {name} is numerically singular")
    return x[0]


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
    h11_inv_h12 = _solve_block(h11, h12, "H11", tol)
    h22_inv_h21 = _solve_block(h22, h21, "H22", tol)
    over_h11 = h22 - h21 @ h11_inv_h12
    over_h22 = h11 - h12 @ h22_inv_h21

    over11_inv = _inverse_or_none(as_matrix(over_h11), tol)
    if not _is_inverse_m(over_h11, over11_inv, tol):
        return JohnsonSmithResult(False, "i")
    over22_inv = _inverse_or_none(as_matrix(over_h22), tol)
    if not _is_inverse_m(over_h22, over22_inv, tol):
        return JohnsonSmithResult(False, "ii")
    if not _nonnegative(h22_inv_h21 @ over22_inv, tol):
        return JohnsonSmithResult(False, "iii")
    # minus H^{-1}'s upper-right block: H11^{-1} H12 (H/H11)^{-1} = (H/H22)^{-1} H12 H22^{-1}
    if not _nonnegative(h11_inv_h12 @ over11_inv, tol):
        return JohnsonSmithResult(False, "iv")
    return JohnsonSmithResult(True, None)
