"""Monte Carlo validation of the closed-form Laplace transform of squared
Gaussian vectors and of the conditioning identity.

Sampling exists only for symmetric positive-semidefinite kernels at
exponent 1/2 (the squared-Gaussian case); the checks validate formulas on
that corner, nothing more.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonpositiveDeterminant, NotPSD, NotSymmetric
from .matcore import DEFAULT_TOL, Tolerance, _as_int, as_matrix, det
from .reductions import conditioning_kernel

# Draws are squared Gaussians, whose transform exponent is 1/2.
MC_B = 0.5
# Transform check points of laplace_report, each cycled to length n.
MC_ALPHA_POINTS = (
    (0.25, 0.25, 0.25),
    (1.0, 1.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.2, 0.4, 0.8),
)

# Draws are generated in fixed-size shards with sub-seed = seed + shard
# index, so results depend on (G, count, seed) only, never on worker count.
# A worker draws and reduces its shard in blocks of BLOCK_ROWS rows, so it
# holds about 1.4 MiB at n = 8, within a 2 MiB L2, not a shard; smaller
# blocks cost two workers more hand-offs of the interpreter lock. At n <= 8
# a block's z R^T has under 2^19 multiply-adds, which the OpenBLAS that
# numpy wheels ship (0.3.31) runs on one thread. Consecutive draws from one
# generator equal one large draw, so the blocks do not change the draws.
SHARD_SIZE = 65536
BLOCK_ROWS = 8191


@dataclass(frozen=True)
class SampleBatch:
    """Squared-Gaussian draws: `draws` has shape (count, n), all entries >= 0."""

    n: int
    count: int
    draws: np.ndarray


@dataclass(frozen=True)
class LTEstimate:
    """Monte Carlo estimate of a Laplace-transform value in (0, 1]."""

    point_estimate: float
    std_error: float
    count: int


def worker_count() -> int:
    """Threads that fill the shards: one per CPU this process may run on,
    at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), 8)
    return min(os.cpu_count() or 1, 8)


def _as_alphas(alphas, n: int) -> np.ndarray:
    al = np.asarray(alphas, dtype=float).ravel()
    if al.size != n:
        raise DimensionMismatch(f"alphas has length {al.size}, expected {n}")
    if not np.all((al >= 0.0) & (al < math.inf)):
        raise ValueError("alphas must be finite and nonnegative")
    return al


def _covariance_root(g, count: int, seed: int, tol: Tolerance) -> np.ndarray:
    """Check the sampling inputs; returns R with R R^T = G.

    G must be symmetric PSD at tolerance, both thresholds scaled by ‖G‖max,
    so that cG is accepted exactly when G is. Eigenvalues in
    (-zero_tol*‖G‖max, 0) are clamped to zero so rank-deficient covariances
    (e.g. the all-ones matrix) are accepted.
    """
    g = as_matrix(g)
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    s = float(np.abs(g).max())
    if np.abs(g - g.T).max() > tol.rel_tol * s:
        raise NotSymmetric("covariance is not symmetric at tolerance")
    eigenvalues, vectors = np.linalg.eigh(0.5 * (g + g.T))
    if eigenvalues.min() < -tol.zero_tol * s:
        raise NotPSD(f"covariance has eigenvalue {eigenvalues.min()}")
    return vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))


def _blocks(rows: int) -> zip:
    """(start, end) of each block of BLOCK_ROWS rows out of `rows`. numpy
    multiplies a one-row block by gemv, not gemm, which changes its last
    bits, so a lone last row joins the block before it."""
    starts = range(0, max(rows - 1, 1), BLOCK_ROWS)
    return zip(starts, [*starts[1:], rows])


def _shard_blocks(
    root: np.ndarray, seed: int, index: int, count: int, stop: threading.Event, out=None
):
    """Shard `index` of `count` draws, block by block: yields the
    squared-Gaussian rows from index * SHARD_SIZE in order, drawn from
    default_rng(seed + index), as views of `out` (the shard's rows) or,
    without `out`, of one buffer that the next block overwrites. Ends early
    once the threading.Event `stop` is set."""
    rows = min(SHARD_SIZE, count - index * SHARD_SIZE)
    rng = np.random.default_rng(seed + index)
    z = np.empty((min(rows, BLOCK_ROWS + 1), root.shape[0]))
    buffer = np.empty_like(z) if out is None else None
    for start, end in _blocks(rows):
        if stop.is_set():
            return
        eta = buffer[: end - start] if out is None else out[start:end]
        np.matmul(rng.standard_normal(out=z[: end - start]), root.T, out=eta)
        yield np.multiply(eta, eta, out=eta)


def _shard_count(count: int) -> int:
    return -(-count // SHARD_SIZE)


def _for_each_shard(count: int, task) -> None:
    """Run task(index, stop) for every shard of `count` draws on
    worker_count() threads. Worker w takes shards w, w + workers, ..., so
    the pool holds one future per worker, however many shards there are.
    The threading.Event `stop` is set when a task raises or the caller is
    interrupted; each worker checks it before each shard, and a task may
    check it between its blocks. The first error is re-raised."""
    shards = _shard_count(count)
    workers = min(worker_count(), shards)
    stop = threading.Event()

    def work(first: int) -> None:
        try:
            for index in range(first, shards, workers):
                if stop.is_set():
                    return
                task(index, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, w) for w in range(workers)]
        try:
            for future in futures:
                future.result()
        except BaseException:
            stop.set()
            raise


def sample_squared_gaussian(
    g, count: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SampleBatch:
    """Draw `count` squared-Gaussian vectors with covariance G, seeded.

    Identical (G, count, seed) give identical draws; see _covariance_root
    for what G must satisfy. count and seed are read as ints (ValueError
    if not integral), as in laplace_report.
    """
    count, seed = _as_int(count, "count"), _as_int(seed, "seed")
    root = _covariance_root(g, count, seed, tol)
    draws = np.empty((count, root.shape[0]))

    def fill_shard(index: int, stop: threading.Event) -> None:
        start = index * SHARD_SIZE
        for _ in _shard_blocks(root, seed, index, count, stop, draws[start : start + SHARD_SIZE]):
            pass

    _for_each_shard(count, fill_shard)
    return SampleBatch(n=root.shape[0], count=count, draws=draws)


def _table_width(k: int) -> int:
    return 1 + k + k * k


def _moments(psi: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """One row [rows, column means, centred cross-products] of the values
    exp(-1/2 psi a) for each column a of the (n, k) exponent matrix."""
    # (k, rows), so that mean() sums each column's values pairwise
    values = (-0.5 * exponents.T) @ psi.T
    np.exp(values, out=values)
    k = len(values)
    row = np.empty(_table_width(k))
    row[0] = values.shape[1]
    row[1 : k + 1] = values.mean(axis=1)
    values -= row[1 : k + 1, None]
    row[k + 1 :] = (values @ values.T).ravel()
    return row


@dataclass(frozen=True)
class _Moments:
    """Count, column means and centred cross-products of exp(-1/2 psi A)."""

    count: int
    mean: np.ndarray
    scatter: np.ndarray

    @classmethod
    def combine(cls, table: np.ndarray, k: int) -> _Moments:
        """Merge the rows (c_i, m_i, S_i) of _moments over k columns in one
        step: mean = sum (c_i / N) m_i and scatter = sum S_i + sum c_i d_i d_i^T,
        with d_i = m_i - mean."""
        counts, means = table[:, 0], table[:, 1 : k + 1]
        total = counts.sum()
        mean = (counts / total) @ means
        delta = means - mean
        scatter = table[:, k + 1 :].reshape(-1, k, k).sum(axis=0) + (delta.T * counts) @ delta
        return cls(count=int(total), mean=mean, scatter=scatter)

    def row(self) -> np.ndarray:
        """These moments as one row of _moments."""
        return np.concatenate(([self.count], self.mean, self.scatter.ravel()))

    @classmethod
    def of(cls, psi: np.ndarray, exponents: np.ndarray) -> _Moments:
        """Moments of one array of draws, reduced block by block."""
        rows = [_moments(psi[start:end], exponents) for start, end in _blocks(len(psi))]
        return cls.combine(np.array(rows), exponents.shape[1])

    def estimate(self, num: int, den: int | None = None) -> LTEstimate:
        """Mean of column `num`, or with `den` the ratio of the means of
        columns num and den (standard error by the delta method for a ratio
        of correlated means). One draw has zero scatter, so zero error.
        A `den` mean of 0 raises ZeroDivisionError; the only `den` column
        is the conditioning denominator."""
        cov = self.scatter / max(self.count - 1, 1)
        value = float(self.mean[num])
        var = cov[num, num]
        if den is not None:
            mean_den = float(self.mean[den])
            if mean_den == 0.0:
                raise ZeroDivisionError(
                    "the conditioning denominator, the mean of exp(-sigma psi_n / 2), "
                    "underflows to 0"
                )
            value /= mean_den
            var = (var - 2.0 * value * cov[num, den] + value * value * cov[den, den]) / (
                mean_den * mean_den
            )
        se = math.sqrt(max(var, 0.0) / self.count)
        return LTEstimate(point_estimate=value, std_error=se, count=self.count)


def empirical_laplace(batch: SampleBatch, alphas) -> LTEstimate:
    """Sample mean and standard error of exp(-1/2 sum_i alpha_i psi_i)."""
    al = _as_alphas(alphas, batch.n)
    return _Moments.of(batch.draws, al[:, None]).estimate(0)


def closed_form_laplace(g, alphas, b: float = MC_B) -> float:
    """det(I + diag(alphas) G)^{-b}."""
    g = as_matrix(g)
    al = _as_alphas(alphas, g.shape[0])
    if not 0.0 < b < math.inf:
        raise ValueError("exponent b must be finite and strictly positive")
    value = float(det(np.eye(g.shape[0]) + al[:, None] * g))
    if value <= 0.0:
        raise NonpositiveDeterminant(f"det(I + alpha G) = {value} is not positive")
    return value**-b


@dataclass(frozen=True)
class ConditioningCheck:
    """Monte Carlo against closed form for the tilted, pivot-conditioned law."""

    lhs: LTEstimate
    rhs: float


def verify_conditioning(
    batch: SampleBatch,
    g,
    sigma: float,
    alphas,
    tol: Tolerance = DEFAULT_TOL,
) -> ConditioningCheck:
    """Compare the exponentially tilted empirical transform with the
    conditioning-kernel closed form at exponent 1/2.

    `batch` holds draws with covariance G, as sample_squared_gaussian
    returns them. lhs estimates E[exp(-1/2 sum alpha_j psi_j) exp(-sigma/2
    psi_n)] divided by E[exp(-sigma/2 psi_n)] (standard error by the delta
    method for a ratio of correlated means); rhs evaluates the closed form
    on the conditioning kernel with pivot n.
    """
    g = as_matrix(g)
    n = g.shape[0]
    if batch.n != n:
        raise DimensionMismatch(f"draws have dimension {batch.n}, expected {n}")
    if n < 2:
        raise ValueError("conditioning needs dimension at least 2")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be finite and strictly positive")
    al = _as_alphas(alphas, n - 1)
    moments = _Moments.of(batch.draws, _conditioning_exponents(al, sigma))
    kernel = conditioning_kernel(g, sigma, n, tol)
    rhs = closed_form_laplace(kernel, al, MC_B)
    return ConditioningCheck(lhs=moments.estimate(0, 1), rhs=float(rhs))


def _conditioning_exponents(alphas: np.ndarray, sigma: float) -> np.ndarray:
    """Exponent columns (alphas, sigma) and (0, ..., 0, sigma): the tilted
    numerator and denominator of the conditioning identity."""
    return np.array([[*alphas, sigma], [0.0] * len(alphas) + [sigma]]).T


def _report_line(estimate: LTEstimate, closed: float, **fields) -> dict:
    """One report line: `fields`, the estimate, the closed form and whether
    the two agree within 3 standard errors."""
    gap = abs(estimate.point_estimate - closed)
    return {
        **fields,
        "empirical": estimate.point_estimate,
        "std_error": estimate.std_error,
        "closed_form": closed,
        "within_3se": bool(gap <= 3.0 * estimate.std_error or gap == 0.0),
    }


def laplace_report(
    g, count: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[dict], dict | None]:
    """Empirical against closed-form transform at MC_ALPHA_POINTS, and the
    conditioning identity at sigma = 1 with pivot n (None for n = 1).

    One pass serves every line: each shard of `count` draws is drawn,
    transformed by every exponent column and reduced to its moments block
    by block in one task, and its block moments are merged into the shard's
    row of the table, so a worker holds one block of BLOCK_ROWS rows (one
    more when a lone last row joins it) and no (count, n) array is held.
    """
    count, seed = _as_int(count, "count"), _as_int(seed, "seed")
    root = _covariance_root(g, count, seed, tol)
    n = root.shape[0]
    points = [[base[i % len(base)] for i in range(n)] for base in MC_ALPHA_POINTS]
    columns = [np.array(points).T]
    sigma, cond_alphas = 1.0, [0.5] * (n - 1)
    if n > 1:
        columns.append(_conditioning_exponents(np.array(cond_alphas), sigma))
    exponents = np.hstack(columns)
    k = exponents.shape[1]
    table = np.empty((_shard_count(count), _table_width(k)))

    def reduce_shard(index: int, stop: threading.Event) -> None:
        blocks = _shard_blocks(root, seed, index, count, stop)
        rows = [_moments(block, exponents) for block in blocks]
        if not stop.is_set():  # else the blocks ended early and the call raises
            table[index] = _Moments.combine(np.array(rows), k).row()

    _for_each_shard(count, reduce_shard)
    moments = _Moments.combine(table, k)
    lines = [
        _report_line(moments.estimate(j), closed_form_laplace(g, alphas, MC_B), alphas=alphas)
        for j, alphas in enumerate(points)
    ]
    if n < 2:
        return lines, None
    kernel = conditioning_kernel(g, sigma, n, tol)
    rhs = closed_form_laplace(kernel, cond_alphas, MC_B)
    check = _report_line(moments.estimate(k - 2, k - 1), rhs, sigma=sigma, alphas=cond_alphas)
    return lines, check
