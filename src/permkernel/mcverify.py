"""Monte Carlo validation of the closed-form Laplace transform of squared
Gaussian vectors and of the conditioning identity.

Sampling exists only for symmetric positive-semidefinite kernels at
exponent 1/2 (the squared-Gaussian case); the checks validate formulas on
that corner, nothing more.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonpositiveDeterminant, NotPSD, NotSymmetric
from .matcore import DEFAULT_TOL, Tolerance, as_matrix, scale_of
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
SHARD_SIZE = 65536


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
    """Threads that fill the shards: one per CPU, at most 8."""
    return min(os.cpu_count() or 1, 8)


def _as_alphas(alphas, n: int) -> np.ndarray:
    al = np.asarray(alphas, dtype=float).ravel()
    if al.size != n:
        raise DimensionMismatch(f"alphas has length {al.size}, expected {n}")
    if np.any(al < 0.0):
        raise ValueError("alphas must be nonnegative")
    return al


def sample_squared_gaussian(
    g, count: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> SampleBatch:
    """Draw `count` squared-Gaussian vectors with covariance G, seeded.

    G must be symmetric PSD at tolerance; eigenvalues in (-zero_tol*scale, 0)
    are clamped to zero so rank-deficient covariances (e.g. the all-ones
    matrix) are accepted. Identical (G, count, seed) give identical draws.
    """
    g = as_matrix(g)
    n = g.shape[0]
    if count < 1:
        raise ValueError("count must be at least 1")
    s = scale_of(g)
    if np.abs(g - g.T).max() > tol.rel_tol * s:
        raise NotSymmetric("covariance is not symmetric at tolerance")
    sym = 0.5 * (g + g.T)
    eigenvalues, vectors = np.linalg.eigh(sym)
    if eigenvalues.min() < -tol.zero_tol * s:
        raise NotPSD(f"covariance has eigenvalue {eigenvalues.min()}")
    root = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))

    draws = np.empty((count, n))

    def fill_shard(start: int) -> None:
        rows = draws[start : start + SHARD_SIZE]
        z = np.random.default_rng(seed + start // SHARD_SIZE).standard_normal(rows.shape)
        eta = z @ root.T
        np.multiply(eta, eta, out=rows)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        list(pool.map(fill_shard, range(0, count, SHARD_SIZE)))
    return SampleBatch(n=n, count=count, draws=draws)


def empirical_laplace(batch: SampleBatch, alphas) -> LTEstimate:
    """Sample mean and standard error of exp(-1/2 sum_i alpha_i psi_i)."""
    al = _as_alphas(alphas, batch.n)
    values = np.exp(-0.5 * batch.draws @ al)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(batch.count)) if batch.count > 1 else 0.0
    return LTEstimate(point_estimate=mean, std_error=se, count=batch.count)


def closed_form_laplace(g, alphas, b: float = 0.5) -> float:
    """det(I + diag(alphas) G)^{-b}."""
    g = as_matrix(g)
    al = _as_alphas(alphas, g.shape[0])
    if b <= 0.0:
        raise ValueError("exponent b must be strictly positive")
    det = float(np.linalg.det(np.eye(g.shape[0]) + al[:, None] * g))
    if det <= 0.0:
        raise NonpositiveDeterminant(f"det(I + alpha G) = {det} is not positive")
    return det**-b


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
    if sigma <= 0.0:
        raise ValueError("sigma must be strictly positive")
    al = _as_alphas(alphas, n - 1)

    count = batch.count
    psi = batch.draws
    numer = np.exp(-0.5 * (psi[:, :-1] @ al + sigma * psi[:, -1]))
    denom = np.exp(-0.5 * sigma * psi[:, -1])
    mean_num = float(numer.mean())
    mean_den = float(denom.mean())
    ratio = mean_num / mean_den
    if count > 1:
        cov = np.cov(numer, denom, ddof=1)
        var = (
            cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]
        ) / (mean_den * mean_den * count)
        se = math.sqrt(max(var, 0.0))
    else:
        se = 0.0
    kernel = conditioning_kernel(g, sigma, n, tol)
    rhs = closed_form_laplace(kernel, al, 0.5)
    return ConditioningCheck(
        lhs=LTEstimate(point_estimate=ratio, std_error=se, count=count),
        rhs=float(rhs),
    )


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
    conditioning identity at sigma = 1 with pivot n (None for n = 1). One
    batch of `count` draws serves every line."""
    batch = sample_squared_gaussian(g, count, seed, tol)
    n = batch.n
    lines = []
    for base in MC_ALPHA_POINTS:
        alphas = [base[i % len(base)] for i in range(n)]
        est = empirical_laplace(batch, alphas)
        lines.append(_report_line(est, closed_form_laplace(g, alphas, MC_B), alphas=alphas))
    if n < 2:
        return lines, None
    alphas = [0.5] * (n - 1)
    check = verify_conditioning(batch, g, 1.0, alphas, tol)
    return lines, _report_line(check.lhs, check.rhs, sigma=1.0, alphas=alphas)
