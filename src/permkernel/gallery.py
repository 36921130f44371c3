"""Reference matrices with known classification behaviour, and the checks
of their published facts.

REFERENCE_GROUPS states each fact once; `reproduce_paper` runs it for the
CLI and the acceptance tests read the same rows. The two parametric
families assert their admissibility constraints on construction, so an
out-of-range instance fails loudly instead of silently changing the
expected verdicts.
"""

from __future__ import annotations

import itertools

import numpy as np

from .classify import (
    classify_kernel,
    count_symmetrizable_3subsets,
    is_diag_equiv_inverse_m,
    is_diag_equiv_symmetric,
    is_inverse_m_matrix,
    is_symmetrizable_3x3,
)
from .matcore import DEFAULT_TOL, Tolerance, det, inverse, principal_submatrix
from .mcverify import laplace_report
from .reductions import _solve_block, block_double, johnson_smith_inverse_m, schur_complement


def blockwise_inverse_m() -> np.ndarray:
    """Entrywise-positive 4x4 that is not an inverse M-matrix even though
    every 3x3 principal submatrix is one (and none of them is
    symmetrizable). Its inverse has a positive entry at (2, 3)."""
    return np.array(
        [
            [1.00, 0.10, 0.40, 0.30],
            [0.40, 1.00, 0.40, 0.65],
            [0.10, 0.20, 1.00, 0.60],
            [0.15, 0.30, 0.60, 1.00],
        ]
    )


def tripletwise_divisible_covariance() -> np.ndarray:
    """Symmetric positive-definite 4x4 covariance whose squared-Gaussian
    vector has every 3-variable marginal infinitely divisible while the full
    vector is not: the inverse has a positive entry at (2, 4)."""
    return np.array(
        [
            [1.00, 0.50, 0.35, 0.40],
            [0.50, 1.00, 0.50, 0.26],
            [0.35, 0.50, 1.00, 0.50],
            [0.40, 0.26, 0.50, 1.00],
        ]
    )


def two_symmetrizable_triples(
    a: float = 2.2,
    b: float = 2.0,
    e: float = 2.5,
    diag: tuple = (3.0, 3.0, 3.0),
    corner: float = 1.0,
) -> np.ndarray:
    """Family member with exactly two symmetrizable 3x3 principal blocks,
    {1,2,3} and {2,3,4}; an inverse M-matrix, yet not symmetrizable.

    Admissibility: each diag entry > e; a, b, e > corner; e > a and e > b;
    a != b. The defaults satisfy all of these.
    """
    d1, d2, d3 = (float(x) for x in diag)
    if a == b:
        raise ValueError("needs a != b, otherwise all four triples symmetrize")
    if not (e > a and e > b):
        raise ValueError("needs e > a and e > b")
    if min(a, b, e) <= corner:
        raise ValueError("needs a, b, e > corner")
    if min(d1, d2, d3) <= e:
        raise ValueError("needs every diagonal entry > e")
    return np.array(
        [
            [d1, a, a, corner],
            [b, d2, e, corner],
            [b, e, d3, corner],
            [corner, corner, corner, corner],
        ]
    )


def one_symmetrizable_triple(
    a: float = 2.0,
    b: float = 3.0,
    e: float = 4.0,
    diag: tuple = (7.0, 7.0, 7.0),
    corner: float = 1.0,
) -> np.ndarray:
    """Family member whose unique symmetrizable 3x3 principal block is
    {1,2,3}; with the shipped defaults it is also an inverse M-matrix, so it
    is the kernel of an infinitely divisible vector.

    Admissibility: a, b, e positive and pairwise distinct; each diag entry
    > corner and > max(a, b, e); min(a, b, e) > corner. Not every admissible
    choice is inverse-M (diag=(5,5,5) with the default a, b, e is not), so
    the defaults were picked to be.
    """
    d1, d2, d3 = (float(x) for x in diag)
    if len({a, b, e}) != 3 or min(a, b, e) <= 0.0:
        raise ValueError("needs a, b, e positive and pairwise distinct")
    if min(a, b, e) <= corner:
        raise ValueError("needs min(a, b, e) > corner")
    if min(d1, d2, d3) <= max(a, b, e) or min(d1, d2, d3) <= corner:
        raise ValueError("needs every diagonal entry > max(a, b, e) and > corner")
    return np.array(
        [
            [d1, e, a, corner],
            [b, d2, a, corner],
            [b, e, d3, corner],
            [corner, corner, corner, corner],
        ]
    )


def laplace_demo_covariance() -> np.ndarray:
    """Well-conditioned symmetric positive-definite 3x3 used by the Monte
    Carlo demonstration lines."""
    return np.array(
        [
            [1.00, 0.50, 0.20],
            [0.50, 1.00, 0.30],
            [0.20, 0.30, 1.00],
        ]
    )


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _blockwise_counterexample(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    a = blockwise_inverse_m()
    a_inv = inverse(a, tol)
    checks = [
        _check("inverse entry (2,3) positive", a_inv[1, 2] > 0.0, f"value {a_inv[1, 2]:.6f}"),
        _check("not an inverse M-matrix", not is_inverse_m_matrix(a, tol)),
    ]
    for triple in itertools.combinations(range(1, 5), 3):
        block = principal_submatrix(a, triple)
        checks.append(_check(f"block {triple} inverse-M", is_inverse_m_matrix(block, tol)))
        checks.append(
            _check(f"block {triple} not symmetrizable", not is_symmetrizable_3x3(block, tol))
        )
    verdict = classify_kernel(a, b=0.5, max_order=4, tol=tol)
    checks.append(
        _check(
            "classified hypotheses-met-not-kernel",
            verdict.theorem1 == "hypotheses-met-not-kernel",
            f"got {verdict.theorem1}",
        )
    )
    return checks


def _two_triples_family(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    gm = two_symmetrizable_triples()
    sym3 = count_symmetrizable_3subsets(gm, tol)
    return [
        _check("not diagonally equivalent to symmetric", not is_diag_equiv_symmetric(gm, tol)),
        _check(
            "exactly the triples {1,2,3} and {2,3,4} symmetrize",
            sym3 == [(1, 2, 3), (2, 3, 4)],
            f"got {sym3}",
        ),
        _check(
            "inverse M-matrix after sign normalisation",
            is_diag_equiv_inverse_m(gm, tol) is not None,
        ),
        _check("inverse M-matrix as given", is_inverse_m_matrix(gm, tol)),
    ]


def _one_triple_family(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    km = one_symmetrizable_triple()
    sym3 = count_symmetrizable_3subsets(km, tol)
    verdict = classify_kernel(km, b=0.5, max_order=4, tol=tol)
    return [
        _check("unique symmetrizable triple {1,2,3}", sym3 == [(1, 2, 3)], f"got {sym3}"),
        _check("inverse M-matrix", is_inverse_m_matrix(km, tol)),
        _check(
            "classified hypotheses-met-ID",
            verdict.theorem1 == "hypotheses-met-ID",
            f"got {verdict.theorem1}",
        ),
    ]


def _tripletwise_covariance(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    bmat = tripletwise_divisible_covariance()
    b_inv = inverse(bmat, tol)
    checks = [
        _check("inverse entry (2,4) positive", b_inv[1, 3] > 0.0, f"value {b_inv[1, 3]:.6f}"),
        _check("not an inverse M-matrix", not is_inverse_m_matrix(bmat, tol)),
    ]
    for triple in itertools.combinations(range(1, 5), 3):
        block = principal_submatrix(bmat, triple)
        checks.append(
            _check(
                f"block {triple} diag-equiv inverse-M",
                is_diag_equiv_inverse_m(block, tol) is not None,
            )
        )
    return checks


def _block_doubled(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    """Block-doubled kernels are never inverse-M."""
    base = one_symmetrizable_triple()
    base_inv = inverse(base, tol)
    xs = np.random.default_rng(seed).uniform(-2.0, 2.0, 20)[:, None, None]
    checks = []
    for alpha in (0.25, 0.5, 0.75):
        doubled = block_double(base, alpha)
        lhs = det(doubled - xs * np.eye(8))
        rhs = det((1.0 + alpha) * base - xs * np.eye(4)) * det((1.0 - alpha) * base - xs * np.eye(4))
        worst = (np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)).max()
        checks.append(
            _check(
                f"alpha={alpha}: characteristic polynomial factorises",
                worst <= 1e-8,
                f"worst relative gap {worst:.2e}",
            )
        )
        js = johnson_smith_inverse_m(doubled, 4, tol)
        checks.append(
            _check(
                f"alpha={alpha}: blockwise criterion fails at (iii) or (iv)",
                (not js.verdict) and js.failed_condition in ("iii", "iv"),
                f"failed condition {js.failed_condition}",
            )
        )
        complement = schur_complement(doubled, "lower-right", 4, tol)
        gap = abs(complement - (1.0 - alpha**2) * base).max()
        checks.append(
            _check(
                f"alpha={alpha}: complement equals (1-alpha^2) G",
                gap <= 1e-10 * max(1.0, abs(base).max()),
                f"max gap {gap:.2e}",
            )
        )
        right = _solve_block(complement.T, (alpha * base).T, "complement^T", tol).T  # alpha G S^-1
        lower_left = _solve_block(base, right, "G", tol)
        expected = alpha / (1.0 - alpha**2) * base_inv
        gap = abs(lower_left - expected).max()
        checks.append(
            _check(
                f"alpha={alpha}: off-block product equals alpha/(1-alpha^2) G^-1",
                gap <= 1e-10 * max(1.0, abs(expected).max()),
                f"max gap {gap:.2e}",
            )
        )
    return checks


def _gaussian_laplace_transform(seed: int, mc_count: int, tol: Tolerance) -> list[dict]:
    lines, conditioning = laplace_report(laplace_demo_covariance(), mc_count, seed, tol)
    checks = [
        _check(
            f"transform at alphas={line['alphas']} within 3 SE",
            line["within_3se"],
            f"empirical {line['empirical']:.5f} vs closed {line['closed_form']:.5f}"
            f" (se {line['std_error']:.2e})",
        )
        for line in lines
    ]
    checks.append(
        _check(
            "conditioning identity at sigma=1 within 3 SE",
            conditioning["within_3se"],
            f"empirical {conditioning['empirical']:.5f}"
            f" vs closed {conditioning['closed_form']:.5f}",
        )
    )
    return checks


# (group name, check function), in report order. A check function takes
# (seed, mc_count, tol) and returns its checks; only the block-doubled and
# Monte Carlo groups use the seed, and only the Monte Carlo group mc_count.
REFERENCE_GROUPS = (
    ("blockwise-inverse-M counterexample", _blockwise_counterexample),
    ("two-symmetrizable-triples family", _two_triples_family),
    ("one-symmetrizable-triple family", _one_triple_family),
    ("tripletwise-divisible covariance", _tripletwise_covariance),
    ("block-doubled kernels", _block_doubled),
    ("gaussian laplace transform", _gaussian_laplace_transform),
)


def reproduce_paper(seed: int, mc_count: int, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Run every group of REFERENCE_GROUPS; `seed` and `mc_count` feed the
    random draws of the block-doubled and Monte Carlo groups."""
    groups = []
    for name, check in REFERENCE_GROUPS:
        checks = check(seed, mc_count, tol)
        groups.append({"name": name, "passed": all(c["passed"] for c in checks), "checks": checks})
    return {"groups": groups, "passed": all(group["passed"] for group in groups)}
