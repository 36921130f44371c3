"""Tests for kernel transformations and Schur-complement machinery."""

import math
import warnings

import numpy as np
import pytest

from permkernel import (
    IndexOutOfRange,
    JohnsonSmithResult,
    PoleAtSigma,
    SingularBlock,
    Tolerance,
    ZeroPivotEntry,
    block_double,
    conditioning_kernel,
    effectively_equivalent,
    inverse,
    is_inverse_m_matrix,
    is_symmetrizable_3x3,
    johnson_smith_inverse_m,
    ratio_matrix,
    reduce_scan,
    resolvent,
    schur_complement,
    symmetrizability_breakpoints,
)
from permkernel import reductions
from permkernel.gallery import blockwise_inverse_m, one_symmetrizable_triple
from permkernel.reductions import BreakpointSet


def random_positive(rng, n=4):
    return rng.uniform(0.1, 2.0, (n, n))


def test_conditioning_kernel_limits():
    rng = np.random.default_rng(0)
    g = random_positive(rng)
    tiny = conditioning_kernel(g, 1e-12, 4)
    deleted = g[:3, :3]
    assert np.abs(tiny - deleted).max() <= 1e-10
    assert np.allclose(conditioning_kernel(np.eye(3), 0.7, 3), np.eye(2))


def test_conditioning_kernel_formula():
    rng = np.random.default_rng(1)
    g = random_positive(rng)
    sigma, k = 0.8, 2
    h = conditioning_kernel(g, sigma, k)
    keep = [0, 2, 3]
    coef = sigma / (1.0 + sigma * g[1, 1])
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            assert h[a, b] == pytest.approx(g[i, j] - coef * g[i, 1] * g[1, j])


def test_conditioning_kernel_pole_and_bounds():
    g = np.array([[1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(PoleAtSigma):
        conditioning_kernel(g, 1.0, 2)
    with pytest.raises(IndexOutOfRange):
        conditioning_kernel(g, 1.0, 3)
    with pytest.raises(ValueError):
        conditioning_kernel(np.eye(1), 1.0, 1)
    # sigma * G(1,1) overflows: the denominator is huge, not zero
    with pytest.raises(OverflowError, match=r"at sigma = 1e\+300"):
        conditioning_kernel(1e10 * one_symmetrizable_triple(), 1e300, 1)
    # a non-finite sigma is bad input, not a pole or an overflow
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma values must be finite"):
            conditioning_kernel(one_symmetrizable_triple(), sigma, 1)


def test_ratio_matrix():
    ones = np.ones((3, 3))
    assert np.array_equal(ratio_matrix(ones, 2), ones)
    rng = np.random.default_rng(2)
    g = random_positive(rng)
    gamma = ratio_matrix(g, 4)
    assert gamma[3, 3] == pytest.approx(1.0 / g[3, 3])
    for i in range(4):
        for j in range(4):
            assert gamma[i, j] == pytest.approx(g[i, j] / (g[i, 3] * g[3, j]))
    bad = g.copy()
    bad[0, 3] = 0.0
    with pytest.raises(ZeroPivotEntry):
        ratio_matrix(bad, 4)
    with pytest.raises(IndexOutOfRange):
        ratio_matrix(g, 0)


def test_overflowed_pivot_products_raise():
    # every G(i,p) G(p,j) is about 1e320: a silent inf would corrupt the ratios
    # and kernels, so each route names the pivot instead
    g = 1e160 * one_symmetrizable_triple()
    with pytest.raises(OverflowError, match="at pivot p = 2"):
        ratio_matrix(g, 2)
    with pytest.raises(OverflowError, match="at pivot p = 3"):
        conditioning_kernel(g, 1e-170, 3)
    with pytest.raises(OverflowError, match="at pivot p = 1"):
        reduce_scan(g, [1e-170])


def test_breakpoints_symmetric_block_is_degenerate():
    gamma = np.ones((4, 4)) + np.diag([0.3, 0.2, 0.1, 0.0])
    bp = symmetrizability_breakpoints(gamma, (1, 2, 3), 1.0)
    assert bp.degenerate
    assert bp.values == ()


def test_breakpoints_hand_expanded_example():
    # forward cycle (2, 3, 3), reverse cycle (1, 3, 3):
    # difference expands to (3 - c)^2, double root at 3
    gamma = np.array(
        [
            [1.0, 2.0, 3.0],
            [1.0, 1.0, 3.0],
            [3.0, 3.0, 1.0],
        ]
    )
    wide = symmetrizability_breakpoints(gamma, (1, 2, 3), 0.25)
    assert not wide.degenerate
    assert wide.values == pytest.approx((3.0,))
    narrow = symmetrizability_breakpoints(gamma, (1, 2, 3), 1.0)
    assert narrow.values == ()


def test_breakpoints_validation():
    with pytest.raises(ValueError):
        symmetrizability_breakpoints(np.ones((3, 3)), (1, 2), 1.0)
    with pytest.raises(ValueError):
        symmetrizability_breakpoints(np.ones((3, 3)), (1, 2, 2), 1.0)
    for triple in ((0, 1, 2), (1, 2, 4)):  # an IndexOutOfRange, as for every 1-based index
        with pytest.raises(IndexOutOfRange):
            symmetrizability_breakpoints(np.ones((3, 3)), triple, 1.0)
    with pytest.raises(ValueError):
        symmetrizability_breakpoints(np.ones((3, 3)), (1, 2, 3), 0.0)
    with pytest.raises(ValueError):
        BreakpointSet(values=(0.5,), degenerate=True)
    # a1 * a1 is beyond a double: a named OverflowError, not a RuntimeWarning
    with pytest.raises(OverflowError, match="^a breakpoint discriminant or zero threshold"):
        symmetrizability_breakpoints(1e90 * blockwise_inverse_m()[:3, :3], (1, 2, 3), 1.0)


@pytest.mark.parametrize("pivot_diag", [math.nan, math.inf, -math.inf])
def test_breakpoints_reject_a_non_finite_pivot_diagonal(pivot_diag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^pivot_diag must be finite$"):
            symmetrizability_breakpoints(np.ones((3, 3)), (1, 2, 3), pivot_diag)


def test_conditioning_matches_shifted_ratio_route():
    # H(sigma, G, p) equals D1 (Gamma - c) D2 entrywise on the kept block,
    # so the two symmetrizability routes must agree away from breakpoints
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_positive(rng)
        gamma = ratio_matrix(g, 4)
        hi = 1.0 / g[3, 3]
        for c in (0.15 * hi, 0.4 * hi, 0.85 * hi):
            sigma = c / (1.0 - c * g[3, 3])
            conditioned = conditioning_kernel(g, sigma, 4)
            shifted = gamma[:3, :3] - c
            if min(np.abs(conditioned).min(), np.abs(shifted).min()) < 1e-6:
                continue  # zero-entry branch has scale-dependent thresholds
            assert is_symmetrizable_3x3(conditioned) == is_symmetrizable_3x3(shifted)


def test_breakpoint_avoidance_kills_symmetrizability():
    rng = np.random.default_rng(4)
    produced = 0
    while produced < 10:
        g = random_positive(rng)
        gamma = ratio_matrix(g, 4)
        bp = symmetrizability_breakpoints(gamma, (1, 2, 3), g[3, 3])
        if bp.degenerate:
            continue
        assert len(bp.values) <= 3
        hi = 1.0 / g[3, 3]
        forbidden = list(bp.values) + [
            gamma[i, j]
            for i in range(3)
            for j in range(3)
            if i != j and 0.0 < gamma[i, j] < hi
        ]
        for c in np.linspace(0.05 * hi, 0.95 * hi, 37):
            if all(abs(c - f) > 0.02 * hi for f in forbidden):
                sigma = c / (1.0 - c * g[3, 3])
                assert not is_symmetrizable_3x3(conditioning_kernel(g, sigma, 4))
                produced += 1
                break


def test_block_double_shapes():
    g = np.array([[1.0, 0.2], [0.3, 1.0]])
    h0 = block_double(g, 0.0)
    assert np.array_equal(h0[:2, :2], g)
    assert np.array_equal(h0[2:, 2:], g)
    assert np.all(h0[:2, 2:] == 0.0)
    h1 = block_double(g, 1.0)
    assert np.array_equal(h1[:2, 2:], g)
    with pytest.raises(ValueError):
        block_double(g, 1.5)


def test_block_double_characteristic_factorisation():
    rng = np.random.default_rng(5)
    for alpha in np.linspace(0.0, 1.0, 11):
        g = rng.standard_normal((3, 3))
        h = block_double(g, alpha)
        for x in rng.uniform(-2.0, 2.0, 20):
            lhs = np.linalg.det(h - x * np.eye(6))
            rhs = np.linalg.det((1 + alpha) * g - x * np.eye(3)) * np.linalg.det(
                (1 - alpha) * g - x * np.eye(3)
            )
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_schur_complement_block_diagonal():
    g = np.diag([1.0, 2.0])
    h = block_double(g, 0.0)
    assert np.allclose(schur_complement(h, "upper-left", 2), g)
    assert np.allclose(schur_complement(h, "lower-right", 2), g)


def test_schur_determinant_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = rng.standard_normal((4, 4))
        h11 = h[:2, :2]
        h22 = h[2:, 2:]
        det_h = np.linalg.det(h)
        via_upper = np.linalg.det(h11) * np.linalg.det(
            schur_complement(h, "upper-left", 2)
        )
        via_lower = np.linalg.det(h22) * np.linalg.det(
            schur_complement(h, "lower-right", 2)
        )
        assert det_h == pytest.approx(via_upper, rel=1e-8, abs=1e-8)
        assert det_h == pytest.approx(via_lower, rel=1e-8, abs=1e-8)


def test_schur_complement_errors():
    h = np.zeros((4, 4))
    h[2:, 2:] = np.eye(2)
    with pytest.raises(SingularBlock):
        schur_complement(h, "upper-left", 2)
    with pytest.raises(ValueError):
        schur_complement(np.eye(4), "middle", 2)
    with pytest.raises(ValueError):
        schur_complement(np.eye(4), "upper-left", 4)
    # a non-integral split is an input error, not a slicing TypeError
    h = block_double(one_symmetrizable_triple(), 0.5)
    with pytest.raises(ValueError, match="^split must be an integer, got 2.5$"):
        schur_complement(h, "upper-left", 2.5)
    for split in (4.0, 2.5):
        with pytest.raises(ValueError, match="^split must be an integer"):
            johnson_smith_inverse_m(h, split)
    assert johnson_smith_inverse_m(h, np.int64(4)) == johnson_smith_inverse_m(h, 4)


def test_johnson_smith_on_doubled_kernels():
    # alpha > 0 is reference group "block-doubled kernels" (acceptance criterion 7)
    result = johnson_smith_inverse_m(block_double(one_symmetrizable_triple(), 0.0), 4)
    assert result.verdict
    assert result.failed_condition is None


def test_johnson_smith_fails_at_condition_iv():
    # H passes (i) to (iii), and (iv) has a negative entry; transposing H
    # swaps the products of (iii) and (iv)
    h = np.array(
        [[3.1, 0.9, 0.1, 0.3], [0.2, 3.3, 0.8, 0.2], [0.1, 0.4, 3.0, 0.1], [0.6, 0.3, 0.7, 3.0]]
    )
    assert johnson_smith_inverse_m(h, 2) == JohnsonSmithResult(False, "iv")
    assert johnson_smith_inverse_m(h.T, 2) == JohnsonSmithResult(False, "iii")
    assert not is_inverse_m_matrix(h)


def test_johnson_smith_solves_each_block_once(monkeypatch):
    # an inverse M-matrix whose four blocks and complements all differ
    # passes every condition, so it reaches (iii) and (iv)
    h = inverse(np.diag([4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) - 0.5)
    h11, h22 = h[:3, :3], h[3:, 3:]
    over_h11 = schur_complement(h, "upper-left", 3)
    over_h22 = schur_complement(h, "lower-right", 3)
    solves = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        kind = "inverse" if np.array_equal(b, np.eye(a.shape[-1])) else "solve"
        solves.extend((m.tobytes(), kind) for m in a)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    result = johnson_smith_inverse_m(h, 3)
    assert (result.verdict, result.failed_condition) == (True, None)
    # H11 and H22 are factored once each, for both complements and for
    # (iii) and (iv); (i) and (ii) invert H/H11 and H/H22 once, and (iv)
    # and (iii) reuse those inverses
    assert sorted(solves) == sorted(
        [
            (h11.tobytes(), "solve"),
            (h22.tobytes(), "solve"),
            (over_h11.tobytes(), "inverse"),
            (over_h22.tobytes(), "inverse"),
        ]
    )


def test_reduce_scan_builds_the_pivot_blocks_once(monkeypatch):
    calls = []
    build = reductions._pivot_blocks

    def counting_build(g, pivots):
        calls.append(pivots.tolist())
        return build(g, pivots)

    monkeypatch.setattr(reductions, "_pivot_blocks", counting_build)
    pivots = reduce_scan(one_symmetrizable_triple(), [0.1, 1.0, 10.0])
    assert all(point["status"] == "ok" for entry in pivots for point in entry["scan"])
    assert calls == [[0, 1, 2, 3]]


def test_resolvent_conditioning_compatibility():
    # the tilted kernel restricted to the kept indices is effectively
    # equivalent to the resolvent of the conditioning kernel
    rng = np.random.default_rng(8)
    tol = Tolerance(rel_tol=1e-8)
    for _ in range(10):
        g = random_positive(rng)
        for sigma in (0.1, 1.0, 10.0):
            tilted = resolvent(g, sigma)
            reduced = resolvent(conditioning_kernel(g, sigma, 4), sigma)
            assert effectively_equivalent(tilted[:3, :3], reduced, tol)


def test_cross_products_match_between_routes():
    rng = np.random.default_rng(9)
    g = random_positive(rng)
    sigma = 0.7
    tilted = resolvent(g, sigma)[:3, :3]
    reduced = resolvent(conditioning_kernel(g, sigma, 4), sigma)
    for i in range(3):
        for j in range(3):
            assert tilted[i, j] * tilted[j, i] == pytest.approx(
                reduced[i, j] * reduced[j, i], rel=1e-9, abs=1e-12
            )


def test_sign_persistence_of_tilted_kernels():
    # entrywise-positive inverse-M kernel: the tilted kernel keeps strictly
    # positive entries along a dense sigma grid
    g = one_symmetrizable_triple()
    for sigma in np.linspace(0.01, 20.0, 40):
        assert resolvent(g, sigma).min() > 0.0
