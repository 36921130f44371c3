"""Tests for cycle-weighted permanents and the positivity scans."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from permkernel import (
    DimensionTooLarge,
    IndexOutOfRange,
    default_gamma_grid,
    is_b_positive_definite,
    per_b,
    repeated_matrix,
    resolvent,
    vere_jones_check,
)
from permkernel import gallery, permanent
from permkernel.gallery import blockwise_inverse_m

from oracles import (
    det_cofactor,
    per_b_bruteforce,
    permanent_bruteforce,
    permanent_ryser,
    positivity_scan_bruteforce,
    vere_jones_per_gamma,
)

# symmetric PSD (a Gram matrix) whose tilted kernel genuinely violates
# positivity at exponent 0.25: such a matrix is not a valid kernel there
PSD_VIOLATOR = np.array(
    [
        [10.78427336, -1.79684215, 2.60778534],
        [-1.79684215, 2.87494891, 1.81952126],
        [2.60778534, 1.81952126, 2.75287652],
    ]
)


def test_per_b_identity_is_exact_power():
    for n in range(1, 9):
        for b in (0.25, 0.5, 1.0, 2.0):
            # dyadic b keeps both sides exactly representable
            assert per_b(np.eye(n), b) == b**n


def test_per_b_two_by_two_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        b = rng.uniform(-2.0, 2.0)
        expected = b * b * a[0, 0] * a[1, 1] + b * a[0, 1] * a[1, 0]
        assert per_b(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_per_b_determinant_and_permanent_specialisations():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        assert per_b(a, -1.0) == pytest.approx(
            (-1.0) ** 5 * det_cofactor(a), rel=1e-10, abs=1e-10
        )
        b4 = rng.standard_normal((4, 4))
        assert per_b(b4, 1.0) == pytest.approx(
            permanent_bruteforce(b4), rel=1e-10, abs=1e-10
        )


def test_per_b_matches_bruteforce_at_generic_exponent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.integers(1, 6)
        a = rng.standard_normal((m, m))
        b = rng.uniform(-1.5, 1.5)
        assert per_b(a, b) == pytest.approx(
            per_b_bruteforce(a, b), rel=1e-10, abs=1e-10
        )
    # nonnegative entries make every term, so per_b at b > 0, nonnegative
    nonneg = np.random.default_rng(4).uniform(0.0, 1.0, (4, 4))
    for b in (0.25, 0.7, 1.0, 1.7):
        value = per_b(nonneg, b)
        assert value >= 0.0
        assert value == pytest.approx(per_b_bruteforce(nonneg, b), rel=1e-10)


def test_per_b_zero_pruning_handles_sparse_rows():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
    # only the 3-cycle survives
    assert per_b(a, 0.5) == pytest.approx(0.5 * 6.0)


def test_per_b_relabeling_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(2, 6)
        a = rng.standard_normal((m, m))
        perm = rng.permutation(m)
        p = np.eye(m)[perm]
        b = rng.uniform(0.1, 2.0)
        assert per_b(p @ a @ p.T, b) == pytest.approx(per_b(a, b), rel=1e-10)


@pytest.mark.parametrize("m", [10, 11, 12])
@pytest.mark.parametrize("zero_share", [None, 0.55])
def test_per_b_at_the_dimension_cap(m, zero_share):
    rng = np.random.default_rng(100 + m)
    a = rng.uniform(-1.0, 1.0, (m, m))
    if zero_share is not None:
        a.ravel()[rng.permutation(m * m)[: round(zero_share * m * m)]] = 0.0
    ryser, spread = permanent_ryser(a)
    # the product of the row abs-sums bounds the sum of |term| over all
    # permutations; Ryser's own rounding grows with its terms
    budget = 1e-12 * (float(np.prod(np.abs(a).sum(axis=1))) + spread)
    assert abs(per_b(a, 1.0) - ryser) <= budget
    assert abs(per_b(a, -1.0) - (-1.0) ** m * np.linalg.det(a)) <= budget


def test_per_b_zero_row_is_exactly_zero():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1.0, 1.0, (12, 12))
    a[5] = 0.0
    for b in (-1.0, 0.5, 1.0):
        assert per_b(a, b) == 0.0


def test_per_b_scratch_memory_at_the_dimension_cap():
    a = np.random.default_rng(7).uniform(-1.0, 1.0, (12, 12))
    per_b(a, 0.5)  # warm numpy's caches so that only per_b's arrays count
    tracemalloc.start()
    try:
        per_b(a, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the recurrence never holds all 3^12 (set, block) pairs at once
    assert peak <= 2 * 1024 * 1024


def test_per_b_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        per_b(np.eye(13), 1.0)


def test_repeated_matrix_construction():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(repeated_matrix(a, (1, 2)), a)
    assert np.array_equal(repeated_matrix(a, (1, 1)), np.full((2, 2), 1.0))
    b = np.arange(9.0).reshape(3, 3)
    rep = repeated_matrix(b, (1, 2, 2))
    expected = b[np.ix_([0, 1, 1], [0, 1, 1])]
    assert np.array_equal(rep, expected)
    with pytest.raises(IndexOutOfRange):
        repeated_matrix(a, (1, 3))
    with pytest.raises(IndexOutOfRange):
        repeated_matrix(a, ())


def test_generating_function_cross_check():
    from oracles import transform_series_2x2

    g = np.array([[1.0, 0.3], [0.2, 0.8]])
    b = 0.7
    series = transform_series_2x2(g, b, 4)
    for m in range(1, 5):
        tuple_sum = sum(
            per_b(repeated_matrix(g, sel), b)
            for sel in itertools.product((1, 2), repeat=m)
        )
        assert tuple_sum / math.factorial(m) == pytest.approx(series[m], abs=1e-6)


def test_positivity_scan_trivial_passes():
    assert is_b_positive_definite(np.eye(3), 0.3, max_order=5).passed
    sym = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert is_b_positive_definite(sym, 0.5, max_order=4).passed
    rng = np.random.default_rng(5)
    nonneg = rng.uniform(0.0, 1.0, (4, 4))
    assert is_b_positive_definite(nonneg, 1.7, max_order=4).passed
    # a low-order scan reads only small minors, so the n = 16 cap on
    # enumerating all of them does not apply
    assert is_b_positive_definite(np.eye(17), 0.5, max_order=2).passed


def test_positivity_scan_finds_frozen_violation():
    tilted = resolvent(PSD_VIOLATOR, 0.01)
    scan = is_b_positive_definite(tilted, 0.25, max_order=5)
    assert not scan.passed
    assert scan.value < 0.0
    assert len(scan.witness) <= 5
    # the same selection stays a witness at the exponent where the kernel
    # is valid, with positive value
    assert per_b(repeated_matrix(tilted, (1, 1, 1, 2, 3)), 0.5) > 0.0


def test_positivity_scan_monotone_in_order():
    tilted = resolvent(PSD_VIOLATOR, 0.01)
    assert not is_b_positive_definite(tilted, 0.25, max_order=5).passed
    for order in (6, 7, 8):
        scan = is_b_positive_definite(tilted, 0.25, max_order=order)
        assert not scan.passed and scan.witness is not None


def test_positivity_scan_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    witness_orders = set()
    for trial in range(160):
        n = int(rng.integers(1, 5))
        order = int(rng.integers(1, 6))
        b = (0.25, 0.5, 1.0, 1.7)[trial % 4]
        a = rng.uniform(-1.0, 1.0, (n, n))
        if trial % 2:
            # positive diagonals push violations past order 1
            np.fill_diagonal(a, rng.uniform(0.2, 1.5, n))
        scan = is_b_positive_definite(a, b, max_order=order)
        passed, witness, value = positivity_scan_bruteforce(a, b, order)
        assert scan.passed == passed
        assert scan.witness == witness
        if not passed:
            witness_orders.add(len(witness))
            sub = repeated_matrix(a, witness)
            bound = float(np.prod(np.abs(sub).sum(axis=1)))
            assert abs(scan.value - value) <= 1e-10 * bound
    assert max(witness_orders) >= 3


# a 4x4 Gram matrix X X^T whose tilted kernel violates positivity at
# exponent 0.25; at 0.5 it is a squared-Gaussian kernel, so nothing fails
GRAM_FACTOR_4X3 = np.array(
    [
        [0.16, -0.19, -2.52],
        [-0.54, -0.05, 0.11],
        [-1.53, -0.48, -0.98],
        [-0.81, 1.06, -0.81],
    ]
)


def test_positivity_scan_runs_at_the_order_cap():
    tilted = resolvent(GRAM_FACTOR_4X3 @ GRAM_FACTOR_4X3.T, 0.01)
    # every one of the 494 multisets up to order 8 is evaluated
    assert is_b_positive_definite(tilted, 0.5, max_order=permanent.MAX_POSITIVITY_ORDER).passed
    scan = is_b_positive_definite(tilted, 0.25, max_order=permanent.MAX_POSITIVITY_ORDER)
    passed, witness, value = positivity_scan_bruteforce(tilted, 0.25, 5)
    assert not passed and not scan.passed
    assert scan.witness == witness == (1, 1, 1, 2, 3)
    assert scan.value == pytest.approx(value, rel=1e-10)


def test_positivity_scan_order_cap():
    with pytest.raises(DimensionTooLarge):
        is_b_positive_definite(np.eye(2), 0.5, max_order=9)
    with pytest.raises(ValueError):
        is_b_positive_definite(np.eye(2), 0.5, max_order=0)


def test_default_gamma_grid():
    grid = default_gamma_grid()
    assert len(grid) == 16
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e3)


def test_vere_jones_symmetric_positive_definite():
    g = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    report = vere_jones_check(g, 0.5, gamma_grid=(0.1, 1.0, 10.0), max_order=4)
    assert report.condition_i
    assert all(scan.status == "pass" for scan in report.gamma_scans)
    # entrywise-positive kernel: every tilted kernel certifies by signature
    assert report.overall == "pass"


def test_vere_jones_complex_spectrum_is_vacuous_for_condition_i():
    g = np.array([[1.0, -1.0], [1.0, 1.0]])  # eigenvalues 1 +- i
    report = vere_jones_check(g, 0.5, gamma_grid=(0.5, 2.0), max_order=4)
    assert report.real_eigenvalues == ()
    assert report.condition_i


def test_vere_jones_negative_real_eigenvalue_fails():
    report = vere_jones_check(np.diag([1.0, -1.0]), 0.5, gamma_grid=(0.5,), max_order=3)
    assert not report.condition_i
    assert report.overall == "fail"


def test_vere_jones_positivity_violation_fails():
    report = vere_jones_check(
        PSD_VIOLATOR, 0.25, gamma_grid=(0.01, 1.0), max_order=5
    )
    assert report.overall == "fail"
    assert any(scan.status == "fail" for scan in report.gamma_scans)


def test_vere_jones_skips_poles():
    report = vere_jones_check(-np.eye(2), 0.5, gamma_grid=(1.0,), max_order=3)
    assert report.gamma_scans[0].status == "skipped"
    assert report.overall in ("fail", "inconclusive")  # condition (I) fails here
    with pytest.raises(ValueError):
        vere_jones_check(np.eye(2), 0.5, gamma_grid=())
    with pytest.raises(ValueError):
        vere_jones_check(np.eye(2), -0.5)


def _count_det_calls(monkeypatch) -> list:
    shapes = []
    batched_det = np.linalg.det

    def counting_det(x):
        shapes.append(np.shape(x))
        return batched_det(x)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    return shapes


def test_vere_jones_certificate_skips_the_scan(monkeypatch):
    shapes = _count_det_calls(monkeypatch)
    rng = np.random.default_rng(8)
    off = rng.uniform(0.1, 1.0, (4, 4))
    np.fill_diagonal(off, 0.0)
    inv_m = np.linalg.inv(1.3 * max(abs(np.linalg.eigvals(off))) * np.eye(4) - off)
    signed_inv_m = inv_m * np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    for g in (gallery.one_symmetrizable_triple(), signed_inv_m):
        shapes.clear()
        report = vere_jones_check(g, 0.5)
        assert report.overall == "pass"
        assert all(
            scan.status == "pass" and scan.signature_certificate
            for scan in report.gamma_scans
        )
        # the pole test of the whole grid, and no minors
        assert shapes == [(16, 4, 4)]
    # 7 of the 16 gammas carry no certificate: only they are scanned, with
    # C(4, d) minors each at level d
    shapes.clear()
    report = vere_jones_check(gallery.tripletwise_divisible_covariance(), 0.5)
    assert sum(not scan.signature_certificate for scan in report.gamma_scans) == 7
    assert [shape[0] for shape in shapes] == [16] + [7 * math.comb(4, d) for d in range(1, 5)]


def test_vere_jones_failed_gamma_leaves_the_stack(monkeypatch):
    shapes = _count_det_calls(monkeypatch)
    report = vere_jones_check(
        gallery.tripletwise_divisible_covariance(),
        0.001,
        gamma_grid=(0.01, 3.3, 100.0),
        max_order=8,
    )
    assert [scan.status for scan in report.gamma_scans] == ["pass", "fail", "pass"]
    assert report.gamma_scans[0].signature_certificate
    assert report.gamma_scans[1].witness == (2, 3, 4)
    # gammas 3.3 and 100 are scanned up to level 3, where 3.3 fails; the
    # 4x4 minor is then taken of gamma 100 alone
    assert shapes == [(3, 4, 4), (2 * 4, 1, 1), (2 * 6, 2, 2), (2 * 4, 3, 3), (1, 4, 4)]


def test_vere_jones_scan_threshold_overflow_raises():
    # the order-2 threshold zero_tol * (1e160)^2 is not a double: a silent
    # inf would pass every value
    with pytest.raises(OverflowError):
        vere_jones_check([[1e160, -1e160], [1e160, 1e160]], 0.5, gamma_grid=[1e-300])


def test_scan_threshold_overflow_names_the_order():
    # order 1 passes (the diagonal is positive); the order-2 threshold overflows
    with pytest.raises(OverflowError, match="order 2"):
        is_b_positive_definite([[1e160, -1e160], [1e160, 1e160]], 0.5, max_order=3)


def test_vere_jones_scratch_memory_at_the_order_cap():
    rng = np.random.default_rng(3)
    g = rng.uniform(-1.0, 1.0, (8, 8))
    np.fill_diagonal(g, rng.uniform(4.0, 16.0, 8))
    report = vere_jones_check(g, 0.5, max_order=8)  # warm the index plans
    assert not any(scan.signature_certificate for scan in report.gamma_scans)
    tracemalloc.start()
    try:
        vere_jones_check(g, 0.5, max_order=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an order-8 plan at n = 8 has over 2^16 pairs, so the 16 uncertified
    # gammas are scanned one at a time, not as one stack
    assert peak <= 2 * 1024 * 1024


def _grid_case(rng, kind: str, n: int):
    """A kernel candidate and gamma grid of the given kind."""
    if kind == "pole":
        # -1/0.5 is an eigenvalue, so gamma 0.5 is a resolvent pole
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = rng.uniform(0.5, 2.0, n)
        eigenvalues[0] = -2.0
        return q @ np.diag(eigenvalues) @ q.T, (0.1, 0.5, 1.0, 3.0)
    if kind == "positive":
        return rng.uniform(0.1, 1.0, (n, n)) + np.eye(n), None
    g = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "heavy":
        # positive diagonals push violations past order 1
        np.fill_diagonal(g, rng.uniform(0.5, 2.0, n) * n)
    return g, None


def test_stacked_grid_matches_the_per_gamma_route():
    rng = np.random.default_rng(18)
    statuses = set()
    fail_levels = set()
    chunked = 0
    for trial in range(120):
        n = 2 + trial % 5
        order = 2 + trial % 7
        b = (0.25, 0.5, 2.0)[trial % 3]
        g, grid = _grid_case(rng, ("pole", "positive", "signed", "heavy")[trial // 5 % 4], n)
        got = vere_jones_check(g, b, gamma_grid=grid, max_order=order)
        want = vere_jones_per_gamma(g, b, grid or default_gamma_grid(), order)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        # the stack is cut into pieces of at most this many gammas
        chunked += 2**16 // permanent._plan_pairs(n, order) < len(got.gamma_scans)
        for scan in got.gamma_scans:
            statuses.add((scan.status, scan.signature_certificate))
            if scan.witness:
                fail_levels.add(len(scan.witness))
    assert statuses == {
        ("skipped", False),
        ("pass", True),
        ("pass", False),
        ("fail", False),
    }
    assert fail_levels >= {1, 2, 3, 4}
    assert chunked


def test_vere_jones_inconclusive_without_certificate():
    # symmetric PSD with a negative 3-cycle: no signature exists, the scan
    # finds nothing at this exponent, so the verdict stays inconclusive
    rho = -0.4
    g = np.full((3, 3), rho) + (1.0 - rho) * np.eye(3)
    report = vere_jones_check(g, 0.5, gamma_grid=(0.5, 1.0), max_order=4)
    assert report.condition_i
    assert all(scan.status == "pass" for scan in report.gamma_scans)
    assert report.overall == "inconclusive"


def test_blockwise_fixture_scan_outcome_recorded():
    # the fixture cannot be a kernel, but a violation need not show at the
    # searched depth: record the outcome rather than asserting it
    a = blockwise_inverse_m()
    outcomes = []
    for gamma in (0.1, 1.0, 10.0):
        scan = is_b_positive_definite(resolvent(a, gamma), 0.5, max_order=5)
        outcomes.append((gamma, scan.passed))
    print(f"blockwise fixture condition-(II) scan outcomes: {outcomes}")
    assert len(outcomes) == 3
