"""Tests for cycle-weighted permanents and the positivity scans."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
from permkernel.matcore import subset_table

from oracles import (
    cycle_weights_per_call,
    det_cofactor,
    eigenvalue_condition_i,
    per_b_bruteforce,
    per_b_per_call,
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
    for n in range(1, 13):
        for b in (0.25, 0.5, 1.0, 2.0):
            # dyadic b keeps both sides exactly representable
            assert per_b(np.eye(n), b) == b**n


@pytest.mark.parametrize("m", range(1, 13))
def test_per_b_of_all_ones_is_the_rising_factorial(m):
    # every permutation contributes b^(cycles), and summing b^(cycles) over
    # the permutations of m indices gives b (b + 1) ... (b + m - 1)
    for b in (0.25, 0.5, 0.7, 1.0, 2.0, 3.3):
        rising = math.prod(b + i for i in range(m))
        assert per_b(np.ones((m, m)), b) == pytest.approx(rising, rel=1e-12, abs=0.0)


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


def plan_arrays(m):
    walk, split = permanent._per_b_plan(m)
    return [array for _, *arrays in walk + split for array in arrays]


def level_order(m):
    """The masks of all index sets in per_b's level order: by size, and
    within a size the sets without index 0 first, each part by mask."""
    return np.array(sorted(range(1 << m), key=lambda t: (bin(t).count("1"), t & 1, t)))


def test_per_b_is_the_per_call_recurrence_bit_for_bit():
    # per_b_per_call rebuilds the index tables at every call, holds the sets
    # in mask order and leaves all-zero path rows unextended; per_b, in
    # level order, must give the same floats, sign of zero included. A
    # nonzero cycle weight may differ in its last bit, since a row's product
    # with A can round differently beside another number of rows (seen only
    # where A has a zero row or column, so that per_b is 0 anyway), but the
    # zero weights must be the same sets, each +0.0 as if never multiplied
    def check(rng, trial, a):
        m = a.shape[0]
        weight = np.empty(1 << m)
        weight[level_order(m)] = permanent._cycle_weights(a, permanent._per_b_plan(m)[0])
        zero = weight == 0.0
        assert np.array_equal(zero, cycle_weights_per_call(a) == 0.0), (trial, a.shape[0])
        assert not np.signbit(weight[zero]).any(), (trial, a.shape[0])
        for b in (-1.0, 1.0, float(rng.uniform(0.05, 3.0))):
            got, want = per_b(a, b), per_b_per_call(a, b)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (
                trial, a.shape[0], b, got, want,
            )

    rng = np.random.default_rng(23)
    for trial in range(360):
        m = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, (m, m))
        if trial % 3 == 1:
            a.ravel()[rng.permutation(m * m)[: int(rng.uniform(0.3, 0.7) * m * m)]] = 0.0
        elif trial % 3 == 2:
            a[rng.integers(m)] = 0.0
        check(rng, trial, a)
    # shapes whose zero path rows meet negative entries, where -0.0
    # products appear: a zero column, a zero row beside an all-negative
    # column, and nonpositive sparse input
    rng = np.random.default_rng(25)
    for trial in range(240):
        m = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, (m, m))
        i = int(rng.integers(m))
        if trial % 3 == 0:
            a[:, i] = 0.0
        elif trial % 3 == 1:
            a[:, (i + 1) % m] = -np.abs(a[:, (i + 1) % m])
            a[i] = 0.0
        else:
            a = -np.abs(a)
            a.ravel()[rng.permutation(m * m)[: int(rng.uniform(0.4, 0.75) * m * m)]] = 0.0
        check(rng, trial, a)


@pytest.mark.parametrize("m, scale", [(2, 1e160), (5, 1e70), (12, 1e30)])
def test_per_b_overflows_where_the_per_call_recurrence_does(m, scale):
    a = scale * np.random.default_rng(m).uniform(0.5, 1.0, (m, m))
    for b in (-1.0, 0.5, 1.0):
        with pytest.raises(OverflowError, match=f"{m}x{m}"):
            per_b(a, b)
        with pytest.raises(OverflowError, match=f"{m}x{m}"):
            per_b_per_call(a, b)


def test_per_b_plan_is_built_once_per_size_and_read_only():
    permanent._per_b_plan.cache_clear()
    rng = np.random.default_rng(5)
    for m in (6, 6, 9, 6, 9):
        per_b(rng.uniform(-1.0, 1.0, (m, m)), 0.5)
    info = permanent._per_b_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
    assert info.maxsize is None
    # the cache needs no bound: per_b refuses a size above the cap before any plan is built
    with pytest.raises(DimensionTooLarge):
        per_b(np.ones((13, 13)), 0.5)
    assert permanent._per_b_plan.cache_info().currsize == 2
    for array in plan_arrays(9):
        assert array.dtype == np.intp
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    # each Held-Karp level holds the next run of sets in level order, and
    # each set-partition level a slice that starts with its level's
    for m in (1, 6, 9):
        walk, split = permanent._per_b_plan(m)
        levels = [level for level, _, _ in walk]
        assert [level.start for level in levels] == [1, *(level.stop for level in levels[:-1])]
        assert levels[-1].stop == 1 << m
        assert [level.start for level, _, _ in split] == [level.start for level in levels]


def test_per_b_plan_is_not_built_at_import():
    code = "import permkernel; print(permkernel.permanent._per_b_plan.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(permanent.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out == "0\n"


def test_per_b_plan_memory_at_the_dimension_cap():
    permanent._per_b_plan.cache_clear()
    tracemalloc.start()
    try:
        permanent._per_b_plan(12)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(array.nbytes for array in plan_arrays(12)) <= held <= 2.5 * 1024 * 1024


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_is_an_input_error(b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exponent b must be finite"):
            per_b(np.eye(3), b)
        with pytest.raises(ValueError, match="exponent b must be finite"):
            vere_jones_check(np.eye(3), b, gamma_grid=[1.0])
        with pytest.raises(ValueError, match="exponent b must be finite"):
            is_b_positive_definite(blockwise_inverse_m(), b, max_order=3)


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


def test_scan_reads_the_diagonal_exactly():
    # np.linalg.det([[-0.1]]) is -0.10000000000000002; the minor table
    # returns the diagonal itself, so f_(1) = -b * a_11 to the bit
    assert is_b_positive_definite([[-0.1]], 0.5, max_order=1).value == -0.05


def test_scan_reads_minors_behind_a_zero_pivot():
    # both zero pivots make NaN complements, and the table's LU recompute
    # gives the minors beneath them (a scan that read those NaNs would
    # raise OverflowError)
    a = np.diag([0.0, 0.0, 1.0])
    for b in (0.5, 2.0):
        for order in range(1, 6):
            scan = is_b_positive_definite(a, b, max_order=order)
            expected = positivity_scan_bruteforce(a, b, order)
            assert (scan.passed, scan.witness, scan.value) == expected


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


@pytest.mark.parametrize(
    "n, d", [(1, 3), (3, 3), (4, 5), (6, 6), (2, 65), (2, 70), (3, 40), (4, 32)]
)
def test_scan_level_targets_past_int64_base_n_codes(n, d):
    # small plans, and plans where n^d overflows int64 (base-n codes of the
    # multisets would wrap there)
    rank = {k: i for i, k in enumerate(itertools.combinations_with_replacement(range(n), d))}
    # stars and bars: row i of subset_table(n + d - 1, d) - arange(d) is the i-th multiset
    assert list(map(tuple, (subset_table(n + d - 1, d) - np.arange(d)).tolist())) == list(rank)
    _, plan = permanent._scan_level(n, d)
    for s, target in enumerate(plan, start=1):
        # the subsets in increasing bitmask order, the minor table's
        subsets = sorted(itertools.combinations(range(n), s), key=lambda c: sum(1 << i for i in c))
        sources = list(map(list, itertools.combinations_with_replacement(range(n), d - s)))
        # row j, column S: the rank of the multiset j + 1_S
        assert target.tolist() == [[rank[tuple(sorted(j + list(c)))] for c in subsets] for j in sources]


def _index_bytes(value) -> int:
    """Bytes of the integer arrays held, at any depth, in tuples and lists."""
    if isinstance(value, (tuple, list)):
        return sum(_index_bytes(item) for item in value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        return value.nbytes
    return 0


def test_cached_order_8_plan_at_n_8_holds_only_its_targets():
    # 150,749 (multiset, subset) pairs, one 8-byte target each
    assert _index_bytes(permanent._scan_level(8, 8)) <= 1.3e6


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
    g = np.array([[1.0, -1.0], [1.0, 1.0]])  # eigenvalues 1 +- i; minors 1, 1 and 2
    report = vere_jones_check(g, 0.5, gamma_grid=(0.5, 2.0), max_order=4)
    assert report.condition_i_witness is None
    assert report.condition_i


def test_vere_jones_negative_real_eigenvalue_fails():
    report = vere_jones_check(np.diag([1.0, -1.0]), 0.5, gamma_grid=(0.5,), max_order=3)
    assert not report.condition_i
    assert report.condition_i_witness == ((2,), -1.0)
    assert report.overall == "fail"


def test_condition_i_reads_the_principal_minors_not_the_spectrum():
    # eigenvalues 5 and -1 +- 1.73i: no real eigenvalue is negative, but
    # every 2x2 principal minor is 1 - 3 = -2, so det(I + t diag(1, 1, 0) G)
    # = 1 + 2t - 2t^2 turns negative and G is no kernel
    circulant = [[1.0, 3.0, 1.0], [1.0, 1.0, 3.0], [3.0, 1.0, 1.0]]
    assert eigenvalue_condition_i(circulant)
    report = vere_jones_check(circulant, 0.5)
    assert not report.condition_i and report.overall == "fail"
    assert report.condition_i_witness == ((1, 2), -2.0)
    assert report.to_dict()["condition_i_witness"] == {"subset": [1, 2], "minor": -2.0}


def test_condition_i_is_p0_stronger_than_the_eigenvalue_rule():
    # Seeded signed 3x3 to 5x5 kernels (diagonal U(0.2, 1.5), off-diagonal
    # U(-1, 1), rounded to 0.01). P0 implies the eigenvalue rule, and a
    # draw that is not P0 reads "fail" at every b. Measured on these 600:
    # 139 fail P0 yet pass the eigenvalue rule, and with that rule as
    # condition (I), 47 of those read "inconclusive" at b = 5.
    rng = np.random.default_rng(7)
    stronger = 0
    for i in range(600):
        n = 3 + i % 3
        g = rng.uniform(-1.0, 1.0, (n, n))
        g[np.diag_indices(n)] = rng.uniform(0.2, 1.5, n)
        g = g.round(2)
        report = vere_jones_check(g, 0.5)
        if report.condition_i:
            assert eigenvalue_condition_i(g), g
            continue
        stronger += eigenvalue_condition_i(g)
        for b in (2.0, 5.0):
            other = vere_jones_check(g, b)
            assert other.condition_i_witness == report.condition_i_witness
            assert other.overall == "fail", (g, b)
        assert report.overall == "fail", g
    assert stronger >= 1


def test_condition_i_threshold_beyond_a_double():
    # a size whose threshold zero_tol * max|G|^size is not a double still
    # passes its nonnegative minors: 1e100 x a gallery 4x4 has minors of up
    # to 1e400 (inf) under an infinite size-4 threshold
    g = 1e100 * gallery.tripletwise_divisible_covariance()
    assert vere_jones_check(g, 0.5, max_order=2).condition_i
    # but it cannot decide a negative minor: here the 2x2 minor is -8e320
    with pytest.raises(OverflowError, match="order 2"):
        vere_jones_check([[1e160, 3e160], [3e160, 1e160]], 0.5, max_order=2)
    # a smaller size that fails decides first
    report = vere_jones_check([[-1e160, 3e160], [3e160, 1e160]], 0.5, max_order=2)
    assert report.condition_i_witness == ((1,), -1e160)


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


def _spy_minor_tables(monkeypatch) -> list:
    """(stack, minors per matrix) of each minor table the scan builds."""
    tables = []
    minor_table = permanent._minor_table

    def spy(stack, max_size):
        table = minor_table(stack, max_size)
        tables.append((stack.copy(), table.shape[-1]))
        return table

    monkeypatch.setattr(permanent, "_minor_table", spy)
    return tables


def _spy_bincounts(monkeypatch) -> list:
    """The bin count of each np.bincount call: a scan level d on n x n
    matrices makes min(n, d) of them, each with (live matrices) x
    C(n + d - 1, d) bins (see _level_bins)."""
    bins = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        bins.append(minlength)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    return bins


def _level_bins(n: int, live: list) -> list:
    """The bins _spy_bincounts records when level d holds live[d - 1]
    matrices."""
    return [
        rows * math.comb(n + d - 1, d)
        for d, rows in enumerate(live, start=1)
        for _ in range(min(n, d))
    ]


def test_scan_reads_one_table_capped_at_its_order(monkeypatch):
    shapes = _count_det_calls(monkeypatch)
    tables = _spy_minor_tables(monkeypatch)
    bins = _spy_bincounts(monkeypatch)
    rng = np.random.default_rng(43)
    a = rng.uniform(0.1, 1.0, (6, 6)) + np.eye(6)
    # the minors up to the scan order, from one table that takes no LU
    # determinant when no pivot is small
    assert is_b_positive_definite(a, 0.5, max_order=3).passed
    up_to_3 = sum(math.comb(6, s) for s in range(4))
    assert [(len(stack), minors) for stack, minors in tables] == [(1, up_to_3)]
    assert bins == _level_bins(6, [1, 1, 1])
    assert shapes == []
    # a matrix that fails at level 1 is scanned no further
    bins.clear()
    a[2, 2] = -1.0
    assert not is_b_positive_definite(a, 0.5, max_order=3).passed
    assert bins == _level_bins(6, [1])


def test_vere_jones_certificate_skips_the_scan(monkeypatch):
    shapes = _count_det_calls(monkeypatch)
    tables = _spy_minor_tables(monkeypatch)
    bins = _spy_bincounts(monkeypatch)
    rng = np.random.default_rng(8)
    off = rng.uniform(0.1, 1.0, (4, 4))
    np.fill_diagonal(off, 0.0)
    inv_m = np.linalg.inv(1.3 * max(abs(np.linalg.eigvals(off))) * np.eye(4) - off)
    signed_inv_m = inv_m * np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    for g in (gallery.one_symmetrizable_triple(), signed_inv_m):
        shapes.clear()
        tables.clear()
        report = vere_jones_check(g, 0.5)
        assert report.overall == "pass"
        assert all(
            scan.status == "pass" and scan.signature_certificate
            for scan in report.gamma_scans
        )
        # the pole test of the whole grid, no scan, and only G's own
        # table of minors for condition (I)
        assert shapes == [(16, 4, 4)]
        assert bins == []
        [(own, minors)] = tables
        assert np.array_equal(own, g) and minors == 2**4
    # 7 of the 16 gammas carry no certificate: only their tilted kernels
    # are scanned, as one stack with one table of minors up to size 4, and
    # all 7 stay through the 5 levels
    shapes.clear()
    tables.clear()
    g = gallery.tripletwise_divisible_covariance()
    report = vere_jones_check(g, 0.5)
    assert shapes == [(16, 4, 4)]  # no pivot of either table trips its guard
    uncertified = [scan.gamma for scan in report.gamma_scans if not scan.signature_certificate]
    assert len(uncertified) == 7
    assert [scan.status for scan in report.gamma_scans] == ["pass"] * 16
    [(stack, minors), (own, own_minors)] = tables
    assert np.array_equal(stack, np.stack([resolvent(g, gamma) for gamma in uncertified]))
    assert minors == own_minors == 2**4
    assert np.array_equal(own, g)
    assert bins == _level_bins(4, [7] * 5)


def test_vere_jones_failed_gamma_leaves_the_stack(monkeypatch):
    shapes = _count_det_calls(monkeypatch)
    tables = _spy_minor_tables(monkeypatch)
    bins = _spy_bincounts(monkeypatch)
    report = vere_jones_check(
        gallery.tripletwise_divisible_covariance(),
        0.001,
        gamma_grid=(0.01, 3.3, 100.0),
        max_order=8,
    )
    assert [scan.status for scan in report.gamma_scans] == ["pass", "fail", "pass"]
    assert report.gamma_scans[0].signature_certificate
    assert report.gamma_scans[1].witness == (2, 3, 4)
    # gammas 3.3 and 100 are one stack, whose minors of every size come
    # from one table; 3.3 fails at level 3 and takes no part in levels 4
    # to 8, which scan gamma 100 alone. Condition (I) then reads G's table
    assert [(stack.shape, minors) for stack, minors in tables] == [
        ((2, 4, 4), 2**4),
        ((4, 4), 2**4),
    ]
    assert bins == _level_bins(4, [2, 2, 2, 1, 1, 1, 1, 1])
    assert shapes == [(3, 4, 4)]


def test_vere_jones_certified_gammas_lie_below_failing_ones_under_condition_i():
    # Seeded signed 3x3 and 4x4 kernels (diagonal U(0.2, 1.5), off-diagonal
    # U(-1, 1), rounded to 0.01) that satisfy condition (I): no gamma with
    # a positivity signature lies above a gamma whose scan fails, so the
    # certified gammas form an interval (0, gamma*]. The order needs
    # condition (I): on such draws at seed 7, without the filter, 52 of 400
    # reports have both kinds of gamma, all 52 fail condition (I), and 50
    # of them have a failing gamma below a certified one.
    rng = np.random.default_rng(11)
    drawn = kept = both = 0
    while kept < 1500:
        n = 3 + drawn % 2
        drawn += 1
        g = rng.uniform(-1.0, 1.0, (n, n))
        g[np.diag_indices(n)] = rng.uniform(0.2, 1.5, n)
        report = vere_jones_check(g.round(2), 0.5, max_order=5)
        if not report.condition_i:
            continue
        kept += 1
        certified = [scan.gamma for scan in report.gamma_scans if scan.signature_certificate]
        failing = [scan.gamma for scan in report.gamma_scans if scan.status == "fail"]
        if certified and failing:
            both += 1
            assert max(certified) < min(failing), g.round(2)
    assert both >= 1


def test_vere_jones_scan_threshold_overflow_raises():
    # the order-2 threshold zero_tol * (1e160)^2 is not a double: a silent
    # inf would pass every value
    with pytest.raises(OverflowError):
        vere_jones_check([[1e160, -1e160], [1e160, 1e160]], 0.5, gamma_grid=[1e-300])


def test_vere_jones_tilt_beyond_a_double_is_an_overflow_error():
    # gamma*max|G| is finite at every gamma, but at 1e-306 the tilted kernel
    # holds -1e309: an overflow, not bad input; it is finite at 1 and 2e-306
    g = [[-0.999e306, 0.0], [0.0, 1.0]]
    for grid in ([1e-306], [1.0, 1e-306, 2e-306]):
        with pytest.raises(OverflowError, match=r"^I \+ 1e-306\*G or its tilted kernel is not finite$"):
            vere_jones_check(g, 0.5, gamma_grid=grid)


def test_scan_threshold_overflow_names_the_order():
    # order 1 passes (the diagonal is positive); the order-2 threshold overflows
    with pytest.raises(OverflowError, match="order 2"):
        is_b_positive_definite([[1e160, -1e160], [1e160, 1e160]], 0.5, max_order=3)
    # a finite threshold (2.4e298 at order 5) over values that are not
    # doubles: NaN < -threshold is False, so the scan would pass a matrix
    # that fails at (1, 1, 2, 2, 3) unscaled
    a = np.array([[1.0, 0.87, 0.94], [-0.23, 0.54, -0.25], [0.19, 0.74, 0.91]])
    assert is_b_positive_definite(a, 2, 5).witness == (1, 1, 2, 2, 3)
    with pytest.raises(OverflowError, match="order 5"):
        is_b_positive_definite(3e61 * a, 2, 5)


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
    witness_sizes = set()
    for trial in range(120):
        n = 2 + trial % 5
        order = 2 + trial % 7
        b = (0.25, 0.5, 2.0)[trial % 3]
        g, grid = _grid_case(rng, ("pole", "positive", "signed", "heavy")[trial // 5 % 4], n)
        report = vere_jones_check(g, b, gamma_grid=grid, max_order=order)
        got = report.to_dict()
        want = vere_jones_per_gamma(g, b, grid or default_gamma_grid(), order).to_dict()
        # the route's condition (I) minors are LU determinants, not the
        # minor table's: its witness minor agrees to rounding
        if want["condition_i_witness"]:
            size = len(want["condition_i_witness"]["subset"])
            minors = [doc["condition_i_witness"].pop("minor") for doc in (got, want)]
            assert abs(minors[0] - minors[1]) <= 1e-13 * max(1.0, np.abs(g).max()) ** size
            witness_sizes.add(size)
        assert json.dumps(got) == json.dumps(want)
        # the stack is cut into pieces of at most this many gammas
        pairs = sum(target.size for target in permanent._scan_level(n, order)[1])
        chunked += 2**16 // pairs < len(report.gamma_scans)
        for scan in report.gamma_scans:
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
    assert witness_sizes >= {1, 2}
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
