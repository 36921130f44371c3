"""Tests for structural classification."""

import itertools
import warnings

import numpy as np
import pytest

from permkernel import (
    HasZeroEntry,
    Tolerance,
    classify_kernel,
    count_symmetrizable_3subsets,
    diagonal_conjugate,
    find_positivity_signature,
    is_diag_equiv_inverse_m,
    is_diag_equiv_symmetric,
    is_inverse_m_matrix,
    is_m_matrix,
    is_symmetrizable_3x3,
    principal_submatrix,
    signature_conjugate,
    vere_jones_check,
)
from permkernel.gallery import (
    blockwise_inverse_m,
    one_symmetrizable_triple,
    tripletwise_divisible_covariance,
    two_symmetrizable_triples,
)

SMALL_GRID = (0.1, 1.0, 10.0)


def test_is_m_matrix_cases():
    assert is_m_matrix([[2.0, -1.0], [-1.0, 2.0]])
    assert not is_m_matrix([[1.0, 1.0], [0.0, 1.0]])
    assert is_m_matrix(np.eye(4))
    assert not is_m_matrix([[1.0, -1.0], [-1.0, 1.0]])  # singular


def test_is_inverse_m_matrix_on_fixtures():
    a = blockwise_inverse_m()
    assert not is_inverse_m_matrix(a)
    for triple in itertools.combinations(range(1, 5), 3):
        assert is_inverse_m_matrix(principal_submatrix(a, triple))
    b = tripletwise_divisible_covariance()
    assert not is_inverse_m_matrix(b)
    for triple in itertools.combinations(range(1, 5), 3):
        assert is_inverse_m_matrix(principal_submatrix(b, triple))
    assert not is_inverse_m_matrix(np.zeros((2, 2)))


def test_is_diag_equiv_symmetric():
    rng = np.random.default_rng(7)
    sym = rng.uniform(0.5, 2.0, (4, 4))
    sym = sym + sym.T
    assert is_diag_equiv_symmetric(sym)
    d = rng.uniform(0.5, 2.0, 4)
    assert is_diag_equiv_symmetric(diagonal_conjugate(sym, d))
    assert not is_diag_equiv_symmetric(two_symmetrizable_triples())
    with pytest.raises(HasZeroEntry):
        is_diag_equiv_symmetric(np.eye(3))


def test_is_diag_equiv_symmetric_rejects_sign_mismatch():
    a = np.array([[1.0, 2.0], [-2.0, 1.0]])
    assert not is_diag_equiv_symmetric(a)


@pytest.mark.parametrize("scale", [1e100, 1e110, 1e200, 1e300])
def test_three_cycle_tests_hold_at_huge_scales_without_warnings(scale):
    symmetric = np.array([[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]])
    unequal_cycles = symmetric.copy()
    unequal_cycles[1, 0] = 0.6
    sign_mismatch = symmetric.copy()
    sign_mismatch[2, 0] = -0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_symmetrizable_3x3(scale * symmetric)
        assert is_diag_equiv_symmetric(scale * symmetric)
        for a in (unequal_cycles, sign_mismatch):
            assert not is_symmetrizable_3x3(scale * a)
            assert not is_diag_equiv_symmetric(scale * a)
        report = classify_kernel(scale * symmetric, gamma_grid=(1.0,), max_order=2)
    assert report.sym3_subsets == ((1, 2, 3),)


def test_symmetrizable_3x3_zero_pattern_branch():
    a2, b1, c1, c2 = 0.1, 0.1, 0.1, 0.1
    k = np.array([[1.0, 0.0, c2], [a2, 1.0, b1], [c1, 0.0, 1.0]])
    assert is_symmetrizable_3x3(k)


def test_symmetrizable_3x3_fixture_blocks():
    a = blockwise_inverse_m()
    for triple in itertools.combinations(range(1, 5), 3):
        assert not is_symmetrizable_3x3(principal_submatrix(a, triple))
    k = one_symmetrizable_triple()
    assert is_symmetrizable_3x3(principal_submatrix(k, (1, 2, 3)))
    with pytest.raises(ValueError):
        is_symmetrizable_3x3(np.eye(4))


def test_symmetrizable_3x3_signature_obstruction():
    # negative 3-cycle product: no signature reaches the absolute-value matrix
    k = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
    assert find_positivity_signature(k) is None
    assert not is_symmetrizable_3x3(k)
    # flipping one coupling restores a consistent sign pattern
    k[0, 2] = 1.0
    k[2, 0] = 1.0
    assert is_symmetrizable_3x3(k)


def test_count_symmetrizable_3subsets():
    rng = np.random.default_rng(9)
    sym = rng.uniform(0.5, 2.0, (4, 4))
    sym = sym + sym.T
    assert count_symmetrizable_3subsets(sym) == [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    ]
    assert count_symmetrizable_3subsets(blockwise_inverse_m()) == []
    assert count_symmetrizable_3subsets(two_symmetrizable_triples()) == [
        (1, 2, 3),
        (2, 3, 4),
    ]
    assert count_symmetrizable_3subsets(one_symmetrizable_triple()) == [(1, 2, 3)]
    with pytest.raises(ValueError):
        count_symmetrizable_3subsets(np.eye(2))


def test_is_diag_equiv_inverse_m():
    k = one_symmetrizable_triple()
    assert np.array_equal(is_diag_equiv_inverse_m(k), np.ones(4))
    assert is_diag_equiv_inverse_m(blockwise_inverse_m()) is None
    # opposite signs at (1, 2) and (2, 1): no positivity signature at all
    assert is_diag_equiv_inverse_m([[1.0, 0.5], [-0.5, 1.0]]) is None
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    recovered = is_diag_equiv_inverse_m(signature_conjugate(k, signs))
    assert recovered is not None
    assert np.array_equal(recovered, signs)


def test_classify_kernel_fixture_verdicts():
    a_report = classify_kernel(blockwise_inverse_m(), gamma_grid=SMALL_GRID, max_order=4)
    assert a_report.theorem1 == "hypotheses-met-not-kernel"
    assert a_report.sym3_subsets == ()
    assert a_report.m_class == "none"
    assert a_report.signature is not None  # entrywise positive
    assert a_report.zero_pattern == ()

    k_report = classify_kernel(one_symmetrizable_triple(), gamma_grid=SMALL_GRID, max_order=4)
    assert k_report.theorem1 == "hypotheses-met-ID"
    assert k_report.m_class == "inverse-M"
    assert k_report.vere_jones.overall == "pass"
    assert k_report.witnesses["inverse_m_signature"] == [1, 1, 1, 1]


@pytest.mark.parametrize("scale", [1e3, 1e8])
def test_classify_kernel_inverse_m_verdict_survives_scaling(scale):
    # the inverse of a large matrix has a tiny determinant, which must not
    # read as singular
    report = classify_kernel(scale * one_symmetrizable_triple(), gamma_grid=(1.0,), max_order=2)
    assert report.m_class == "inverse-M"
    assert report.theorem1 == "hypotheses-met-ID"


def test_classify_kernel_not_applicable_cases():
    b = tripletwise_divisible_covariance()
    report = classify_kernel(b, gamma_grid=SMALL_GRID, max_order=4)
    assert report.theorem1 == "not-applicable"
    assert len(report.sym3_subsets) == 4
    assert not any(s.status == "fail" for s in report.vere_jones.gamma_scans)

    small = classify_kernel(np.eye(3), gamma_grid=SMALL_GRID, max_order=3)
    assert small.theorem1 == "not-applicable"
    assert small.m_class == "M-matrix"

    one = classify_kernel(np.eye(1), gamma_grid=SMALL_GRID, max_order=2)
    assert one.theorem1 == "not-applicable"
    assert one.sym3_subsets == ()


def test_classify_kernel_five_dimensional_path():
    # inverted M-matrices of any size are infinitely divisible kernels;
    # a generic draw has no symmetrizable triple at all
    rng = np.random.default_rng(77)
    b = rng.uniform(0.0, 1.0, (5, 5))
    s = max(abs(np.linalg.eigvals(b))) * 1.4
    kernel = np.linalg.inv(s * np.eye(5) - b)
    assert kernel.min() > 0.0
    report = classify_kernel(kernel, gamma_grid=SMALL_GRID, max_order=3)
    assert report.sym3_subsets == ()
    assert report.theorem1 == "hypotheses-met-ID"
    assert report.m_class == "inverse-M"
    assert report.vere_jones.overall == "pass"


def test_classify_kernel_report_serialises():
    report = classify_kernel(one_symmetrizable_triple(), gamma_grid=SMALL_GRID, max_order=3)
    doc = report.to_dict()
    assert set(doc) == {
        "n",
        "zero_pattern",
        "signature",
        "sym3_subsets",
        "m_class",
        "vere_jones",
        "theorem1",
        "witnesses",
    }
    assert doc["sym3_subsets"] == [[1, 2, 3]]
    assert doc["vere_jones"]["overall"] == "pass"


def test_zero_pattern_reported():
    g = np.array([[1.0, 0.0], [0.5, 1.0]])
    report = classify_kernel(g, gamma_grid=SMALL_GRID, max_order=3)
    assert report.zero_pattern == ((1, 2),)


def test_zero_pattern_is_row_major_and_includes_the_threshold():
    g = np.random.default_rng(17).uniform(0.5, 2.0, (5, 5))
    g[2, 2] = 4.0  # the threshold is zero_tol * max|G|
    thr = Tolerance().zero_tol * 4.0
    for i, j in ((3, 4), (0, 2), (4, 1), (1, 0)):
        g[i, j] = 0.0
    g[2, 3], g[4, 3] = thr, -thr
    g[0, 4] = np.nextafter(thr, 1.0)
    report = classify_kernel(g, gamma_grid=SMALL_GRID, max_order=3)
    assert report.zero_pattern == ((1, 3), (2, 1), (3, 4), (4, 5), (5, 2), (5, 4))
    assert all(type(k) is int for ij in report.zero_pattern for k in ij)


def test_verdicts_invariant_under_signature_and_scaling():
    rng = np.random.default_rng(13)
    tol = Tolerance()
    for _ in range(10):
        g = rng.uniform(0.2, 2.0, (4, 4))
        signs = rng.choice([-1.0, 1.0], 4)
        d = rng.uniform(0.5, 2.0, 4)
        for other in (
            signature_conjugate(g, signs),
            diagonal_conjugate(g, d),
            g.T,
        ):
            assert count_symmetrizable_3subsets(g, tol) == count_symmetrizable_3subsets(
                other, tol
            )
            assert (is_diag_equiv_inverse_m(g, tol) is None) == (
                is_diag_equiv_inverse_m(other, tol) is None
            )


def test_diag_equiv_symmetric_implies_blockwise_symmetrizable():
    rng = np.random.default_rng(19)
    for _ in range(10):
        sym = rng.uniform(0.5, 2.0, (4, 4))
        sym = sym + sym.T
        d = rng.uniform(0.5, 2.0, 4)
        g = diagonal_conjugate(sym, d)
        assert is_diag_equiv_symmetric(g)
        for triple in itertools.combinations(range(1, 5), 3):
            assert is_symmetrizable_3x3(principal_submatrix(g, triple))


def test_trichotomy_sampling_recorded():
    # positive 3x3 matrices that survive the scan should be inverse-M or
    # diagonally equivalent to symmetric; escapes are recorded, since the
    # scan is only a necessary condition
    rng = np.random.default_rng(15)
    escapes = 0
    surviving = 0
    for _ in range(20):
        g = rng.uniform(0.2, 2.0, (3, 3))
        report = vere_jones_check(g, 0.5, gamma_grid=SMALL_GRID, max_order=5)
        if report.overall == "fail":
            continue
        surviving += 1
        if not (is_inverse_m_matrix(g) or is_diag_equiv_symmetric(g)):
            escapes += 1
    print(f"trichotomy: {surviving} survivors, {escapes} scan escapes")
    assert surviving > 0


def _cert_kernel(rng, n):
    """Inverse M-matrix under a positive diagonal and a +-1 signature."""
    off = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    inv_m = np.linalg.inv(1.3 * max(abs(np.linalg.eigvals(off))) * np.eye(n) - off)
    d = rng.uniform(0.5, 2.0, n)
    s = np.concatenate(([1.0], rng.choice([-1.0, 1.0], n - 1)))
    return inv_m * np.outer(d, 1.0 / d) * np.outer(s, s)


def _positive_kernel(rng, n):
    """Entrywise positive and diagonally heavy."""
    return rng.uniform(0.1, 1.0, (n, n)) + np.diag(rng.uniform(0.3, 1.0, n) * n)


def _negative_cycle_kernel(rng, n):
    """Positive diagonal with one 2-cycle G_ij G_ji < -G_ii G_jj."""
    g = _positive_kernel(rng, n)
    i, j = rng.choice(n, 2, replace=False)
    scale = np.sqrt(g[i, i] * g[j, j])
    g[i, j], g[j, i] = rng.uniform(1.0, 2.0) * scale, -rng.uniform(1.0, 2.0) * scale
    return g


def _non_p0_kernel(rng, n):
    """Positive diagonal with one negative 2x2 principal minor: the pair
    G_ij, G_ji of one sign with G_ij G_ji > G_ii G_jj."""
    g = _positive_kernel(rng, n)
    i, j = rng.choice(n, 2, replace=False)
    scale = np.sqrt(g[i, i] * g[j, j])
    g[i, j], g[j, i] = rng.uniform(1.2, 2.0) * scale, rng.uniform(1.2, 2.0) * scale
    return g


def _broken_symmetrizable_kernel(rng, n):
    """Diagonally symmetrizable but for one entry: exactly the triples
    without that entry's pair stay symmetrizable."""
    sym = rng.uniform(0.1, 1.0, (n, n))
    sym = sym + sym.T + np.diag(rng.uniform(0.3, 1.0, n) * n)
    g = diagonal_conjugate(sym, rng.uniform(0.5, 2.0, n))
    i, j = rng.choice(n, 2, replace=False)
    g[i, j] *= 1.5
    return g


def _scan_verdicts(report):
    vj = report.vere_jones
    scans = [(scan.status, scan.signature_certificate) for scan in vj.gamma_scans]
    return report.theorem1, report.m_class, vj.overall, vj.condition_i, scans


def test_classify_kernel_is_invariant_under_permutation_and_transpose():
    # witnesses are not compared: the first failing multiset moves with the labels
    rng = np.random.default_rng(2604)
    inputs = [
        blockwise_inverse_m(),
        tripletwise_divisible_covariance(),
        two_symmetrizable_triples(),
        one_symmetrizable_triple(),
    ]
    kinds = (
        _cert_kernel,
        _positive_kernel,
        _negative_cycle_kernel,
        _broken_symmetrizable_kernel,
        _non_p0_kernel,
    )
    for n in (4, 5):
        for _ in range(10):
            inputs += [kind(rng, n) for kind in kinds]
    signed = with_sym3 = not_p0 = 0
    for g in inputs:
        n = len(g)
        perm = rng.permutation(n)
        if (perm == np.arange(n)).all():
            perm = perm[::-1]
        base = classify_kernel(g)
        permuted = classify_kernel(g[np.ix_(perm, perm)])
        transposed = classify_kernel(g.T)
        assert _scan_verdicts(permuted) == _scan_verdicts(base)
        assert _scan_verdicts(transposed) == _scan_verdicts(base)
        # index i of the permuted matrix is index perm[i] of g
        relabelled = [sorted(int(perm[i - 1]) + 1 for i in t) for t in permuted.sym3_subsets]
        assert sorted(map(tuple, relabelled)) == list(base.sym3_subsets)
        assert transposed.sym3_subsets == base.sym3_subsets
        with_sym3 += bool(base.sym3_subsets)
        not_p0 += not base.vere_jones.condition_i
        if base.signature is None:
            assert permuted.signature is None and transposed.signature is None
            continue
        signed += 1
        s = np.array(base.signature)
        assert permuted.signature in (tuple(s[perm]), tuple(-s[perm]))
        assert transposed.signature in (tuple(s), tuple(-s))
    assert signed >= 20 and with_sym3 >= 10 and not_p0 >= 20
