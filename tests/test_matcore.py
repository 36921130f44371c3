"""Tests for the dense matrix core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from permkernel import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    SingularMatrix,
    Tolerance,
    as_matrix,
    determinant,
    diagonal_conjugate,
    effectively_equivalent,
    find_positivity_signature,
    inverse,
    is_b_positive_definite,
    principal_minors,
    principal_submatrix,
    resolvent,
    signature_conjugate,
)
from permkernel.gallery import blockwise_inverse_m

from oracles import det_cofactor, principal_minors_cofactor

# frozen from the cofactor oracle, run against the printed fixture
BLOCKWISE_DET = 0.48945
BLOCKWISE_INV_23 = 0.1164572479313515


finite_4x4 = arrays(
    np.float64,
    (4, 4),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])


def test_determinant_trivial_cases():
    assert determinant(np.eye(3)) == pytest.approx(1.0)
    assert determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)


def test_determinant_matches_cofactor_oracle_on_fixture():
    a = blockwise_inverse_m()
    assert determinant(a) == pytest.approx(BLOCKWISE_DET, rel=1e-12)
    assert det_cofactor(a) == pytest.approx(BLOCKWISE_DET, rel=1e-12)


def test_inverse_trivial_and_postcondition():
    assert np.allclose(inverse(np.eye(4)), np.eye(4))
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        residual = np.abs(inverse(a) @ a - np.eye(5)).max()
        assert residual <= 1e-8 * 5 * np.abs(a).max()


def test_inverse_fixture_entry_positive():
    inv = inverse(blockwise_inverse_m())
    assert inv[1, 2] == pytest.approx(BLOCKWISE_INV_23, rel=1e-12)
    assert inv[1, 2] > 0.0


def test_inverse_raises_on_singular():
    with pytest.raises(SingularMatrix):
        inverse([[1.0, 1.0], [1.0, 1.0]])


def test_resolvent_trivial_cases():
    g = np.array([[1.0, 2.0], [0.5, 0.25]])
    assert np.allclose(resolvent(g, 0.0), g)
    assert np.allclose(resolvent(np.eye(2), 1.0), 0.5 * np.eye(2))


def test_resolvent_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = rng.uniform(0.0, 1.0, (5, 5))
        sigma, alpha = rng.uniform(0.0, 2.0, 2)
        lhs = resolvent(resolvent(g, sigma), alpha)
        rhs = resolvent(g, sigma + alpha)
        assert np.abs(lhs - rhs).max() <= 1e-8


def test_resolvent_pole_raises():
    with pytest.raises(SingularMatrix):
        resolvent(np.diag([-1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        resolvent(np.eye(2), -0.5)


def test_principal_submatrix():
    a = blockwise_inverse_m()
    assert np.array_equal(principal_submatrix(a, range(1, 5)), a)
    assert principal_submatrix([[1.0, 2.0], [3.0, 4.0]], [2]).item() == 4.0
    assert np.array_equal(principal_submatrix(a, (1, 2, 3)), a[:3, :3])
    with pytest.raises(IndexOutOfRange):
        principal_submatrix(a, [])
    with pytest.raises(IndexOutOfRange):
        principal_submatrix(a, [0, 1])
    with pytest.raises(IndexOutOfRange):
        principal_submatrix(a, [2, 2])
    with pytest.raises(IndexOutOfRange):
        principal_submatrix(a, [3, 5])


def test_diagonal_conjugate_hand_cases():
    a = np.array([[0.0, 2.0], [8.0, 0.0]])
    assert np.allclose(diagonal_conjugate(a, [2.0, 1.0]), [[0.0, 4.0], [4.0, 0.0]])
    b = blockwise_inverse_m()
    assert np.allclose(diagonal_conjugate(b, np.ones(4)), b)
    with pytest.raises(ValueError):
        diagonal_conjugate(b, [1.0, -1.0, 1.0, 1.0])


def test_diagonal_conjugate_preserves_minors():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        d = rng.uniform(0.5, 2.0, 4)
        before = principal_minors_cofactor(a)
        after = principal_minors_cofactor(diagonal_conjugate(a, d))
        for key, value in before.items():
            assert after[key] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_signature_conjugate_hand_cases():
    assert np.allclose(
        signature_conjugate([[1.0, -2.0], [-3.0, 4.0]], [1.0, -1.0]),
        [[1.0, 2.0], [3.0, 4.0]],
    )
    a = blockwise_inverse_m()
    assert np.allclose(signature_conjugate(a, np.ones(4)), a)
    with pytest.raises(ValueError):
        signature_conjugate(a, [1.0, 0.5, 1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(a=finite_4x4, bits=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 4))
def test_signature_conjugate_involution_and_determinant(a, bits):
    signs = np.array(bits)
    conj = signature_conjugate(a, signs)
    assert np.array_equal(signature_conjugate(conj, signs), a)
    assert determinant(conj) == pytest.approx(determinant(a), rel=1e-9, abs=1e-9)


def test_principal_submatrix_commutes_with_signature():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 5))
    signs = rng.choice([-1.0, 1.0], 5)
    idx = (1, 3, 4)
    lhs = principal_submatrix(signature_conjugate(a, signs), idx)
    rhs = signature_conjugate(principal_submatrix(a, idx), signs[[0, 2, 3]])
    assert np.allclose(lhs, rhs)


def test_effectively_equivalent_transpose_and_diagonal():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = rng.standard_normal((4, 4))
        assert effectively_equivalent(g, g.T)
        d = rng.uniform(0.5, 2.0, 4)
        assert effectively_equivalent(g, diagonal_conjugate(g, d))
    assert not effectively_equivalent(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        effectively_equivalent(np.eye(2), np.eye(3))
    with pytest.raises(DimensionTooLarge):
        effectively_equivalent(np.eye(17), np.eye(17))


def test_effectively_equivalent_zero_pattern_pair():
    # the classic pair: equal once the coupling products agree
    a2 = b1 = c1 = c2 = 0.1
    first = np.array([[1.0, 0.0, c2], [a2, 1.0, b1], [c1, 0.0, 1.0]])
    second = np.array(
        [
            [1.0, 0.0, np.sqrt(c1 * c2)],
            [0.0, 1.0, 0.0],
            [np.sqrt(c1 * c2), 0.0, 1.0],
        ]
    )
    assert effectively_equivalent(first, second)
    # the off-pattern couplings a_2, b_1 drop out of every principal minor,
    # so equivalence survives changing them ...
    third = first.copy()
    third[1, 0] = 0.2
    assert effectively_equivalent(third, second)
    # ... but not changing c_1, which enters the {1,3} minor
    fourth = first.copy()
    fourth[2, 0] = 0.2
    assert not effectively_equivalent(fourth, second)


def test_effectively_equivalent_is_equivalence_relation():
    rng = np.random.default_rng(29)
    g = rng.standard_normal((4, 4))
    d1 = rng.uniform(0.5, 2.0, 4)
    d2 = rng.uniform(0.5, 2.0, 4)
    a = diagonal_conjugate(g, d1)
    b = diagonal_conjugate(g, d2)
    assert effectively_equivalent(g, g)
    assert effectively_equivalent(a, g) and effectively_equivalent(g, a)
    assert effectively_equivalent(g, a) and effectively_equivalent(a, b)
    assert effectively_equivalent(g, b)


def test_principal_minors_match_oracle():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    mine = principal_minors(a)
    ref = principal_minors_cofactor(a)
    assert set(mine) == set(ref)
    for key in ref:
        assert mine[key] == pytest.approx(ref[key], rel=1e-9, abs=1e-12)


def test_minors_take_one_batched_determinant_per_size(monkeypatch):
    calls = []
    batched_det = np.linalg.det

    def counting_det(x):
        calls.append(np.shape(x))
        return batched_det(x)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    rng = np.random.default_rng(43)
    a = rng.uniform(0.1, 1.0, (6, 6)) + np.eye(6)
    assert len(principal_minors(a)) == 63
    assert [shape[0] for shape in calls] == [6, 15, 20, 15, 6, 1]
    calls.clear()
    b = a.copy()
    b[0, 1] *= 1.1  # changes 2x2 minors first
    assert not effectively_equivalent(a, b)
    assert [shape[1:] for shape in calls] == [(1, 1), (1, 1), (2, 2), (2, 2)]
    calls.clear()
    # the scan reads minors only up to its order, and stops at a failing level
    assert is_b_positive_definite(a, 0.5, max_order=3).passed
    assert [shape[1:] for shape in calls] == [(1, 1), (2, 2), (3, 3)]
    calls.clear()
    a[2, 2] = -1.0
    assert not is_b_positive_definite(a, 0.5, max_order=3).passed
    assert len(calls) == 1


def test_find_positivity_signature_positive_matrix():
    rng = np.random.default_rng(37)
    p = rng.uniform(0.2, 2.0, (4, 4))
    assert np.array_equal(find_positivity_signature(p), np.ones(4))


def test_find_positivity_signature_recovers_up_to_global_sign():
    rng = np.random.default_rng(41)
    p = rng.uniform(0.2, 2.0, (4, 4))
    signs = np.array([-1.0, 1.0, -1.0, 1.0])
    recovered = find_positivity_signature(signature_conjugate(p, signs))
    assert recovered is not None
    assert np.array_equal(recovered, signs * signs[0])


def test_find_positivity_signature_obstructions():
    cyclic = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
    assert find_positivity_signature(cyclic) is None
    zeroed = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert find_positivity_signature(zeroed) is None
    negative_diag = np.array([[-1.0, 1.0], [1.0, 1.0]])
    assert find_positivity_signature(negative_diag) is None


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(zero_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel_tol=-1e-9)


def test_threshold_floors_the_scale_at_one():
    tol = Tolerance(zero_tol=1e-9)
    small = np.full((3, 3), 1e-3)
    assert tol.threshold(small) == 1e-9
    assert tol.threshold(small, 4) == 1e-9


def test_threshold_degree_raises_the_scale_to_that_power():
    tol = Tolerance(zero_tol=1e-9)
    a = np.array([[2.0, -5.0], [1.0, 3.0]])
    for degree in (1, 2, 3):
        assert tol.threshold(a, degree) == 1e-9 * 5.0**degree


def test_threshold_axis_gives_one_value_per_matrix_of_a_stack():
    tol = Tolerance(zero_tol=1e-9)
    stack = np.stack([np.full((3, 3), c) for c in (1e-3, -2.0, 10.0, 4.0)])
    thr = tol.threshold(stack, 2, axis=(1, 2))
    assert isinstance(thr, np.ndarray) and thr.shape == (4,)
    assert thr.tolist() == [1e-9, 1e-9 * 4.0, 1e-9 * 100.0, 1e-9 * 16.0]
    assert type(tol.threshold(stack[1], 2)) is float


def test_threshold_on_a_stack_matches_each_matrix_to_the_bit():
    # the scan's per-level thresholds come from the stacked form
    tol = Tolerance()
    stack = np.exp(np.random.default_rng(0).uniform(0.0, 20.0, (200, 2, 2)))
    for degree in range(1, 9):
        expected = [tol.threshold(a, degree) for a in stack]
        assert tol.threshold(stack, degree, axis=(1, 2)).tolist() == expected


def test_threshold_overflow_raises_without_axis():
    tol = Tolerance()
    big = np.full((2, 2), 1e160)
    assert np.isfinite(tol.threshold(big))
    assert np.all(np.isfinite(tol.threshold(big[None], axis=(1, 2))))
    with pytest.raises(OverflowError):
        tol.threshold(big, 3)
    with np.errstate(over="ignore"):
        assert tol.threshold(big[None], 3, axis=(1, 2)).tolist() == [np.inf]
