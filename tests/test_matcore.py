"""Tests for the dense matrix core."""

import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
import permkernel
from permkernel import matcore
from permkernel.gallery import blockwise_inverse_m
from permkernel.matcore import _minor_table, _table_order

from oracles import (
    det_cofactor,
    effectively_equivalent_by_size,
    minor_table_lu,
    principal_minors_cofactor,
)

# frozen from the cofactor oracle, run against the printed fixture
BLOCKWISE_DET = 0.48945
BLOCKWISE_INV_23 = 0.1164572479313515


HADAMARD = np.array(
    [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
)
# fails at (1, 1, 2, 2, 3) with -3.21 at b = 2, order 5
FAILS_AT_ORDER_5 = np.array([[1.0, 0.87, 0.94], [-0.23, 0.54, -0.25], [0.19, 0.74, 0.91]])


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
    # a Python int beyond a double is bad input, not a failed computation
    with pytest.raises(ValueError, match="must be finite"):
        as_matrix([[10**400]])


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


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_resolvent_rejects_a_non_finite_sigma(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sigma must be finite and nonnegative$"):
            resolvent(blockwise_inverse_m(), sigma)


def test_resolvent_overflow_is_an_overflow_error():
    # I + sigma*G would hold inf and read as numerically singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^I \+ 1e\+308\*G or its tilted kernel is not finite$"):
            resolvent(10 * np.eye(2), 1e308)
        assert np.allclose(resolvent(np.eye(2), 1e150), 1e-150 * np.eye(2), rtol=1e-12, atol=0.0)


def test_resolvent_beyond_a_double_after_the_solve_is_an_overflow_error():
    # sigma*max|G| is finite, but 1 + sigma*G(1,1) = 1e-3 puts -1e309 in the
    # tilted kernel, which resolvent returned as -inf
    g = np.array([[-0.999e306, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"^I \+ 1e-306\*G or its tilted kernel is not finite$"):
            resolvent(g, 1e-306)


def test_determinants_beyond_a_double_are_inf_without_warnings():
    # det silences overflow as it does divide-by-zero and invalid
    big_off_diagonal = 1e200 * (np.ones((3, 3)) - np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert determinant(1e200 * np.eye(2)) == math.inf
        assert resolvent(np.eye(2), 1e300).tolist() == [[1e-300, 0.0], [0.0, 1e-300]]
        minors = principal_minors(big_off_diagonal)
    assert minors == {
        (1,): 0.0,
        (2,): 0.0,
        (3,): 0.0,
        (1, 2): -math.inf,
        (1, 3): -math.inf,
        (2, 3): -math.inf,
        (1, 2, 3): math.inf,
    }


LINALG_NAMES = ("np.linalg", "numpy.linalg")


def _linalg_uses():
    """(`module.top_level_name`, name) of each use of numpy.linalg in the
    package source (owner None for module-level code): an attribute
    np.linalg.<name>, a name imported from numpy.linalg, and ("linalg")
    numpy.linalg itself bound, imported or passed anywhere else."""
    found = []
    for path in sorted(Path(permkernel.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(top, 'name', None)}"
            nodes = list(ast.walk(top))
            named = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
            for node in nodes:
                if isinstance(node, ast.Attribute) and ast.unparse(node.value) in LINALG_NAMES:
                    found.append((owner, node.attr))
                elif isinstance(node, ast.Attribute) and ast.unparse(node) in LINALG_NAMES:
                    if id(node) not in named:  # np.linalg not followed by a name
                        found.append((owner, "linalg"))
                elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                    for alias in node.names:
                        if node.module.startswith("numpy.linalg"):
                            found.append((owner, alias.name))
                        elif alias.name == "linalg":
                            found.append((owner, "linalg"))
                elif isinstance(node, ast.Import):
                    found += [(owner, "linalg") for a in node.names if a.name.startswith("numpy.linalg")]
    return found


def _linalg_references(attr):
    """`module.top_level_name` of each reference to numpy.linalg.<attr> in
    the package source (None for module-level code)."""
    return [owner for owner, name in _linalg_uses() if name == attr]


def test_determinants_and_inverses_take_one_route():
    # every determinant goes through matcore.det, every inverse through
    # matcore._solve's guarded solve
    assert _linalg_references("det") == ["matcore.det"]
    assert _linalg_references("inv") == []


def test_numpy_linalg_is_called_in_three_places():
    # every solve goes through matcore._solve's singularity guard, and the
    # Monte Carlo covariance root is the only other numpy.linalg call;
    # condition (I) reads the principal minors, not eigenvalues
    assert sorted(_linalg_uses()) == [
        ("matcore._solve", "solve"),
        ("matcore.det", "det"),
        ("mcverify._covariance_root", "eigh"),
    ]


def test_no_cache_is_bounded_by_an_entry_count():
    # an entry count never bounded memory, and a bound too small for a loop
    # over sizes rebuilds its tables on every pass: index tables use functools.cache
    bounded = []
    for path in sorted(Path(permkernel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    called = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if ast.unparse(called).split(".")[-1] == "lru_cache":
                        bounded.append(f"{path.stem}.{node.name}")
    assert bounded == []


def test_principal_minors_at_every_size_reuse_their_subset_tables():
    rng = np.random.default_rng(16)
    matrices = [rng.uniform(-1.0, 1.0, (n, n)) for n in range(9, 17)]
    for a in matrices:
        principal_minors(a)
    misses = matcore.subset_table.cache_info().misses
    for a in matrices:
        principal_minors(a)
    assert matcore.subset_table.cache_info().misses == misses


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


INDEXED = {
    "symmetrizability_breakpoints": lambda g, i: permkernel.symmetrizability_breakpoints(
        g, (i, 2, 3), 0.5
    ).values,
    "principal_submatrix": lambda g, i: principal_submatrix(g, (i, 3)),
    "repeated_matrix": lambda g, i: permkernel.repeated_matrix(g, (i, i)),
    "conditioning_kernel": lambda g, i: permkernel.conditioning_kernel(g, 1.0, i),
    "ratio_matrix": lambda g, i: permkernel.ratio_matrix(g, i),
}


@pytest.mark.parametrize("name", INDEXED)
def test_non_integral_indices_are_out_of_range(name):
    # 1.5 and 1.9 once answered for index 1, and 2.7 escaped as numpy's IndexError
    call = INDEXED[name]
    g = blockwise_inverse_m()
    np.testing.assert_array_equal(call(g, 1.0), call(g, 1))
    for index in (1.5, 1.9, 2.7, math.nan, math.inf, 0, 5):
        with pytest.raises(IndexOutOfRange, match=r"integers in 1\.\.4"):
            call(g, index)


def test_diagonal_conjugate_hand_cases():
    a = np.array([[0.0, 2.0], [8.0, 0.0]])
    assert np.allclose(diagonal_conjugate(a, [2.0, 1.0]), [[0.0, 4.0], [4.0, 0.0]])
    b = blockwise_inverse_m()
    assert np.allclose(diagonal_conjugate(b, np.ones(4)), b)
    with pytest.raises(ValueError):
        diagonal_conjugate(b, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(DimensionMismatch, match="scaling has length 3, expected 4"):
        diagonal_conjugate(b, np.ones(3))


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
    with pytest.raises(DimensionMismatch, match="signature has length 5, expected 4"):
        signature_conjugate(a, np.ones(5))


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
    # above n = 16 a pair whose 1x1 minors differ is still decided, before the table
    assert not effectively_equivalent(np.eye(17), np.diag([1.0] * 16 + [2.0]))


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
    # by size, then in itertools.combinations order
    keys = [tuple(c) for m in range(1, 5) for c in itertools.combinations(range(1, 5), m)]
    assert list(mine) == keys == list(ref)
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
    # the Schur-complement table takes no determinant when no pivot is small
    assert len(principal_minors(a)) == 63
    assert calls == []
    # a zero diagonal trips the guard on every nonempty complement: one
    # batched LU per size from 2 up
    hollow = a - np.diag(np.diag(a))
    assert len(principal_minors(hollow)) == 63
    assert calls == [(15, 2, 2), (20, 3, 3), (15, 4, 4), (6, 5, 5), (1, 6, 6)]
    calls.clear()
    # a zero at (3, 3) trips only the complement of {3}, on {4, 5, 6}: the
    # minors beneath it have sizes 2 to 4
    a[2, 2] = 0.0
    assert len(principal_minors(a)) == 63
    assert [shape[1:] for shape in calls] == [(2, 2), (3, 3), (4, 4)]
    a[2, 2] = 1.5
    calls.clear()
    b = a.copy()
    b[0, 1] *= 1.1  # changes 2x2 minors first
    tables = []
    minor_table = matcore._minor_table
    monkeypatch.setattr(matcore, "_minor_table", lambda x: tables.append(x) or minor_table(x))
    # the pre-check reads the 1x1 and 2x2 minors from the pair itself, and
    # they decide: neither LU nor the table runs
    assert not effectively_equivalent(a, b)
    assert calls == [] and tables == []
    assert effectively_equivalent(a, a.T)
    assert calls == [] and len(tables) == 1


def test_effectively_equivalent_decides_1x1_pairs():
    # a 1x1 pair has no 2x2 minors: the pre-check reads the diagonal alone
    assert effectively_equivalent([[2.0]], [[2.0]])
    assert not effectively_equivalent([[2.0]], [[3.0]])
    assert effectively_equivalent([[-0.1]], [[-0.1]])


def test_effectively_equivalent_reads_the_diagonal_exactly(monkeypatch):
    # np.linalg.det([[-0.1]]) is -0.10000000000000002; the size-1
    # pre-check compares the diagonal entries themselves
    compared = []
    close = matcore.close
    monkeypatch.setattr(matcore, "close", lambda *args: compared.append(args[:2]) or close(*args))
    assert effectively_equivalent([[-0.1, 1.0], [2.0, 0.3]], [[-0.1, 2.0], [1.0, 0.3]])
    assert [x.tolist() for x in compared[0]] == [[-0.1, 0.3], [-0.1, 0.3]]


def _minor_families(rng, n: int) -> dict:
    """Matrices on which the Schur-complement table meets small, zero and
    large pivots."""
    normal = rng.standard_normal((n, n))
    one_zero = normal.copy()
    k = rng.integers(n)
    one_zero[k, k] = 0.0
    u, v = rng.standard_normal((2, n, 2))
    return {
        "diagonally heavy": rng.uniform(0.1, 1.0, (n, n)) + n * np.eye(n),
        "signed normal": normal,
        "zero diagonal": normal - np.diag(np.diag(normal)),
        "one zero diagonal": one_zero,
        "rank 2": u @ v.T,
        "integers": rng.integers(-2, 3, (n, n)).astype(float),
        "scaled up": 1e4 * normal,
        "scaled down": 1e-4 * normal,
    }


def _table_sets(n: int, max_size: int) -> list[tuple]:
    """The 0-based subsets of range(n) of at most max_size elements, in
    increasing bitmask order: the columns of a _minor_table capped at
    max_size."""
    sets = [c for m in range(max_size + 1) for c in itertools.combinations(range(n), m)]
    return sorted(sets, key=lambda c: sum(1 << i for i in c))


def _hadamard_bounds(a: np.ndarray, masks) -> np.ndarray:
    """|det A[T]| <= the product of the norms of the rows of A[T], for each
    bitmask T."""
    bits = (np.asarray(masks)[:, None] >> np.arange(a.shape[0])) & 1
    rows = np.sqrt(((a * bits[:, None, :]) ** 2).sum(axis=2))  # rows of A on T's columns
    return np.where(bits, rows, 1.0).prod(axis=1)


def _check_table_order(n: int, max_size: int, sets: list) -> None:
    """_table_order gives each column's size and each size's sets in
    table order."""
    sizes, by_size = _table_order(n, max_size)
    assert sizes.tolist() == [len(c) for c in sets]
    assert [list(map(tuple, z.tolist())) for z in by_size] == [
        [c for c in sets if len(c) == m] for m in range(max_size + 1)
    ]


def test_minor_table_matches_the_batched_lu_oracle():
    rng = np.random.default_rng(47)
    for n in range(1, 9):
        for name, a in _minor_families(rng, n).items():
            # column T of the full table is the minor on the set bits of T
            lu, bound = minor_table_lu(a), _hadamard_bounds(a, np.arange(1 << n))
            assert np.all(np.abs(_minor_table(a) - lu) <= 1e-13 * bound), (name, n)
            for max_size in range(1, n + 1):
                sets = _table_sets(n, max_size)
                masks = [sum(1 << i for i in c) for c in sets]
                _check_table_order(n, max_size, sets)
                capped = _minor_table(a, max_size)
                stacked = _minor_table(np.stack((a, 2 * a)), max_size)
                assert capped.shape == (len(sets),) and stacked.shape == (2, len(sets))
                assert np.all(np.abs(capped - lu[masks]) <= 1e-13 * bound[masks]), (name, n, max_size)
                assert stacked[1].tolist() == _minor_table(2 * a, max_size).tolist()
    # the full table is the capped one at max_size = n, bit for bit
    a = rng.standard_normal((7, 7))
    full = _minor_table(a).tolist()
    assert _minor_table(a, 7).tolist() == full
    assert _minor_table(a, 9).tolist() == full
    # a product that overflows, or meets a zero pivot after overflowing, is
    # not a finite double: LU gives the minor
    assert principal_minors(np.diag([1e200, 1e200, 0.0]))[(1, 2, 3)] == 0.0
    tiny = np.diag([1e200, 1e200, 1e-200])
    assert principal_minors(tiny)[(1, 2, 3)] == determinant(tiny) == 1.000000000000022e200


def test_capped_minor_table_runs_above_the_full_table_cap():
    rng = np.random.default_rng(59)
    for n, max_size in ((17, 2), (20, 3)):
        a = rng.standard_normal((n, n))
        sets = _table_sets(n, max_size)
        _check_table_order(n, max_size, sets)
        table = _minor_table(np.stack((a, 2 * a)), max_size)
        assert table.shape == (2, sum(math.comb(n, m) for m in range(max_size + 1)))
        assert table[1].tolist() == _minor_table(2 * a, max_size).tolist()
        expected = [np.linalg.det(a[np.ix_(c, c)]) if c else 1.0 for c in sets]
        bound = _hadamard_bounds(a, [sum(1 << i for i in c) for c in sets])
        assert np.all(np.abs(table[0] - expected) <= 1e-13 * bound)
    with pytest.raises(DimensionTooLarge):
        _minor_table(np.eye(17))
    with pytest.raises(DimensionTooLarge):
        principal_minors(np.eye(17))


def test_minor_table_recomputes_minors_behind_a_zero_pivot(monkeypatch):
    calls = []
    batched_det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda x: calls.append(np.shape(x)) or batched_det(x))
    # both zero pivots make NaN complements: LU gives the 2x2 minors
    # beneath them, in both the capped and the full table (columns {}, {1},
    # {2}, {1, 2}, {3}, {1, 3}, {2, 3} and, uncapped, {1, 2, 3})
    a = np.diag([0.0, 0.0, 1.0])
    capped = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert _minor_table(a, 2).tolist() == capped
    assert calls == [(3, 2, 2)]
    assert _minor_table(a).tolist() == capped + [0.0]


def test_effectively_equivalent_verdicts_match_the_oracle():
    rng = np.random.default_rng(53)
    for n in range(2, 9):
        for name, a in _minor_families(rng, n).items():
            partners = [
                diagonal_conjugate(a, rng.uniform(0.5, 2.0, n)),
                signature_conjugate(a, rng.choice([-1.0, 1.0], n)),
                a.T,
            ]
            i, j = rng.integers(n, size=2)
            # not within 10x of rel_tol, where either route may round either way
            for eps in (1e-12, 1e-6, 1e-2):
                b = a.copy()
                b[i, j] += eps * np.abs(a).max()
                partners.append(b)
            for b in partners:
                assert effectively_equivalent(a, b) == effectively_equivalent_by_size(a, b), (name, n)
    # a floor that overflows is an error once every smaller size agrees
    big = 1e100 * np.eye(4)
    with pytest.raises(OverflowError, match="order 4"):
        effectively_equivalent(big, big)
    cycle = big.copy()
    cycle[[0, 1, 2], [1, 2, 0]] = 1e100  # changes the {1, 2, 3} minor alone
    assert not effectively_equivalent(big, cycle)
    # so is a minor beyond a double, at every order: 1e200^2 at order 2,
    # and det(1e77 H) = 16e308 of a 4x4 Hadamard matrix H, whose floor
    # 1e-9 * 1e308 is finite
    with pytest.raises(OverflowError, match="order 2"):
        effectively_equivalent(1e200 * np.eye(3), 1e200 * np.eye(3))
    with pytest.raises(OverflowError, match="order 4"):
        effectively_equivalent(1e77 * HADAMARD, 1e77 * HADAMARD)


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
    # an infinite rel_tol makes every close() test true, a NaN one every test false
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Tolerance(zero_tol=value)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            Tolerance(rel_tol=value)


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
    # effectively_equivalent's floors: one value per degree of an array
    for a in stack[:20]:
        expected = [tol.threshold(a, degree) for degree in range(9)]
        assert tol.threshold(a, np.arange(9), axis=(0, 1)).tolist() == expected


def test_threshold_overflow_raises_without_axis():
    tol = Tolerance()
    big = np.full((2, 2), 1e160)
    assert np.isfinite(tol.threshold(big))
    assert np.all(np.isfinite(tol.threshold(big[None], axis=(1, 2))))
    with pytest.raises(OverflowError):
        tol.threshold(big, 3)
    with np.errstate(over="ignore"):
        assert tol.threshold(big[None], 3, axis=(1, 2)).tolist() == [np.inf]


# rounded 3x3 matrices with max|A| = 1: entries in tenths, so every value
# of a scan up to order 5 is zero or at least 1e-5 / 2^5 in magnitude, far
# from the zero threshold at every scale
rounded_3x3 = st.lists(st.integers(-10, 10), min_size=9, max_size=9).filter(
    lambda v: max(map(abs, v)) == 10
).map(lambda v: np.array(v, dtype=float).reshape(3, 3) / 10)


@settings(max_examples=100, deadline=None)
@given(
    a=rounded_3x3,
    b=st.sampled_from([0.5, 1.0, 2.0]),
    c=st.integers(0, 75).map(lambda k: 10.0**k),
)
@example(a=FAILS_AT_ORDER_5, b=2.0, c=3e61)
@example(a=HADAMARD, b=1.0, c=1e77)
def test_verdicts_survive_scaling_or_raise_overflow(a, b, c):
    # a value or floor beyond a double must not pass silently
    unscaled = is_b_positive_definite(a, b, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scan = is_b_positive_definite(c * a, b, 5)
            assert (scan.passed, scan.witness) == (unscaled.passed, unscaled.witness)
        except OverflowError:
            pass
        try:
            assert effectively_equivalent(c * a, c * a)
        except OverflowError:
            pass
