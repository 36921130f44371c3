"""Constraint checks for the parametric reference families."""

import itertools

import numpy as np
import pytest

from permkernel.gallery import (
    blockwise_inverse_m,
    laplace_demo_covariance,
    one_symmetrizable_triple,
    tripletwise_divisible_covariance,
    two_symmetrizable_triples,
)
from permkernel.reductions import block_double


def test_fixture_shapes():
    assert blockwise_inverse_m().shape == (4, 4)
    assert tripletwise_divisible_covariance().shape == (4, 4)
    assert two_symmetrizable_triples().shape == (4, 4)
    assert one_symmetrizable_triple().shape == (4, 4)
    assert laplace_demo_covariance().shape == (3, 3)


def test_covariance_fixtures_are_symmetric_psd():
    for g in (tripletwise_divisible_covariance(), laplace_demo_covariance()):
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0.0


@pytest.mark.parametrize(
    "g",
    [
        blockwise_inverse_m(),
        tripletwise_divisible_covariance(),
        two_symmetrizable_triples(),
        one_symmetrizable_triple(),
        laplace_demo_covariance(),
        *(block_double(one_symmetrizable_triple(), alpha) for alpha in (0.25, 0.5, 0.75)),
    ],
)
def test_reference_kernels_are_p0(g):
    # every principal minor is positive (the smallest are 0.378 for the
    # tripletwise covariance and 0.438 for the alpha = 0.75 double), so
    # condition (I) read as "every principal minor is nonnegative" holds
    # on each reference kernel and, since scaling by c > 0 multiplies a
    # k x k minor by c^k, on each scaled copy
    n = g.shape[0]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            assert np.linalg.det(g[np.ix_(subset, subset)]) > 0.0, subset


def test_two_triples_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        two_symmetrizable_triples(a=2.0, b=2.0)  # a == b
    with pytest.raises(ValueError):
        two_symmetrizable_triples(e=1.9)  # e < a
    with pytest.raises(ValueError):
        two_symmetrizable_triples(corner=2.1)  # corner above b
    with pytest.raises(ValueError):
        two_symmetrizable_triples(diag=(2.4, 3.0, 3.0))  # diagonal below e


def test_one_triple_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        one_symmetrizable_triple(a=3.0)  # collides with b
    with pytest.raises(ValueError):
        one_symmetrizable_triple(corner=2.5)  # corner above min(a, b, e)
    with pytest.raises(ValueError):
        one_symmetrizable_triple(diag=(3.9, 7.0, 7.0))  # diagonal below e


def test_one_triple_family_admissible_but_not_inverse_m_instance():
    # admissibility does not by itself give the inverse-M property; the
    # shipped defaults were chosen so that it holds
    from permkernel import is_inverse_m_matrix

    k = one_symmetrizable_triple(diag=(5.0, 5.0, 5.0))
    assert not is_inverse_m_matrix(k)
    assert is_inverse_m_matrix(one_symmetrizable_triple())
