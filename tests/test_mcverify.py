"""Tests for the Monte Carlo Laplace-transform checks."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from permkernel import (
    DimensionMismatch,
    NonpositiveDeterminant,
    NotPSD,
    NotSymmetric,
    closed_form_laplace,
    empirical_laplace,
    sample_squared_gaussian,
    verify_conditioning,
)
from permkernel import gallery, mcverify
from permkernel.mcverify import BLOCK_ROWS, SHARD_SIZE, laplace_report

from oracles import chi2_moment_bound, laplace_report_batch, squared_gaussian_draws
from test_golden import assert_same


def test_sampling_is_seed_deterministic():
    g = np.array([[1.0, 0.3], [0.3, 1.0]])
    a = sample_squared_gaussian(g, 5000, seed=42)
    b = sample_squared_gaussian(g, 5000, seed=42)
    assert np.array_equal(a.draws, b.draws)
    c = sample_squared_gaussian(g, 5000, seed=43)
    assert not np.array_equal(a.draws, c.draws)
    assert a.draws.shape == (5000, 2)
    assert a.draws.min() >= 0.0


def test_sampling_independent_of_worker_count(monkeypatch):
    g = np.array([[1.0, 0.5], [0.5, 2.0]])
    count = SHARD_SIZE + 1234  # spans two shards
    monkeypatch.setattr(mcverify, "worker_count", lambda: 1)
    serial = sample_squared_gaussian(g, count, seed=7)
    monkeypatch.setattr(mcverify, "worker_count", lambda: 4)
    threaded = sample_squared_gaussian(g, count, seed=7)
    assert np.array_equal(serial.draws, threaded.draws)


def test_sampling_follows_the_shard_seeding_contract():
    # shard i holds the rows from i * SHARD_SIZE, drawn at seed + i
    g = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.4], [0.1, 0.4, 1.5]])
    whole = sample_squared_gaussian(g, 2 * SHARD_SIZE + 7, seed=5)
    parts = [
        sample_squared_gaussian(g, count, seed=seed).draws
        for count, seed in ((SHARD_SIZE, 5), (SHARD_SIZE, 6), (7, 7))
    ]
    assert np.array_equal(whole.draws, np.concatenate(parts))


@pytest.mark.parametrize("n", [1, 3, 4, 8, 12])
@pytest.mark.parametrize("tail", [1, 17])
def test_sampling_draws_each_shard_as_one_draw(n, tail):
    # the blocks, ending in a lone row or mid-block, give each shard's one-draw rows bit for bit
    g = _report_covariance(n)
    count = SHARD_SIZE + 3 * BLOCK_ROWS + tail
    batch = sample_squared_gaussian(g, count, seed=5)
    assert np.array_equal(batch.draws, squared_gaussian_draws(g, count, 5, SHARD_SIZE))


def test_worker_count_follows_the_cpu_affinity(monkeypatch):
    monkeypatch.setattr(mcverify.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(mcverify.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert mcverify.worker_count() == 1
    monkeypatch.setattr(mcverify.os, "sched_getaffinity", lambda pid: set(range(3)))
    assert mcverify.worker_count() == 3
    monkeypatch.setattr(mcverify.os, "sched_getaffinity", lambda pid: set(range(20)))
    assert mcverify.worker_count() == 8
    monkeypatch.delattr(mcverify.os, "sched_getaffinity")
    assert mcverify.worker_count() == 8
    monkeypatch.setattr(mcverify.os, "cpu_count", lambda: None)
    assert mcverify.worker_count() == 1


def test_shard_pool_stops_at_the_first_error(monkeypatch):
    monkeypatch.setattr(mcverify, "worker_count", lambda: 4)
    started = []

    def task(index, stop):
        started.append(index)
        if index == 0:
            raise RuntimeError("shard 0 failed")
        stop.wait(1.0)

    with pytest.raises(RuntimeError, match="shard 0 failed"):
        mcverify._for_each_shard(64 * SHARD_SIZE, task)
    assert 0 in started and len(started) <= 2 * 4


def test_sampling_holds_one_copy_of_the_draws(monkeypatch):
    monkeypatch.setattr(mcverify, "worker_count", lambda: 1)
    tracemalloc.start()
    try:
        batch = sample_squared_gaussian(np.eye(3), 1_000_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * batch.draws.nbytes


def test_sampling_moments():
    batch = sample_squared_gaussian(np.eye(2), 200_000, seed=1)
    bound = chi2_moment_bound(batch.count)
    assert abs(batch.draws[:, 0].mean() - 1.0) <= bound
    assert abs(batch.draws[:, 1].mean() - 1.0) <= bound


def test_sampling_rank_one_covariance():
    batch = sample_squared_gaussian(np.ones((2, 2)), 1000, seed=2)
    assert np.allclose(batch.draws[:, 0], batch.draws[:, 1], rtol=1e-10, atol=1e-12)


def test_sampling_isserlis_covariance():
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    batch = sample_squared_gaussian(g, 200_000, seed=3)
    x = batch.draws[:, 0]
    y = batch.draws[:, 1]
    sample_cov = np.cov(x, y, ddof=1)[0, 1]
    # Var(eta_i^2) = 2 G_ii^2 and Cov(eta_i^2, eta_j^2) = 2 G_ij^2
    expected = 2.0 * g[0, 1] ** 2
    per_draw = (x - x.mean()) * (y - y.mean())
    se = per_draw.std(ddof=1) / math.sqrt(batch.count)
    assert abs(sample_cov - expected) <= 3.0 * se


def test_sampling_input_validation():
    with pytest.raises(NotSymmetric):
        sample_squared_gaussian(np.array([[1.0, 0.9], [0.1, 1.0]]), 10)
    with pytest.raises(NotPSD):
        sample_squared_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), 10)
    with pytest.raises(ValueError):
        sample_squared_gaussian(np.eye(2), 0)
    # a non-integral count or seed is refused before the eigendecomposition
    # and before any worker draws
    g = gallery.laplace_demo_covariance()
    for run in (sample_squared_gaussian, laplace_report):
        with pytest.raises(ValueError, match="^count must be an integer, got 1000.0$"):
            run(g, 1000.0, 0)
        for seed in (0.5, 2.0, 1.5):
            with pytest.raises(ValueError, match="^seed must be an integer"):
                run(g, 10, seed)
    assert np.array_equal(
        sample_squared_gaussian(g, np.int64(10), np.int64(2)).draws,
        sample_squared_gaussian(g, 10, 2).draws,
    )


@pytest.mark.parametrize(
    "g",
    [
        [[1.0, 0.3], [0.3, 2.0]],
        [[1.0, 2.0], [2.0, 1.0]],
        [[1.0, 0.9], [0.1, 1.0]],
        [[1.0, 1.0 + 1e-7], [1.0 + 1e-7, 1.0]],
        [[1.0, 1.0 - 1e-7], [1.0 - 1e-7, 1.0]],
        np.ones((3, 3)),
        np.zeros((2, 2)),
        gallery.laplace_demo_covariance(),
    ],
)
def test_input_checks_do_not_depend_on_the_scale_of_g(g):
    def outcome(c):
        try:
            sample_squared_gaussian(c * np.asarray(g), 10, seed=0)
        except (NotSymmetric, NotPSD) as exc:
            return type(exc)
        return None

    at_one = outcome(1.0)
    for c in np.logspace(-12, 12, 25):
        assert outcome(c) is at_one, c


def test_empirical_laplace_trivial_cases():
    batch = sample_squared_gaussian(np.eye(2), 100, seed=4)
    estimate = empirical_laplace(batch, np.zeros(2))
    assert estimate.point_estimate == 1.0
    assert estimate.std_error == 0.0

    single = sample_squared_gaussian(np.eye(2), 1, seed=5)
    est = empirical_laplace(single, [1.0, 0.0])
    assert est.point_estimate == pytest.approx(math.exp(-0.5 * single.draws[0, 0]))
    assert est.std_error == 0.0
    with pytest.raises(DimensionMismatch):
        empirical_laplace(batch, [1.0])
    with pytest.raises(ValueError):
        empirical_laplace(batch, [-1.0, 0.0])


def test_closed_form_laplace_values():
    assert closed_form_laplace(np.eye(3), np.zeros(3), 0.5) == 1.0
    rho, a = 0.6, 0.8
    g = np.array([[1.0, rho], [rho, 1.0]])
    expected = ((1.0 + a) ** 2 - (a * rho) ** 2) ** -0.5
    assert closed_form_laplace(g, (a, a), 0.5) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(NonpositiveDeterminant):
        closed_form_laplace(np.array([[-2.0]]), [1.0], 0.5)
    with pytest.raises(ValueError):
        closed_form_laplace(np.eye(2), (1.0, 1.0), 0.0)


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_is_an_input_error(b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exponent b must be finite and strictly positive"):
            closed_form_laplace(np.eye(2), (1.0, 1.0), b)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_alphas_are_an_input_error(bad):
    g = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    batch = sample_squared_gaussian(g, 100, seed=0)
    calls = (
        lambda: closed_form_laplace(g, (0.5, bad, 0.5)),
        lambda: empirical_laplace(batch, (0.5, bad, 0.5)),
        lambda: verify_conditioning(batch, g, 1.0, (bad, 0.5)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="alphas must be finite and nonnegative"):
                call()


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_non_finite_sigma_is_rejected_before_the_moments_pass(sigma, monkeypatch):
    g = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    batch = sample_squared_gaussian(g, 100, seed=0)
    monkeypatch.setattr(mcverify._Moments, "of", lambda *args: pytest.fail("moments pass ran"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sigma must be finite and strictly positive$"):
            verify_conditioning(batch, g, sigma, (0.5, 0.5))


def test_closed_form_monotone_in_each_alpha_for_nonnegative_kernels():
    g = np.array([[1.0, 0.4], [0.4, 2.0]])
    for coord in (0, 1):
        previous = np.inf
        for a in np.linspace(0.0, 3.0, 13):
            alphas = np.full(2, 0.5)
            alphas[coord] = a
            value = closed_form_laplace(g, alphas, 0.5)
            assert value <= previous + 1e-15
            previous = value


def test_empirical_matches_closed_form_identity():
    batch = sample_squared_gaussian(np.eye(2), 200_000, seed=6)
    est = empirical_laplace(batch, (1.0, 1.0))
    assert closed_form_laplace(np.eye(2), (1.0, 1.0), 0.5) == pytest.approx(0.5)
    assert abs(est.point_estimate - 0.5) <= 3.0 * est.std_error


def test_empirical_matches_closed_form_correlated():
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    batch = sample_squared_gaussian(g, 200_000, seed=6)
    est = empirical_laplace(batch, (1.0, 1.0))
    closed = closed_form_laplace(g, (1.0, 1.0), 0.5)
    assert abs(est.point_estimate - closed) <= 3.0 * est.std_error


def test_verify_conditioning_trivial_and_random():
    g = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    zero = verify_conditioning(sample_squared_gaussian(g, 2000, seed=7), g, 1.0, np.zeros(2))
    assert zero.lhs.point_estimate == pytest.approx(1.0)
    assert zero.rhs == 1.0

    check = verify_conditioning(sample_squared_gaussian(g, 200_000, seed=8), g, 1.0, (0.5, 0.5))
    assert abs(check.lhs.point_estimate - check.rhs) <= 3.0 * check.lhs.std_error

    # sigma near zero reduces to the marginal transform of the kept block
    small = verify_conditioning(sample_squared_gaussian(g, 50_000, seed=9), g, 1e-9, (0.5, 0.5))
    marginal = closed_form_laplace(g[:2, :2], (0.5, 0.5), 0.5)
    assert small.rhs == pytest.approx(marginal, rel=1e-6)

    batch = sample_squared_gaussian(g, 100, seed=0)
    with pytest.raises(DimensionMismatch):
        verify_conditioning(batch, g, 1.0, (0.5,))
    with pytest.raises(ValueError):
        verify_conditioning(batch, g, 0.0, (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        verify_conditioning(batch, g[:2, :2], 1.0, (0.5,))
    one = np.eye(1)
    with pytest.raises(ValueError, match="dimension at least 2"):
        verify_conditioning(sample_squared_gaussian(one, 100, seed=0), one, 1.0, ())


def test_batch_moments_reduce_block_by_block():
    # a lone last row joins the block before it, as in the shard blocks
    assert list(mcverify._blocks(1)) == [(0, 1)]
    assert list(mcverify._blocks(BLOCK_ROWS + 1)) == [(0, BLOCK_ROWS + 1)]
    rows = 2 * BLOCK_ROWS + 1
    assert list(mcverify._blocks(rows)) == [(0, BLOCK_ROWS), (BLOCK_ROWS, rows)]
    g = gallery.laplace_demo_covariance()
    batch = sample_squared_gaussian(g, 1_000_000, seed=4)
    tracemalloc.start()
    try:
        check = verify_conditioning(batch, g, 1.0, (0.5, 0.5))
        marginal = empirical_laplace(batch, (0.25, 0.5, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the conditioning check's (2, count) value table alone takes 15.3 MiB
    assert peak <= 2 * 2**20
    # one reduction of the whole batch gives the same moments up to rounding
    for columns, got, den in (
        (mcverify._conditioning_exponents(np.array([0.5, 0.5]), 1.0), check.lhs, 1),
        (np.array([[0.25, 0.5, 1.0]]).T, marginal, None),
    ):
        whole = mcverify._moments(batch.draws, columns)[None]
        want = mcverify._Moments.combine(whole, columns.shape[1]).estimate(0, den)
        assert got.count == want.count == batch.count
        assert got.point_estimate == pytest.approx(want.point_estimate, rel=1e-13)
        assert got.std_error == pytest.approx(want.std_error, rel=1e-13)


def _report_covariance(n: int) -> np.ndarray:
    if n == 3:
        return gallery.laplace_demo_covariance()
    x = np.random.default_rng(n).standard_normal((n, n + 1))
    return x @ x.T / (n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "count", [1, 2, SHARD_SIZE, SHARD_SIZE + 3 * BLOCK_ROWS + 17, 2 * SHARD_SIZE + 7]
)
def test_laplace_report_matches_the_batch_oracle(n, count):
    g = _report_covariance(n)
    report = laplace_report(g, count, 13)
    # floats within a relative 1e-12, everything else equal
    assert_same(list(report), list(laplace_report_batch(g, count, 13, SHARD_SIZE)))
    lines, conditioning = report
    if count == 1:
        assert all(line["std_error"] == 0.0 for line in lines + [conditioning] if line)


def test_laplace_report_independent_of_worker_count(monkeypatch):
    g = _report_covariance(8)
    count = 2 * SHARD_SIZE + 7
    monkeypatch.setattr(mcverify, "worker_count", lambda: 1)
    serial = laplace_report(g, count, 3)
    monkeypatch.setattr(mcverify, "worker_count", lambda: 4)
    assert laplace_report(g, count, 3) == serial
    # 8 threads, one per shard and more than the cores, switching as often
    # as the interpreter allows
    count = 8 * SHARD_SIZE + 7
    monkeypatch.setattr(mcverify, "worker_count", lambda: 1)
    serial = laplace_report(g, count, 3)
    monkeypatch.setattr(mcverify, "worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = laplace_report(g, count, 3)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_laplace_report_holds_no_draw_array(monkeypatch):
    # one worker holds one block of at most BLOCK_ROWS rows, not a shard
    monkeypatch.setattr(mcverify, "worker_count", lambda: 1)
    count = 1_000_000
    for g, bound in ((np.eye(3), 0.5 * count * 3 * 8), (_report_covariance(8), 2 * 2**20)):
        tracemalloc.start()
        try:
            laplace_report(g, count, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound
