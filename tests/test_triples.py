"""The batched 3-cycle kernel against the triple-by-triple oracles.

`count_symmetrizable_3subsets`, `classify_kernel(...).sym3_subsets`,
`symmetrizability_breakpoints` and the `reduce_scan` report must equal the
loops in `oracles.py` exactly, on signed input and on the edge cases of
their rules: entries exactly at the zero threshold, negative diagonals,
3-cycles that tie within rel_tol, double roots, poles and sigma <= 0.
"""

import json
import sys

import numpy as np
import pytest

from oracles import (
    breakpoints_scalar,
    count_symmetrizable_3subsets_loop,
    reduce_scan_loop,
)
from permkernel import (
    Tolerance,
    classify_kernel,
    count_symmetrizable_3subsets,
    reduce_scan,
    symmetrizability_breakpoints,
)
from permkernel import classify, matcore, reductions

TOL = Tolerance()


def signed(rng, n):
    """Signed entries with mixed-sign diagonal."""
    return rng.uniform(-2.0, 2.0, (n, n))


def positive_diagonal(rng, n):
    g = signed(rng, n)
    np.fill_diagonal(g, rng.uniform(0.2, 2.0, n))
    return g


def at_threshold(rng, n):
    """Every 3x3 block has max|block| = 2, so its zero threshold is exactly
    2 * zero_tol; some entries sit on it and some one step above it."""
    g = signed(rng, n)
    np.fill_diagonal(g, 2.0)
    thr = TOL.zero_tol * 2.0
    for value in (thr, -thr, np.nextafter(thr, 1.0), -np.nextafter(thr, 1.0)):
        i, j = rng.choice(n, 2, replace=False)
        g[i, j] = value
    return g


def near_tie(rng, n):
    """Diagonally equivalent to a signed symmetric matrix with a positive
    diagonal, with one entry moved by a multiple of rel_tol so that some
    3-cycles tie near the rel_tol boundary."""
    s = positive_diagonal(rng, n)
    s = s + s.T
    d = rng.uniform(0.5, 2.0, n)
    g = s * np.outer(d, 1.0 / d)
    i, j = rng.choice(n, 2, replace=False)
    g[i, j] *= 1.0 + rng.choice([0.0, 0.5, 0.999, 1.001, 2.0]) * TOL.rel_tol
    return g


def double_root(rng, n):
    """Pivot n has a unit row and column, so the ratio matrix is G itself.
    Triple (1, 2, 3) has forward cycle (a, b, b) and reverse cycle
    (c, b, b): the breakpoint quadratic is (a - c)(b - t)^2, a double root
    at b, or degenerate when a = c."""
    g = rng.integers(1, 7, (n, n)).astype(float)
    a, b, c = rng.integers(1, 7, 3).astype(float)
    g[0, 1], g[1, 2], g[2, 0] = a, b, b
    g[1, 0], g[0, 2], g[2, 1] = c, b, b
    g[-1, :] = 1.0
    g[:, -1] = 1.0
    g[-1, -1] = 0.125
    return g


FAMILIES = (signed, positive_diagonal, at_threshold, near_tie, double_root)


def outcome(fn):
    try:
        return json.dumps(fn(), sort_keys=True)
    except ValueError as exc:
        return f"ValueError: {exc}"


def sigma_grid(g):
    # includes sigma = 0, negative sigmas and a pole of the first usable pivot
    return [0.1, 1.0, 0.0, -0.25, -1.0 / g[0, 0] if g[0, 0] else 5.0]


@pytest.mark.parametrize("n", range(3, 11))
def test_batched_triples_match_the_loops(n):
    rng = np.random.default_rng(1400 + n)
    tries = 6 if n <= 6 else 2
    for family in FAMILIES:
        if family is double_root and n < 4:
            continue
        for trial in range(tries):
            g = family(rng, n)
            expected = count_symmetrizable_3subsets_loop(g, TOL)
            assert count_symmetrizable_3subsets(g, TOL) == expected, family.__name__
            if trial == 0:
                report = classify_kernel(g, gamma_grid=(1.0,), max_order=2, tol=TOL)
                assert report.sym3_subsets == tuple(expected)
            # the oracle scan costs about 0.1 s at n = 10
            if n >= 4 and (n <= 5 or trial == 0):
                grid = sigma_grid(g)
                assert outcome(lambda: reduce_scan(g, grid, TOL)) == outcome(
                    lambda: reduce_scan_loop(g, grid, TOL)
                ), family.__name__


def test_breakpoints_match_the_scalar_solve():
    rng = np.random.default_rng(1401)
    hits = {"double": 0, "degenerate": 0, "two": 0}
    for trial in range(300):
        if trial % 2:
            gamma = double_root(rng, 4)[:3, :3]
        else:
            gamma = rng.uniform(-2.0, 2.0, (3, 3))
        pivot_diag = rng.choice([0.05, 0.125, 0.5, 2.0])
        got = symmetrizability_breakpoints(gamma, (1, 2, 3), pivot_diag, TOL)
        values, degenerate = breakpoints_scalar(gamma, (0, 1, 2), pivot_diag, TOL)
        assert (got.values, got.degenerate) == (values, degenerate)
        hits["degenerate"] += degenerate
        hits["two"] += len(values) == 2
        hits["double"] += bool(trial % 2) and len(values) == 1
    assert all(count > 0 for count in hits.values()), hits


def test_scan_uses_the_batched_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the per-triple route must not run")

    monkeypatch.setattr(classify, "is_symmetrizable_3x3", forbidden)
    monkeypatch.setattr(reductions, "symmetrizability_breakpoints", forbidden)
    original = matcore.principal_submatrix
    for name, module in list(sys.modules.items()):
        if name.startswith("permkernel") and vars(module).get("principal_submatrix") is original:
            monkeypatch.setattr(module, "principal_submatrix", forbidden)

    rng = np.random.default_rng(1402)
    g = rng.uniform(0.1, 1.0, (10, 10)) + np.diag(rng.uniform(3.0, 10.0, 10))
    pivots = reduce_scan(g, [0.1, 1.0, 10.0], TOL)
    assert [len(entry["breakpoints"]) for entry in pivots] == [84] * 10
    report = classify_kernel(g, gamma_grid=(1.0,), max_order=2, tol=TOL)
    assert report.sym3_subsets == tuple(count_symmetrizable_3subsets_loop(g, TOL))
