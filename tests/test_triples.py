"""The batched 3-cycle kernel against the triple-by-triple oracles.

`count_symmetrizable_3subsets`, `classify_kernel(...).sym3_subsets`,
`symmetrizability_breakpoints` and the `reduce_scan` report must equal the
loops in `oracles.py` exactly, on signed input and on the edge cases of
their rules: entries exactly at the zero threshold, negative diagonals,
3-cycles that tie within rel_tol, double roots, poles, sigma <= 0 and a
sigma whose product with G overflows.
"""

import collections
import json
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (
    breakpoints_scalar,
    count_symmetrizable_3subsets_loop,
    reduce_scan_loop,
)
from permkernel import (
    PoleAtSigma,
    Tolerance,
    classify_kernel,
    conditioning_kernel,
    count_symmetrizable_3subsets,
    is_b_positive_definite,
    ratio_matrix,
    reduce_scan,
    symmetrizability_breakpoints,
    vere_jones_check,
)
from permkernel import classify, cli, gallery, matcore, reductions

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


def rescaled(rng, n):
    """Signed or positive-diagonal entries scaled by 1e-6, 1e6 or 1e10; at
    1e10 the grid's sigma = 1e300 overflows against G."""
    g = signed(rng, n) if rng.random() < 0.3 else positive_diagonal(rng, n)
    return g * 10.0 ** rng.choice([-6, 6, 10])


FAMILIES = (signed, positive_diagonal, at_threshold, near_tie, double_root, rescaled)


def leaf_types(doc) -> set:
    """The exact types of the keys and leaves of nested dicts and lists
    (numpy scalars are not float, int or bool here)."""
    if isinstance(doc, dict):
        return {type(key) for key in doc} | leaf_types(list(doc.values()))
    if isinstance(doc, list):
        return set().union(*map(leaf_types, doc))
    return {type(doc)}


def outcome(fn):
    try:
        return json.dumps(fn(), sort_keys=True)
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def sigma_grid(g):
    # includes sigma = 0, negative sigmas, a pole of the first usable pivot
    # and a sigma whose product with a large G overflows
    return [0.1, 1.0, 0.0, -0.25, -1.0 / g[0, 0] if g[0, 0] else 5.0, 1e300]


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
            if n == 4 and trial == 0:
                for bad in ([0.1, np.nan], [np.inf]):
                    assert outcome(lambda: reduce_scan(g, bad, TOL)) == outcome(
                        lambda: reduce_scan_loop(g, bad, TOL)
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
        assert leaf_types([*got.values, got.degenerate]) <= {float, bool}
        hits["degenerate"] += degenerate
        hits["two"] += len(values) == 2
        hits["double"] += bool(trial % 2) and len(values) == 1
    assert all(count > 0 for count in hits.values()), hits


def test_reduce_scan_sparse_values_match_the_loop():
    # two roots, a double root, no root and degenerate triples at n = 9 and
    # 10, and only builtin leaves, which json.dumps writes without a circular check
    rng = np.random.default_rng(1407)
    kinds = collections.Counter()
    for n in (9, 10):
        for same in (False, True):
            g = double_root(rng, n)
            if same:
                g[1, 0] = g[0, 1]  # a = c: triple (1, 2, 3) of pivot n is degenerate
            grid = [float(sigma) for sigma in sigma_grid(g)]  # the report echoes each sigma
            pivots = reduce_scan(g, grid, TOL)
            assert pivots == reduce_scan_loop(g, grid, TOL)
            assert leaf_types(pivots) <= {int, float, bool, str}
            double = {"triple": [1, 2, 3], "values": [] if same else [g[1, 2]], "degenerate": same}
            assert pivots[-1]["breakpoints"][0] == double
            for entry in pivots:
                for bp in entry["breakpoints"]:
                    kinds["degenerate" if bp["degenerate"] else len(bp["values"])] += 1
    assert set(kinds) == {0, 1, 2, "degenerate"}, kinds


def test_reports_hold_only_builtins_for_numpy_arguments():
    # numpy-typed b, max_order and sigmas are coerced where they enter, so
    # every report is plain JSON
    g = gallery.blockwise_inverse_m()
    grid = np.array([0.5, 1.0], dtype=np.float32)
    pivots = reduce_scan(g, grid, TOL)
    assert pivots == reduce_scan(g, grid.tolist(), TOL)
    assert leaf_types(pivots) <= {int, float, bool, str}
    builtins = {int, float, bool, str, type(None)}
    for report in (
        vere_jones_check(g, np.float32(0.5), max_order=np.int64(3)),
        classify_kernel(g, b=np.float32(0.5), max_order=np.int64(2)),
    ):
        doc = report.to_dict()
        assert leaf_types(doc) <= builtins
        json.dumps(doc)
    # a non-integral order is refused, also when every gamma is certified
    # and no scan runs
    for kernel in (gallery.one_symmetrizable_triple(), g):
        with pytest.raises(ValueError, match="max_order must be an integer"):
            vere_jones_check(kernel, 0.5, max_order=2.5)
    # the one-matrix scan reads b and max_order as vere_jones_check does;
    # b = -1 fails at order 1, so the witness and value are set
    for b in (np.float32(0.5), np.float32(-1.0)):
        scan = is_b_positive_definite(g, b, max_order=np.int64(3))
        assert scan.max_order == 3 and scan.passed == (b > 0)
        assert leaf_types([scan.passed, scan.max_order, *(scan.witness or ()), scan.value]) <= builtins
    with pytest.raises(ValueError, match="max_order must be an integer"):
        is_b_positive_definite(g, 0.5, max_order=2.5)


def forbid_everywhere(patch, module, name, replacement):
    """Replace `name` at every permkernel binding of `module`'s object."""
    original = getattr(module, name)
    for holder_name, holder in list(sys.modules.items()):
        if holder_name.startswith("permkernel") and vars(holder).get(name) is original:
            patch.setattr(holder, name, replacement)


def test_scan_uses_the_batched_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the per-triple route must not run")

    monkeypatch.setattr(classify, "is_symmetrizable_3x3", forbidden)
    monkeypatch.setattr(reductions, "symmetrizability_breakpoints", forbidden)
    forbid_everywhere(monkeypatch, matcore, "principal_submatrix", forbidden)

    rng = np.random.default_rng(1402)
    g = rng.uniform(0.1, 1.0, (10, 10)) + np.diag(rng.uniform(3.0, 10.0, 10))
    with monkeypatch.context() as scan_only:
        # one stack over every pivot and sigma, never the per-pair route
        forbid_everywhere(scan_only, reductions, "conditioning_kernel", forbidden)
        forbid_everywhere(scan_only, reductions, "ratio_matrix", forbidden)
        forbid_everywhere(scan_only, classify, "count_symmetrizable_3subsets", forbidden)
        pivots = reduce_scan(g, [0.1, 1.0, 10.0], TOL)
    assert [len(entry["breakpoints"]) for entry in pivots] == [84] * 10
    report = classify_kernel(g, gamma_grid=(1.0,), max_order=2, tol=TOL)
    assert report.sym3_subsets == tuple(count_symmetrizable_3subsets_loop(g, TOL))


def test_conditioning_kernel_is_a_slice_of_the_stack():
    rng = np.random.default_rng(1403)
    poles = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        g = signed(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0)
        k = int(rng.integers(1, n + 1))
        p = k - 1
        if rng.random() < 0.1:
            sigma = -1.0 / g[p, p]
        else:
            sigma = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        sigmas = [0.5, sigma, -2.0]
        pole, pairs, coefs = reductions._poles(g, np.arange(n), sigmas, TOL)
        _, sub, outer = reductions._pivot_blocks(g, np.arange(n))
        kernels = reductions._conditioning_kernels(sub[pairs], outer[pairs], coefs)
        if pole[p, 1]:
            poles += 1
            with pytest.raises(PoleAtSigma):
                conditioning_kernel(g, sigma, k, TOL)
            continue
        # kernels holds the non-pole pairs, pivot-major
        index = np.count_nonzero(~pole.ravel()[: p * len(sigmas) + 1])
        got = conditioning_kernel(g, sigma, k, TOL)
        np.testing.assert_array_equal(got, kernels[index])
        rest = [i for i in range(n) if i != p]
        coef = sigma / (1.0 + sigma * g[p, p])
        expected = g[np.ix_(rest, rest)] - coef * np.outer(g[rest, p], g[p, rest])
        np.testing.assert_array_equal(got, expected)
    assert poles > 0


def test_reduce_scan_stacks_stay_bounded():
    # 16 pivots x 100 sigmas x 455 triples: as one stack about 160 MiB
    rng = np.random.default_rng(1404)
    sym = rng.uniform(-1.0, 1.0, (16, 16))
    sym = sym + sym.T
    np.fill_diagonal(sym, rng.uniform(3.0, 10.0, 16))
    d = rng.uniform(0.5, 2.0, 16)
    g = sym * np.outer(d, 1.0 / d)
    # break some triples, so that the subsets differ from pair to pair
    g[0, 1:4] *= 1.5
    g[5, 7] *= 0.7
    g[9, 2] *= 1.3
    grid = np.linspace(0.05, 5.0, 100).tolist()
    tracemalloc.start()
    try:
        pivots = reduce_scan(g, grid, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20  # 33.3 MiB, nearly all of it the report
    # pairs on both sides of the first, a middle and the last edge between
    # stacks of _TRIPLE_CHUNK // 455 kernels (2); pair q is pivot q // 100 + 1
    width = reductions._TRIPLE_CHUNK // 455
    middle = 800 // width * width
    for q in (0, width - 1, width, middle - 1, middle, 1600 - width - 1, 1600 - width, 1599):
        k, j = q // 100 + 1, q % 100
        expected = count_symmetrizable_3subsets(conditioning_kernel(g, grid[j], k, TOL), TOL)
        assert pivots[k - 1]["scan"][j]["symmetrizable_3subsets"] == [list(t) for t in expected]


def test_reduce_scan_stack_edge_inside_a_sigma_row(monkeypatch):
    # n = 10 on the CLI's default grid: stacks of _TRIPLE_CHUNK // C(9, 3) = 12
    # pairs, so the first edge falls between sigma 2 and 3 of pivot 3
    stacks = []

    def spy(kernels, tol):
        stacks.append(len(kernels))
        return classify._symmetrizable(kernels, tol)

    monkeypatch.setattr(reductions, "_symmetrizable", spy)
    grid = list(cli.build_parser().parse_args(["reduce-scan", "--input", "g.json"]).sigma_grid)
    width = reductions._TRIPLE_CHUNK // 84
    assert width % len(grid)
    p, j = divmod(width - 1, len(grid))  # the last pair before the edge, 0-based
    rng = np.random.default_rng(1406)
    g = rng.uniform(0.1, 1.0, (10, 10)) + np.diag(rng.uniform(3.0, 10.0, 10))
    # its kernel has a zero entry (1, 2), so the triples through 1 and 2 are
    # symmetrizable there and not at the next sigma
    g[0, 1] = grid[j] / (1.0 + grid[j] * g[p, p]) * (g[0, p] * g[p, 1])
    pivots = reduce_scan(g, grid, TOL)
    assert pivots == reduce_scan_loop(g, grid, TOL)
    assert stacks == [width] * (50 // width) + [50 % width]
    scan = pivots[p]["scan"]
    assert [1, 2, 3] in scan[j]["symmetrizable_3subsets"]
    assert [1, 2, 3] not in scan[j + 1]["symmetrizable_3subsets"]


def test_reduce_scan_breakpoints_across_pivot_stacks():
    # a stack takes _TRIPLE_CHUNK // C(n-1, 3) pivots, at least one: 3 at
    # n = 14, so 13 and 14 form the last stack, and 1 at n = 27
    rng = np.random.default_rng(1405)
    for n, width, picks, step in [(14, 3, (1, 3, 4, 13, 14), 7), (27, 1, (1, 2, 26, 27), 97)]:
        assert max(1, reductions._TRIPLE_CHUNK // len(classify.triple_table(n - 1)[0])) == width
        g = rng.uniform(-2.0, 2.0, (n, n))
        np.fill_diagonal(g, rng.uniform(0.2, 3.0, n))
        pivots = reduce_scan(g, [0.5], TOL)
        for k in picks:
            gamma = ratio_matrix(g, k, TOL)
            for entry in pivots[k - 1]["breakpoints"][::step]:
                found = symmetrizability_breakpoints(gamma, entry["triple"], g[k - 1, k - 1], TOL)
                assert list(found.values) == entry["values"]
                assert found.degenerate == entry["degenerate"]
