"""Independent brute-force oracles.

Everything here deliberately avoids the library's own code paths: cofactor
expansion for determinants, raw permutation sums for permanents (and
Ryser's formula where the dimension is too large for them), a
power-series recursion for the closed-form transform, and triple-by-triple
loops for symmetrizability and the conditioning scan, and one whole-array
pass per line for the Monte Carlo report. Slow and only usable for tiny
matrices, which is the point. Two routes are kept for bit-for-bit
comparison instead: the per-gamma route of the Vere-Jones check, which
calls the library's one-matrix functions gamma by gamma, and the per-call
b-permanent, which rebuilds per_b's index tables at every call and, unlike
per_b, leaves all-zero Held-Karp path rows unextended. The per-gamma route
reads condition (I) from one LU determinant per principal submatrix, so
its witness minor agrees only to rounding. A batched-LU route,
one determinant per subset size, is the reference for the principal-minor
table, full or capped at any size (to a Hadamard-scaled tolerance), and
for the verdicts of effectively_equivalent; the library itself takes an LU
determinant only for a minor its table cannot trust.
"""

import itertools
import math

import numpy as np

from permkernel import (
    DEFAULT_TOL,
    DimensionTooLarge,
    SingularMatrix,
    find_positivity_signature,
    is_b_positive_definite,
    resolvent,
)
from permkernel.matcore import as_matrix
from permkernel.permanent import MAX_PERMANENT_DIM, GammaScan, VJReport


def det_cofactor(a) -> float:
    """Determinant by first-row cofactor expansion."""
    rows = [list(map(float, row)) for row in np.asarray(a, dtype=float)]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        if rows[0][j] == 0.0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += ((-1.0) ** j) * rows[0][j] * det_cofactor(minor)
    return total


def permanent_bruteforce(a) -> float:
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(m)):
        p = 1.0
        for i in range(m):
            p *= a[i, perm[i]]
        total += p
    return total


def cycle_count(perm) -> int:
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def per_b_bruteforce(a, b: float) -> float:
    """Raw permutation sum of b^(cycle count) times entry products."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(m)):
        p = 1.0
        for i in range(m):
            p *= a[i, perm[i]]
        total += (b ** cycle_count(perm)) * p
    return total


def positivity_scan_bruteforce(a, b: float, max_order: int, zero_tol: float = 1e-9):
    """Multiset-by-multiset b-positivity scan on the permutation-sum oracle.

    Returns (passed, witness, value) with the first nondecreasing 1-based
    selection, by size and then in combinations_with_replacement order,
    whose per_b falls below -zero_tol * max(1, max|A|)^m.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    amax = max(1.0, float(np.abs(a).max()))
    for m in range(1, max_order + 1):
        for sel in itertools.combinations_with_replacement(range(1, n + 1), m):
            z = [k - 1 for k in sel]
            value = per_b_bruteforce(a[np.ix_(z, z)], b)
            if value < -zero_tol * amax**m:
                return False, sel, value
    return True, None, None


def eigenvalue_condition_i(g, tol=DEFAULT_TOL) -> bool:
    """The eigenvalue rule: every real eigenvalue of G is at least
    -tol.threshold(G), an eigenvalue counting as real when its imaginary
    part is at most that threshold too. P0 implies it, not conversely."""
    g = np.asarray(g, dtype=float)
    thr = tol.zero_tol * max(1.0, float(np.abs(g).max()))
    return all(ev.real >= -thr for ev in np.linalg.eigvals(g) if abs(ev.imag) <= thr)


def p0_witness_by_det(g, max_order: int, tol=DEFAULT_TOL):
    """Condition (I) of `vere_jones_check`, one principal submatrix at a
    time: np.linalg.det of each, by size and then in combinations order,
    over every size up to n = 16 and the sizes up to max_order above it.
    Returns (1-based subset, minor) of the first minor below
    -zero_tol * max(1, max|G|)^size, or None. A minor decides when it and
    that threshold are finite doubles; a size with no deciding failure but
    a negative or NaN minor that cannot decide raises OverflowError."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    s = max(1.0, float(np.abs(g).max()))
    for size in range(1, (n if n <= 16 else min(n, max_order)) + 1):
        try:
            bound = tol.zero_tol * s**size
        except OverflowError:
            bound = math.inf
        undecided = False
        for subset in itertools.combinations(range(n), size):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                minor = float(np.linalg.det(g[np.ix_(subset, subset)]))
            if not (math.isfinite(minor) and math.isfinite(bound)):
                undecided = undecided or not minor >= 0.0
            elif minor < -bound:
                return tuple(i + 1 for i in subset), minor
        if undecided:
            raise OverflowError(f"a minor or threshold of order {size} is not a finite double")
    return None


def vere_jones_per_gamma(g, b: float, grid, max_order: int, tol=DEFAULT_TOL):
    """`vere_jones_check` one gamma at a time: a resolvent, then the
    signature certificate, then the scan of that gamma's tilted kernel
    alone, with condition (I) from p0_witness_by_det. Returns the same
    VJReport, up to the rounding of the witness minor."""
    g = np.asarray(g, dtype=float)
    scans = []
    for gamma in grid:
        try:
            tilted = resolvent(g, gamma, tol)
        except SingularMatrix:
            scans.append(GammaScan(gamma, "skipped", note="resolvent pole"))
            continue
        if find_positivity_signature(tilted, tol) is not None:
            scans.append(GammaScan(gamma, "pass", signature_certificate=True))
            continue
        result = is_b_positive_definite(tilted, b, max_order, tol)
        if result.passed:
            scans.append(GammaScan(gamma, "pass"))
        else:
            scans.append(GammaScan(gamma, "fail", witness=result.witness, value=result.value))
    witness = p0_witness_by_det(g, max_order, tol)
    if witness is not None or any(scan.status == "fail" for scan in scans):
        overall = "fail"
    elif all(scan.status == "pass" and scan.signature_certificate for scan in scans):
        overall = "pass"
    else:
        overall = "inconclusive"
    return VJReport(b, max_order, witness is None, witness, tuple(scans), overall)


def _subset_tables(m: int):
    """Bit table (row T holds the bits of mask T), popcount and lowest set
    bit of every mask over m indices."""
    masks = np.arange(1 << m)
    bits = np.zeros((1 << m, m), dtype=np.uint8)
    for i in range(m):
        bits[:, i] = (masks >> i) & 1
    return bits, bits.sum(axis=1, dtype=np.intp), np.argmax(bits, axis=1)


def _cycle_weights(a: np.ndarray, bits, pop, low) -> np.ndarray:
    """Held-Karp cycle weights C[T] of every index set T (a bitmask), with
    the all-zero path rows left unextended."""
    m = a.shape[0]
    path = np.zeros((1 << m, m))
    path[1 << np.arange(m), np.arange(m)] = 1.0
    weight = np.zeros(1 << m)
    for k in range(1, m + 1):
        rows = np.flatnonzero(pop == k)
        rows = rows[path[rows].any(axis=1)]
        ext = path[rows] @ a
        weight[rows] = ext[np.arange(len(rows)), low[rows]]
        r, e = np.nonzero((bits[rows] == 0) & (np.arange(m) > low[rows, None]))
        path[rows[r] | (1 << e), e] = ext[r, e]
    return weight


def cycle_weights_per_call(a) -> np.ndarray:
    """The Held-Karp cycle weights of per_b_per_call, with the tables
    rebuilt and the all-zero path rows left unextended."""
    a = as_matrix(a)
    return _cycle_weights(a, *_subset_tables(a.shape[0]))


def per_b_per_call(a, b: float) -> float:
    """`per_b` with its index tables rebuilt at every call: the Held-Karp
    cycle weights, then the "block that contains min(S)" set-partition
    recurrence, in the library's operation order. Returns the same float
    and raises the same errors."""
    a = as_matrix(a)
    m = a.shape[0]
    if m > MAX_PERMANENT_DIM:
        raise DimensionTooLarge(f"b-permanents are capped at m = {MAX_PERMANENT_DIM}")
    bits, pop, low = _subset_tables(m)
    full = (1 << m) - 1
    f = np.zeros(1 << m)
    f[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        weight = b * _cycle_weights(a, bits, pop, low)
        for k in range(1, m + 1):
            s = np.flatnonzero(pop == k)
            s = s[((s & 1) == 0) | (s == full)]
            head = 1 << low[s]
            rest = s ^ head
            pos = np.nonzero(bits[rest])[1].reshape(len(s), k - 1)
            sub = (1 << pos) @ bits[: 1 << (k - 1), : k - 1].T
            f[s] = (weight[sub | head[:, None]] * f[rest[:, None] ^ sub]).sum(axis=1)
    if not np.isfinite(f[full]):
        raise OverflowError(f"per_b of this {m}x{m} matrix is not finite in double precision")
    return float(f[full])


def permanent_ryser(a) -> tuple:
    """Permanent by Ryser's inclusion-exclusion formula, vectorised over the
    column subsets, and the sum of the magnitudes of its terms."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    bits = ((np.arange(1, 1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    terms = np.prod(bits @ a.T, axis=1) * (-1.0) ** (m - bits.sum(axis=1))
    return float(terms.sum()), float(np.abs(terms).sum())


def principal_minors_cofactor(a) -> dict:
    """All principal minors (1-based subsets) via the cofactor oracle."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    out = {}
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(n), m):
            sub = a[np.ix_(subset, subset)]
            out[tuple(i + 1 for i in subset)] = det_cofactor(sub)
    return out


def minor_table_lu(a) -> np.ndarray:
    """Every principal minor of `a`, indexed by bitmask (entry T is the
    minor on the set bits of T, entry 0 is 1), from one batched LU
    determinant per subset size: the reference for matcore._minor_table."""
    a = as_matrix(a)
    n = a.shape[0]
    table = np.ones(1 << n)
    for m in range(1, n + 1):
        z = np.array(list(itertools.combinations(range(n), m)))
        with np.errstate(divide="ignore", invalid="ignore"):
            table[(1 << z).sum(axis=1)] = np.linalg.det(a[z[:, :, None], z[:, None, :]])
    return table


def effectively_equivalent_by_size(a, b, tol=DEFAULT_TOL) -> bool:
    """effectively_equivalent from minor_table_lu of each matrix, size by
    size, stopping at the first size with an unequal minor."""
    a, b = as_matrix(a), as_matrix(b)
    ta, tb = minor_table_lu(a), minor_table_lu(b)
    sizes = np.array([bin(mask).count("1") for mask in range(len(ta))])
    for m in range(1, a.shape[0] + 1):
        ma, mb = ta[sizes == m], tb[sizes == m]
        floor = tol.threshold((a, b), m)
        bound = np.maximum(tol.rel_tol * np.maximum(np.abs(ma), np.abs(mb)), floor)
        if not np.all(np.abs(ma - mb) <= bound):
            return False
    return True


def transform_series_2x2(g, b: float, order: int) -> list:
    """Taylor coefficients of det(I - z G)^(-b) for a 2x2 matrix.

    With q(z) = 1 - t z + d z^2 (t the trace, d the determinant), the
    coefficients of q^(-b) obey
        m g_m = t (m - 1 + b) g_{m-1} - d (m - 2 + 2 b) g_{m-2},
    which follows from q g' = -b q' g.
    """
    g = np.asarray(g, dtype=float)
    t = g[0, 0] + g[1, 1]
    d = det_cofactor(g)
    coeffs = [1.0]
    for m in range(1, order + 1):
        prev1 = coeffs[m - 1]
        prev2 = coeffs[m - 2] if m >= 2 else 0.0
        coeffs.append((t * (m - 1 + b) * prev1 - d * (m - 2 + 2 * b) * prev2) / m)
    return coeffs


def is_symmetrizable_3x3_loop(k, tol) -> bool:
    """The 3x3 symmetrizability rules, one entry at a time.

    Zero threshold tol.zero_tol * max(1, max|K|); a zero off-diagonal entry
    decides True; then a nonnegative diagonal, K_ij K_ji >= 0, a
    nonnegative forward 3-cycle and equal cycle magnitudes within
    tol.rel_tol.
    """
    k = np.asarray(k, dtype=float)
    thr = tol.zero_tol * max(1.0, float(np.abs(k).max()))
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    if any(abs(k[i, j]) <= thr for i, j in off):
        return True
    if any(k[i, i] < -thr for i in range(3)):
        return False
    if any(k[i, j] * k[j, i] < 0.0 for i, j in off):
        return False
    if k[0, 1] * k[1, 2] * k[2, 0] < 0.0:
        return False
    lhs = abs(k[0, 1] * k[1, 2] * k[2, 0])
    rhs = abs(k[1, 0] * k[0, 2] * k[2, 1])
    return abs(lhs - rhs) <= tol.rel_tol * max(lhs, rhs)


def count_symmetrizable_3subsets_loop(g, tol) -> list:
    """1-based 3-subsets with a symmetrizable principal submatrix, in
    combinations order."""
    g = np.asarray(g, dtype=float)
    return [
        tuple(i + 1 for i in triple)
        for triple in itertools.combinations(range(g.shape[0]), 3)
        if is_symmetrizable_3x3_loop(g[np.ix_(triple, triple)], tol)
    ]


def breakpoints_scalar(gamma, triple, pivot_diag: float, tol) -> tuple:
    """(values, degenerate) of the shifted 3-cycle identity over a 0-based
    triple, solved as a scalar quadratic and filtered to (0, 1/pivot_diag)."""
    i, j, k = triple
    x, y, z = gamma[i, j], gamma[j, k], gamma[k, i]
    u, v, w = gamma[j, i], gamma[i, k], gamma[k, j]
    a2 = (x + y + z) - (u + v + w)
    a1 = -((x * y + y * z + z * x) - (u * v + v * w + w * u))
    a0 = x * y * z - u * v * w
    s = max(1.0, float(np.abs(gamma[np.ix_(triple, triple)]).max()))
    zt = tol.zero_tol
    if abs(a2) <= zt * s and abs(a1) <= zt * s**2 and abs(a0) <= zt * s**3:
        return (), True
    hi = 1.0 / pivot_diag
    roots = []
    if abs(a2) > zt * s:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0:
            r = math.sqrt(disc)
            roots = [(-a1 - r) / (2.0 * a2), (-a1 + r) / (2.0 * a2)]
    elif abs(a1) > zt * s**2:
        roots = [-a0 / a1]
    selected = []
    for r in sorted(float(r) for r in roots):
        if 0.0 < r < hi and all(abs(r - prev) > zt * max(1.0, hi) for prev in selected):
            selected.append(r)
    return tuple(selected), False


def reduce_scan_loop(g, sigma_grid, tol) -> list:
    """The reduce-scan report built pivot by pivot and triple by triple:
    ratio matrix, scalar breakpoint solve, conditioned kernel and the
    looped count, with the same notes and errors. A nonpositive diagonal
    at a usable pivot is reported before a non-finite or overflowed sigma."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    scale = max(1.0, float(np.abs(g).max()))
    thr = tol.zero_tol * scale
    usable = [
        not (np.any(np.abs(g[:, p]) <= thr) or np.any(np.abs(g[p, :]) <= thr)) for p in range(n)
    ]
    if any(ok and g[p, p] <= 0.0 for p, ok in enumerate(usable)):
        raise ValueError("pivot_diag must be strictly positive")
    if not all(np.isfinite(sigma) for sigma in sigma_grid):
        raise ValueError("sigma values must be finite")
    pivots = []
    for p in range(n):
        label = p + 1
        if not usable[p]:
            note = f"pivot row/column {label} has a zero entry"
            pivots.append({"pivot": label, "note": note, "breakpoints": [], "scan": []})
            continue
        gamma = g / np.outer(g[:, p], g[p, :])
        rest = [i for i in range(n) if i != p]
        breakpoints = []
        for triple in itertools.combinations(rest, 3):
            values, degenerate = breakpoints_scalar(gamma, triple, g[p, p], tol)
            breakpoints.append(
                {
                    "triple": [i + 1 for i in triple],
                    "values": list(values),
                    "degenerate": degenerate,
                }
            )
        scan = []
        for sigma in sigma_grid:
            with np.errstate(over="ignore", invalid="ignore"):
                term, bound = sigma * g[p, p], abs(sigma) * scale
            if not (np.isfinite(term) and np.isfinite(bound)):
                raise OverflowError(
                    f"sigma*G({label},{label}) or |sigma|*max|G| overflows at sigma = {sigma}"
                )
            denom = 1.0 + term
            if abs(denom) <= tol.zero_tol * max(1.0, bound):
                note = f"1 + sigma*G({label},{label}) vanishes at sigma = {sigma}"
                scan.append({"sigma": sigma, "status": "pole", "note": note})
                continue
            conditioned = g[np.ix_(rest, rest)] - sigma / denom * np.outer(g[rest, p], g[p, rest])
            sym3 = count_symmetrizable_3subsets_loop(conditioned, tol)
            scan.append(
                {"sigma": sigma, "status": "ok", "symmetrizable_3subsets": [list(t) for t in sym3]}
            )
        pivots.append({"pivot": label, "breakpoints": breakpoints, "scan": scan})
    return pivots


def chi2_moment_bound(count: int) -> float:
    # 3 sigma for the mean of chi-square(1): variance 2
    return 3.0 * math.sqrt(2.0 / count)


def squared_gaussian_draws(g, count: int, seed: int, shard_size: int) -> np.ndarray:
    """The (count, n) squared-Gaussian draws with covariance G, each shard
    in one draw: shard i holds the rows from i * shard_size, drawn from
    default_rng(seed + i). G must already be a valid covariance."""
    g = np.asarray(g, dtype=float)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (g + g.T))
    root = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
    draws = np.empty((count, g.shape[0]))
    for start in range(0, count, shard_size):
        rows = draws[start : start + shard_size]
        z = np.random.default_rng(seed + start // shard_size).standard_normal(rows.shape)
        eta = z @ root.T
        rows[:] = eta * eta
    return draws


def laplace_report_batch(g, count: int, seed: int, shard_size: int) -> tuple:
    """`mcverify.laplace_report` from one (count, n) array of draws, reduced
    line by line with full-array means, standard deviations and np.cov.
    Shard i of the draws holds the rows from i * shard_size, drawn from
    default_rng(seed + i). G must already be a valid covariance."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    draws = squared_gaussian_draws(g, count, seed, shard_size)

    def closed_form(kernel, alphas):
        return float(np.linalg.det(np.eye(len(alphas)) + np.asarray(alphas)[:, None] * kernel)) ** -0.5

    def line(estimate, se, closed, **fields):
        gap = abs(estimate - closed)
        return {
            **fields,
            "empirical": estimate,
            "std_error": se,
            "closed_form": closed,
            "within_3se": bool(gap <= 3.0 * se or gap == 0.0),
        }

    lines = []
    for base in ((0.25, 0.25, 0.25), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.2, 0.4, 0.8)):
        alphas = [base[i % len(base)] for i in range(n)]
        values = np.exp(-0.5 * draws @ np.array(alphas))
        se = float(values.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        lines.append(line(float(values.mean()), se, closed_form(g, alphas), alphas=alphas))
    if n < 2:
        return lines, None
    sigma, alphas = 1.0, [0.5] * (n - 1)
    numer = np.exp(-0.5 * (draws[:, :-1] @ np.array(alphas) + sigma * draws[:, -1]))
    denom = np.exp(-0.5 * sigma * draws[:, -1])
    ratio = float(numer.mean()) / float(denom.mean())
    se = 0.0
    if count > 1:
        cov = np.cov(numer, denom, ddof=1)
        var = (cov[0, 0] - 2.0 * ratio * cov[0, 1] + ratio * ratio * cov[1, 1]) / (
            float(denom.mean()) ** 2 * count
        )
        se = math.sqrt(max(var, 0.0))
    kernel = g[:-1, :-1] - sigma / (1.0 + sigma * g[-1, -1]) * np.outer(g[:-1, -1], g[-1, :-1])
    return lines, line(ratio, se, closed_form(kernel, alphas), sigma=sigma, alphas=alphas)
