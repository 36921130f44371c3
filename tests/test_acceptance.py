"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test gathers its failures, prints a [PASS]/[FAIL] line, then asserts.
Criteria 1, 2, 3 and 7 run the reference checks of gallery.REFERENCE_GROUPS,
the same rows that `reproduce-paper` reports, and add what the table lacks.
Expected values marked as frozen were computed with the brute-force oracles
in oracles.py before the implementation existed.
"""

import itertools
import time

import numpy as np

from permkernel import (
    Tolerance,
    classify_kernel,
    closed_form_laplace,
    conditioning_kernel,
    diagonal_conjugate,
    effectively_equivalent,
    empirical_laplace,
    is_b_positive_definite,
    is_diag_equiv_inverse_m,
    is_inverse_m_matrix,
    is_symmetrizable_3x3,
    johnson_smith_inverse_m,
    per_b,
    principal_submatrix,
    ratio_matrix,
    resolvent,
    sample_squared_gaussian,
    signature_conjugate,
    symmetrizability_breakpoints,
    verify_conditioning,
)
from permkernel.gallery import REFERENCE_GROUPS, tripletwise_divisible_covariance

from oracles import det_cofactor, per_b_bruteforce, permanent_bruteforce

TOL = Tolerance()  # zero_tol = rel_tol = 1e-9
GAMMA_8 = tuple(float(g) for g in np.logspace(-2.0, 2.0, 8))


def report(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number} failures: {failures[:5]}"


def reference_failures(row: int, seed: int = 0) -> list:
    """Failed checks of row `row` (1-based) of REFERENCE_GROUPS."""
    group, check = REFERENCE_GROUPS[row - 1]
    return [f"{group}: {c['name']} {c['detail']}" for c in check(seed, 0, TOL) if not c["passed"]]


def random_m_matrix(rng, n):
    """Random nonsingular M-matrix: s I - B with B >= 0 and s above the
    Perron root."""
    b = rng.uniform(0.0, 1.0, (n, n))
    radius = max(abs(np.linalg.eigvals(b)))
    s = radius * (1.0 + rng.uniform(0.1, 1.0))
    return s * np.eye(n) - b


def random_stieltjes_inverse(rng, n):
    """Random symmetric PSD matrix that is provably a valid kernel at every
    exponent: the inverse of a symmetric M-matrix."""
    b = rng.uniform(0.0, 1.0, (n, n))
    b = 0.5 * (b + b.T)
    radius = max(abs(np.linalg.eigvals(b)))
    s = radius * (1.0 + rng.uniform(0.1, 1.0))
    return np.linalg.inv(s * np.eye(n) - b)


def test_criterion_1_blockwise_counterexample():
    report(1, "blockwise inverse-M counterexample", reference_failures(1))


def test_criterion_2_tripletwise_divisible_covariance():
    failures = reference_failures(4)
    b = tripletwise_divisible_covariance()
    for triple in itertools.combinations(range(1, 5), 3):
        block = principal_submatrix(b, triple)
        signature = is_diag_equiv_inverse_m(block, TOL)
        if signature is not None and not is_inverse_m_matrix(
            signature_conjugate(block, signature), TOL
        ):
            failures.append(f"block {triple} signature does not normalise")
    report(2, "tripletwise-divisible covariance", failures)


def test_criterion_3_parametric_families():
    failures = reference_failures(2) + reference_failures(3)
    report(3, "parametric families at shipped defaults", failures)


def test_criterion_4_permanent_identities():
    failures = []
    rng = np.random.default_rng(104)
    for trial in range(200):
        m = int(rng.integers(1, 7))
        a = rng.standard_normal((m, m))
        bound = per_b_bruteforce(np.abs(a), 1.0)  # sum of |terms|
        budget = 1e-10 * max(1.0, bound)
        if abs(per_b(a, 1.0) - permanent_bruteforce(a)) > budget:
            failures.append(f"trial {trial}: permanent mismatch")
        if abs(per_b(a, -1.0) - (-1.0) ** m * det_cofactor(a)) > budget:
            failures.append(f"trial {trial}: determinant mismatch")
    for n in range(1, 9):
        for b in (0.25, 0.5, 1.0, 2.0):
            if per_b(np.eye(n), b) != b**n:
                failures.append(f"identity({n}) at b={b} not exact")
    report(4, "cycle-weighted permanent identities (200 matrices)", failures)


def test_criterion_5_positivity_sanity():
    failures = []
    rng = np.random.default_rng(105)
    exponents = (0.25, 0.5, 1.0)

    # symmetric PSD kernels that are valid at every exponent (inverses of
    # symmetric M-matrices; generic PSD matrices genuinely violate
    # positivity at b = 0.25, so they are scanned only at b in {0.5, 1})
    for trial in range(50):
        kernel = random_stieltjes_inverse(rng, 3)
        for gamma in GAMMA_8:
            tilted = resolvent(kernel, gamma, TOL)
            for b in exponents:
                scan = is_b_positive_definite(tilted, b, max_order=5, tol=TOL)
                if not scan.passed:
                    failures.append(
                        f"psd trial {trial}: b={b} gamma={gamma:.3g} "
                        f"witness {scan.witness}"
                    )
    for trial in range(50):
        x = rng.standard_normal((3, 5))
        kernel = x @ x.T
        for gamma in GAMMA_8:
            tilted = resolvent(kernel, gamma, TOL)
            for b in (0.5, 1.0):
                scan = is_b_positive_definite(tilted, b, max_order=5, tol=TOL)
                if not scan.passed:
                    failures.append(
                        f"wishart trial {trial}: b={b} gamma={gamma:.3g}"
                    )

    # entrywise-positive inverse M-matrices stay clean at all exponents
    for trial in range(50):
        kernel = np.linalg.inv(random_m_matrix(rng, 4))
        if kernel.min() <= 0.0:
            kernel = np.abs(kernel) + 0.01  # should not happen; keep positive
        for gamma in GAMMA_8:
            tilted = resolvent(kernel, gamma, TOL)
            for b in exponents:
                scan = is_b_positive_definite(tilted, b, max_order=5, tol=TOL)
                if not scan.passed:
                    failures.append(
                        f"inverse-M trial {trial}: b={b} gamma={gamma:.3g}"
                    )
    report(5, "positivity scans clean on valid kernels", failures)


def test_criterion_6_effective_equivalence_suite():
    failures = []
    rng = np.random.default_rng(106)
    for trial in range(100):
        g = rng.standard_normal((4, 4))
        if not effectively_equivalent(g, g.T, TOL):
            failures.append(f"trial {trial}: transpose not equivalent")
        d = rng.uniform(0.5, 2.0, 4)
        if not effectively_equivalent(g, diagonal_conjugate(g, d), TOL):
            failures.append(f"trial {trial}: diagonal conjugate not equivalent")
    for trial in range(50):
        g = rng.uniform(0.1, 2.0, (5, 5))
        sigma, alpha = rng.uniform(0.0, 2.0, 2)
        gap = np.abs(
            resolvent(resolvent(g, sigma), alpha) - resolvent(g, sigma + alpha)
        ).max()
        if gap > 1e-8:
            failures.append(f"trial {trial}: semigroup gap {gap:.2e}")
    route_tol = Tolerance(rel_tol=1e-8)
    for trial in range(50):
        g = rng.uniform(0.1, 2.0, (4, 4))
        for sigma in (0.1, 1.0, 10.0):
            tilted = resolvent(g, sigma)[:3, :3]
            reduced = resolvent(conditioning_kernel(g, sigma, 4), sigma)
            if not effectively_equivalent(tilted, reduced, route_tol):
                failures.append(f"trial {trial}: tilt/condition routes differ at sigma={sigma}")
    report(6, "effective equivalence and tilting consistency", failures)


def test_criterion_7_block_doubling():
    failures = reference_failures(5, seed=107)
    rng = np.random.default_rng(107)
    for trial in range(100):
        h = rng.uniform(0.05, 2.0, (4, 4))
        if johnson_smith_inverse_m(h, 2, TOL).verdict != is_inverse_m_matrix(h, TOL):
            failures.append(f"trial {trial}: blockwise and direct checks disagree")
    report(7, "block-doubled kernels and blockwise criterion", failures)


def test_criterion_8_monte_carlo_laplace():
    failures = []
    start = time.time()
    rng = np.random.default_rng(108)
    hits = 0
    total = 0
    kernels = []
    for _ in range(5):
        x = rng.standard_normal((3, 5))
        kernels.append(x @ x.T / 5.0)
    for index, g in enumerate(kernels):
        batch = sample_squared_gaussian(g, 200_000, seed=800 + index, tol=TOL)
        for point in range(4):
            alphas = rng.uniform(0.05, 1.5, 3)
            estimate = empirical_laplace(batch, alphas)
            closed = closed_form_laplace(g, alphas, 0.5)
            total += 1
            if abs(estimate.point_estimate - closed) <= 3.0 * estimate.std_error:
                hits += 1
        draws = sample_squared_gaussian(g, 200_000, seed=900 + index)
        check = verify_conditioning(draws, g, 1.0, (0.5, 0.5))
        if abs(check.lhs.point_estimate - check.rhs) > 3.0 * check.lhs.std_error:
            failures.append(f"kernel {index}: conditioning outside 3 SE")
    if hits < 19:
        failures.append(f"only {hits}/{total} transform points within 3 SE")
    elapsed = time.time() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(8, f"Monte Carlo transform ({hits}/{total} points, {elapsed:.1f}s)", failures)


def test_criterion_9_verdict_invariance():
    failures = []
    rng = np.random.default_rng(109)
    grid = (0.1, 1.0, 10.0, 100.0)
    for trial in range(50):
        g = rng.uniform(0.2, 2.0, (4, 4))
        signs = rng.choice([-1.0, 1.0], 4)
        d = rng.uniform(0.5, 2.0, 4)
        base = classify_kernel(g, b=0.5, gamma_grid=grid, max_order=3, tol=TOL)
        conjugated = classify_kernel(
            signature_conjugate(g, signs), b=0.5, gamma_grid=grid, max_order=3, tol=TOL
        )
        scaled = classify_kernel(
            diagonal_conjugate(g, d), b=0.5, gamma_grid=grid, max_order=3, tol=TOL
        )
        for name, other in (("signature", conjugated), ("scaling", scaled)):
            if other.sym3_subsets != base.sym3_subsets:
                failures.append(f"trial {trial}: sym3 changed under {name}")
            if other.theorem1 != base.theorem1:
                failures.append(f"trial {trial}: theorem1 changed under {name}")
            base_id = base.m_class in ("inverse-M", "diag-equiv-inverse-M")
            other_id = other.m_class in ("inverse-M", "diag-equiv-inverse-M")
            if base_id != other_id:
                failures.append(f"trial {trial}: m_class changed under {name}")
        if scaled.m_class != base.m_class:
            failures.append(f"trial {trial}: m_class not exactly scaling-invariant")
    report(9, "classification invariance under signatures and scalings", failures)


def test_criterion_10_breakpoint_scan():
    failures = []
    rng = np.random.default_rng(110)
    produced = 0
    while produced < 20:
        g = rng.uniform(0.1, 2.0, (4, 4))
        if any(
            is_symmetrizable_3x3(principal_submatrix(g, t), TOL)
            for t in itertools.combinations(range(1, 5), 3)
        ):
            continue  # need a fully nonsymmetrizable sample
        produced += 1
        for pivot in range(1, 5):
            rest = tuple(i for i in range(1, 5) if i != pivot)
            gamma = ratio_matrix(g, pivot, TOL)
            bp = symmetrizability_breakpoints(gamma, rest, g[pivot - 1, pivot - 1], TOL)
            if bp.degenerate or len(bp.values) > 3:
                failures.append(f"sample {produced} pivot {pivot}: {bp}")
                continue
            hi = 1.0 / g[pivot - 1, pivot - 1]
            rows = [i - 1 for i in rest]
            forbidden = list(bp.values) + [
                gamma[i, j]
                for i in rows
                for j in rows
                if i != j and 0.0 < gamma[i, j] < hi
            ]
            sigmas = []
            for c in np.linspace(0.05 * hi, 0.95 * hi, 400):
                if all(abs(c - f) > 0.01 * hi for f in forbidden):
                    sigmas.append(c / (1.0 - c * g[pivot - 1, pivot - 1]))
                if len(sigmas) == 10:
                    break
            if len(sigmas) < 10:
                failures.append(f"sample {produced} pivot {pivot}: grid exhausted")
                continue
            for sigma in sigmas:
                kernel = conditioning_kernel(g, sigma, pivot, TOL)
                if is_symmetrizable_3x3(kernel, TOL):
                    failures.append(
                        f"sample {produced} pivot {pivot}: symmetrizable at "
                        f"sigma={sigma:.4f}"
                    )
    report(10, "breakpoint scan on 20 nonsymmetrizable samples", failures)
