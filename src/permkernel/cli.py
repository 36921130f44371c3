"""Batch command-line interface.

Subcommands: classify, vere-jones, permanent, reduce-scan, mc-verify, and
reproduce-paper (replays the bundled reference examples and prints one
pass/fail line per check). Matrices are read from JSON or headerless CSV
files; reports go to stdout as text or a single JSON document.

Exit codes: 0 analysis completed (verdicts are data, not errors), 1 input,
parse or usage failure, 2 numerical failure (every grid point unusable, or
an overflow).
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys

import numpy as np

from . import gallery
from .classify import (
    classify_kernel,
    count_symmetrizable_3subsets,
    is_diag_equiv_inverse_m,
    is_diag_equiv_symmetric,
    is_inverse_m_matrix,
    is_symmetrizable_3x3,
)
from .errors import MatrixError, PoleAtSigma, SingularMatrix, ZeroPivotEntry
from .matcore import DEFAULT_TOL, Tolerance, inverse, principal_submatrix
from .matrixio import load_matrix
from .mcverify import (
    LTEstimate,
    closed_form_laplace,
    empirical_laplace,
    sample_squared_gaussian,
    verify_conditioning,
)
from .permanent import per_b, vere_jones_check
from .reductions import (
    block_double,
    conditioning_kernel,
    johnson_smith_inverse_m,
    ratio_matrix,
    schur_complement,
    symmetrizability_breakpoints,
)

# Monte Carlo draws are squared Gaussians, whose transform exponent is 1/2.
MC_B = 0.5
MC_ALPHA_POINTS = (
    (0.25, 0.25, 0.25),
    (1.0, 1.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.2, 0.4, 0.8),
)


def _cmd_classify(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    report = classify_kernel(
        g, b=args.b, gamma_grid=args.gamma_grid, max_order=args.max_order, tol=tol
    )
    return 0, {"command": "classify", "b": args.b, "report": report.to_dict()}


def _cmd_vere_jones(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    report = vere_jones_check(
        g, args.b, gamma_grid=args.gamma_grid, max_order=args.max_order, tol=tol
    )
    code = 0
    if all(scan.status == "skipped" for scan in report.gamma_scans):
        code = 2
    return code, {"command": "vere-jones", "b": args.b, "report": report.to_dict()}


def _cmd_permanent(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    return 0, {"command": "permanent", "b": args.b, "value": per_b(g, args.b)}


def _cmd_reduce_scan(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    n = g.shape[0]
    if n < 4:
        raise MatrixError("reduce-scan needs dimension at least 4")
    pivots = []
    usable_points = 0
    for pivot in range(1, n + 1):
        entry: dict = {"pivot": pivot}
        rest = [i for i in range(1, n + 1) if i != pivot]
        try:
            gamma_mat = ratio_matrix(g, pivot, tol)
        except ZeroPivotEntry as exc:
            entry["note"] = str(exc)
            entry["breakpoints"] = []
            entry["scan"] = []
            pivots.append(entry)
            continue
        breakpoints = []
        for triple in itertools.combinations(rest, 3):
            bp = symmetrizability_breakpoints(gamma_mat, triple, g[pivot - 1, pivot - 1], tol)
            breakpoints.append(
                {
                    "triple": list(triple),
                    "values": list(bp.values),
                    "degenerate": bp.degenerate,
                }
            )
        scan = []
        for sigma in args.sigma_grid:
            try:
                conditioned = conditioning_kernel(g, sigma, pivot, tol)
            except (PoleAtSigma, SingularMatrix) as exc:
                scan.append({"sigma": sigma, "status": "pole", "note": str(exc)})
                continue
            usable_points += 1
            sym3 = count_symmetrizable_3subsets(conditioned, tol)
            scan.append(
                {
                    "sigma": sigma,
                    "status": "ok",
                    "symmetrizable_3subsets": [list(t) for t in sym3],
                }
            )
        entry["breakpoints"] = breakpoints
        entry["scan"] = scan
        pivots.append(entry)
    code = 0 if usable_points else 2
    return code, {"command": "reduce-scan", "sigma_grid": list(args.sigma_grid), "pivots": pivots}


def _mc_line(estimate: LTEstimate, closed: float, **fields) -> dict:
    """One Monte Carlo report line: `fields`, the estimate, the closed form
    and whether the two agree within 3 standard errors."""
    gap = abs(estimate.point_estimate - closed)
    return {
        **fields,
        "empirical": estimate.point_estimate,
        "std_error": estimate.std_error,
        "closed_form": closed,
        "within_3se": bool(gap <= 3.0 * estimate.std_error or gap == 0.0),
    }


def _monte_carlo_lines(
    g: np.ndarray, count: int, seed: int, tol: Tolerance
) -> tuple[list[dict], dict | None]:
    """Empirical against closed-form transform at MC_ALPHA_POINTS (cycled to
    length n), and the conditioning identity at sigma = 1 with pivot n (None
    for n = 1). One batch of draws serves every line."""
    n = g.shape[0]
    batch = sample_squared_gaussian(g, count, seed, tol)
    lines = []
    for base in MC_ALPHA_POINTS:
        alphas = [base[i % len(base)] for i in range(n)]
        est = empirical_laplace(batch, alphas)
        lines.append(_mc_line(est, closed_form_laplace(g, alphas, MC_B), alphas=alphas))
    if n < 2:
        return lines, None
    alphas = [0.5] * (n - 1)
    check = verify_conditioning(batch, g, 1.0, alphas, tol)
    return lines, _mc_line(check.lhs, check.rhs, sigma=1.0, alphas=alphas)


def _cmd_mc_verify(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    lines, conditioning = _monte_carlo_lines(g, args.mc_count, args.seed, tol)
    return 0, {
        "command": "mc-verify",
        "b": MC_B,
        "seed": args.seed,
        "count": args.mc_count,
        "transform_lines": lines,
        "conditioning": conditioning,
    }


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _group(name: str, checks: list[dict]) -> dict:
    return {"name": name, "passed": all(c["passed"] for c in checks), "checks": checks}


def reproduce_paper(seed: int, mc_count: int, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Re-run the bundled reference examples; six groups of checks."""
    groups = []

    # 1. blockwise inverse-M counterexample
    a = gallery.blockwise_inverse_m()
    a_inv = inverse(a, tol)
    checks = [
        _check("inverse entry (2,3) positive", a_inv[1, 2] > 0.0, f"value {a_inv[1, 2]:.6f}"),
        _check("not an inverse M-matrix", not is_inverse_m_matrix(a, tol)),
    ]
    for triple in itertools.combinations(range(1, 5), 3):
        block = principal_submatrix(a, triple)
        checks.append(
            _check(f"block {triple} inverse-M", is_inverse_m_matrix(block, tol))
        )
        checks.append(
            _check(f"block {triple} not symmetrizable", not is_symmetrizable_3x3(block, tol))
        )
    verdict = classify_kernel(a, b=0.5, max_order=4, tol=tol)
    checks.append(
        _check(
            "classified hypotheses-met-not-kernel",
            verdict.theorem1 == "hypotheses-met-not-kernel",
            f"got {verdict.theorem1}",
        )
    )
    groups.append(_group("blockwise-inverse-M counterexample", checks))

    # 2. family with two symmetrizable triples
    gm = gallery.two_symmetrizable_triples()
    sym3 = count_symmetrizable_3subsets(gm, tol)
    checks = [
        _check("not diagonally equivalent to symmetric", not is_diag_equiv_symmetric(gm, tol)),
        _check(
            "exactly the triples {1,2,3} and {2,3,4} symmetrize",
            sym3 == [(1, 2, 3), (2, 3, 4)],
            f"got {sym3}",
        ),
        _check("inverse M-matrix after sign normalisation", is_diag_equiv_inverse_m(gm, tol) is not None),
        _check("inverse M-matrix as given", is_inverse_m_matrix(gm, tol)),
    ]
    groups.append(_group("two-symmetrizable-triples family", checks))

    # 3. family with a unique symmetrizable triple
    km = gallery.one_symmetrizable_triple()
    sym3 = count_symmetrizable_3subsets(km, tol)
    verdict = classify_kernel(km, b=0.5, max_order=4, tol=tol)
    checks = [
        _check("unique symmetrizable triple {1,2,3}", sym3 == [(1, 2, 3)], f"got {sym3}"),
        _check("inverse M-matrix", is_inverse_m_matrix(km, tol)),
        _check(
            "classified hypotheses-met-ID",
            verdict.theorem1 == "hypotheses-met-ID",
            f"got {verdict.theorem1}",
        ),
    ]
    groups.append(_group("one-symmetrizable-triple family", checks))

    # 4. tripletwise divisible covariance
    bmat = gallery.tripletwise_divisible_covariance()
    b_inv = inverse(bmat, tol)
    checks = [
        _check("inverse entry (2,4) positive", b_inv[1, 3] > 0.0, f"value {b_inv[1, 3]:.6f}"),
        _check("not an inverse M-matrix", not is_inverse_m_matrix(bmat, tol)),
    ]
    for triple in itertools.combinations(range(1, 5), 3):
        block = principal_submatrix(bmat, triple)
        checks.append(
            _check(
                f"block {triple} diag-equiv inverse-M",
                is_diag_equiv_inverse_m(block, tol) is not None,
            )
        )
    groups.append(_group("tripletwise-divisible covariance", checks))

    # 5. block-doubled kernels are never inverse-M
    base = gallery.one_symmetrizable_triple()
    base_inv = inverse(base, tol)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, 20)
    checks = []
    for alpha in (0.25, 0.5, 0.75):
        doubled = block_double(base, alpha)
        worst = 0.0
        for x in xs:
            lhs = np.linalg.det(doubled - x * np.eye(8))
            rhs = np.linalg.det((1.0 + alpha) * base - x * np.eye(4)) * np.linalg.det(
                (1.0 - alpha) * base - x * np.eye(4)
            )
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        checks.append(
            _check(
                f"alpha={alpha}: characteristic polynomial factorises",
                worst <= 1e-8,
                f"worst relative gap {worst:.2e}",
            )
        )
        js = johnson_smith_inverse_m(doubled, 4, tol)
        checks.append(
            _check(
                f"alpha={alpha}: blockwise criterion fails at (iii) or (iv)",
                (not js.verdict) and js.failed_condition in ("iii", "iv"),
                f"failed condition {js.failed_condition}",
            )
        )
        complement = schur_complement(doubled, "lower-right", 4, tol)
        gap = abs(complement - (1.0 - alpha**2) * base).max()
        checks.append(
            _check(
                f"alpha={alpha}: complement equals (1-alpha^2) G",
                gap <= 1e-10 * max(1.0, abs(base).max()),
                f"max gap {gap:.2e}",
            )
        )
        lower_left = np.linalg.solve(base, np.linalg.solve(complement.T, (alpha * base).T).T)
        expected = alpha / (1.0 - alpha**2) * base_inv
        gap = abs(lower_left - expected).max()
        checks.append(
            _check(
                f"alpha={alpha}: off-block product equals alpha/(1-alpha^2) G^-1",
                gap <= 1e-10 * max(1.0, abs(expected).max()),
                f"max gap {gap:.2e}",
            )
        )
    groups.append(_group("block-doubled kernels", checks))

    # 6. Monte Carlo Laplace transform
    cov = gallery.laplace_demo_covariance()
    lines, conditioning = _monte_carlo_lines(cov, mc_count, seed, tol)
    checks = [
        _check(
            f"transform at alphas={line['alphas']} within 3 SE",
            line["within_3se"],
            f"empirical {line['empirical']:.5f} vs closed {line['closed_form']:.5f}"
            f" (se {line['std_error']:.2e})",
        )
        for line in lines
    ]
    checks.append(
        _check(
            "conditioning identity at sigma=1 within 3 SE",
            conditioning["within_3se"],
            f"empirical {conditioning['empirical']:.5f}"
            f" vs closed {conditioning['closed_form']:.5f}",
        )
    )
    groups.append(_group("gaussian laplace transform", checks))

    return {
        "command": "reproduce-paper",
        "groups": groups,
        "passed": all(group["passed"] for group in groups),
    }


HANDLERS = {
    "classify": _cmd_classify,
    "vere-jones": _cmd_vere_jones,
    "permanent": _cmd_permanent,
    "reduce-scan": _cmd_reduce_scan,
    "mc-verify": _cmd_mc_verify,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute one parsed command; returns (exit code, report)."""
    tol = Tolerance(zero_tol=args.zero_tol, rel_tol=args.rel_tol)
    if args.command == "reproduce-paper":
        code, report = 0, reproduce_paper(args.seed, args.mc_count, tol)
    else:
        code, report = HANDLERS[args.command](args, load_matrix(args.input), tol)
    if not args.deterministic:
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return code, report


def _format_text(report: dict, lines: list[str], prefix: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            _format_text(value, lines, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}:")
            for item in value:
                _format_text(item, lines, prefix + "  ")
                lines.append(f"{prefix}  -")
        else:
            lines.append(f"{prefix}{key}: {value}")


def emit(report: dict, output: str) -> str:
    if output == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    lines: list[str] = []
    if report.get("command") == "reproduce-paper":
        for group in report["groups"]:
            mark = "PASS" if group["passed"] else "FAIL"
            lines.append(f"[{mark}] {group['name']}")
            for check in group["checks"]:
                mark = "PASS" if check["passed"] else "FAIL"
                detail = f"  ({check['detail']})" if check.get("detail") else ""
                lines.append(f"    [{mark}] {check['name']}{detail}")
        lines.append("suite: " + ("PASS" if report["passed"] else "FAIL"))
    else:
        _format_text(report, lines)
    return "\n".join(lines)


def _parse_grid(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permkernel",
        description="Classify small dense matrices as permanental kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str, output: str = "json") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("json", "text"), default=output, dest="output")
        p.add_argument("--zero-tol", type=float, default=DEFAULT_TOL.zero_tol)
        p.add_argument("--rel-tol", type=float, default=DEFAULT_TOL.rel_tol)
        p.add_argument("--deterministic", action="store_true", help="omit the timestamp field")
        return p

    def add_matrix_command(name: str, summary: str, exponent: bool) -> argparse.ArgumentParser:
        p = add_command(name, summary)
        p.add_argument("--input", required=True, help="matrix file (.json or .csv)")
        if exponent:
            p.add_argument("--b", type=float, default=0.5, help="transform exponent (default 0.5)")
        return p

    def add_monte_carlo(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mc-count", type=int, default=200_000)

    for name, summary in (
        ("classify", "full structural classification report"),
        ("vere-jones", "existence-criterion scan"),
    ):
        p = add_matrix_command(name, summary, exponent=True)
        p.add_argument("--gamma-grid", type=_parse_grid, default=None)
        p.add_argument("--max-order", type=int, default=5, choices=range(2, 9))

    add_matrix_command("permanent", "cycle-weighted permanent of the input", exponent=True)

    p = add_matrix_command(
        "reduce-scan", "conditioning/breakpoint scan over pivots", exponent=False
    )
    p.add_argument("--sigma-grid", type=_parse_grid, default=[0.1, 0.5, 1.0, 2.0, 10.0])

    add_monte_carlo(
        add_matrix_command(
            "mc-verify",
            "Monte Carlo Laplace-transform check (symmetric PSD input, exponent 1/2)",
            exponent=False,
        )
    )
    add_monte_carlo(
        add_command("reproduce-paper", "replay the bundled reference examples", output="text")
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means numerical failure here
        return 1 if exc.code else 0
    try:
        code, report = run(args)
    except OSError as exc:
        print(f"error reading input: {exc}", file=sys.stderr)
        return 1
    except (MatrixError, ValueError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"numerical failure in {args.command}: overflow: {exc}", file=sys.stderr)
        return 2
    print(emit(report, args.output))
    return code


if __name__ == "__main__":
    sys.exit(main())
