"""Batch command-line interface: argparse, one library call per command,
then `emit`.

Subcommands: classify, vere-jones, permanent, reduce-scan
(`reductions.reduce_scan`), mc-verify (`mcverify.laplace_report`), and
reproduce-paper (`gallery.reproduce_paper`, one pass/fail line per
reference check). Matrices are read from JSON or headerless CSV files;
reports go to stdout as text or as one JSON document on one line with
sorted keys (`python -m json.tool` indents it). The parser is built on
first use and shared by every later call of `main`, so its defaults are
immutable (the `--sigma-grid` default is a tuple).

Exit codes: 0 analysis completed (verdicts are data, not errors), 1 input,
parse or usage failure, a draw count too large to allocate, or a stdout
closed before the report was written, 2 numerical failure (every grid point
unusable, an overflow such as a b-permanent beyond double precision, or a
Monte Carlo conditioning denominator that underflows to 0).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import os
import sys

import numpy as np

from .classify import classify_kernel
from .gallery import reproduce_paper
from .matcore import DEFAULT_TOL, Tolerance
from .matrixio import load_matrix
from .mcverify import MC_B, laplace_report
from .permanent import MAX_POSITIVITY_ORDER, per_b, vere_jones_check
from .reductions import reduce_scan


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
    pivots = reduce_scan(g, args.sigma_grid, tol)
    usable = any(point["status"] == "ok" for entry in pivots for point in entry["scan"])
    return 0 if usable else 2, {
        "command": "reduce-scan",
        "sigma_grid": list(args.sigma_grid),
        "pivots": pivots,
    }


def _cmd_mc_verify(args, g: np.ndarray, tol: Tolerance) -> tuple[int, dict]:
    lines, conditioning = laplace_report(g, args.mc_count, args.seed, tol)
    return 0, {
        "command": "mc-verify",
        "b": MC_B,
        "seed": args.seed,
        "count": args.mc_count,
        "transform_lines": lines,
        "conditioning": conditioning,
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
        report = reproduce_paper(args.seed, args.mc_count, tol)
        code, report = 0, {"command": "reproduce-paper", **report}
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
        return json.dumps(report, sort_keys=True, check_circular=False)
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


@functools.cache
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
        p.add_argument(
            "--max-order", type=int, default=5, choices=range(2, MAX_POSITIVITY_ORDER + 1)
        )

    add_matrix_command("permanent", "cycle-weighted permanent of the input", exponent=True)

    p = add_matrix_command(
        "reduce-scan", "conditioning/breakpoint scan over pivots", exponent=False
    )
    p.add_argument("--sigma-grid", type=_parse_grid, default=(0.1, 0.5, 1.0, 2.0, 10.0))

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
        print(emit(report, args.output), flush=True)
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the final
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error reading input: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure in {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
