"""Behaviour lock: CLI `--deterministic` reports against recorded documents.

The files under tests/golden/ hold the JSON report of each case below (and
the text table of reproduce-paper). Parsed documents must agree exactly on
strings, bools, ints, nulls and list/dict shapes; floats may differ by a
relative 1e-12 so that a different BLAS cannot break the lock. The text
table is compared byte for byte. Documents are parsed as strict JSON: a NaN
or Infinity token in a report fails its case.

`python3 tests/test_golden.py [CASE ...]` re-records the named cases (all
of them by default) from the current code: it rewrites a golden file only
when the file is missing or the case no longer matches it as the test
checks, so that a run on unchanged code changes nothing and a run after an
intended change of output rewrites only the cases that changed. The CLI
writes JSON on one line; the recorder indents it (two spaces, sorted keys)
so that a re-recorded file diffs line by line. The text table is written
verbatim.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from permkernel import gallery
from permkernel.cli import main
from permkernel.matrixio import matrix_to_json

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12
MATRICES_4X4 = (
    "blockwise_inverse_m",
    "tripletwise_divisible_covariance",
    "two_symmetrizable_triples",
    "one_symmetrizable_triple",
)
MC_ARGS = ("--mc-count", "20000", "--seed", "5")
REPRODUCE_ARGS = ("reproduce-paper", "--mc-count", "20000", "--deterministic")

# golden file name -> (gallery matrix passed as --input, or None; CLI
# arguments; factor the matrix is multiplied by)
CASES = {
    **{
        f"{command}-{name}.json": (name, (command,), 1.0)
        for name in MATRICES_4X4
        for command in ("classify", "permanent", "reduce-scan")
    },
    **{
        f"vere-jones-{name}.json": (name, ("vere-jones", "--max-order", "8"), 1.0)
        for name in MATRICES_4X4
    },
    # fails at gamma 3.3 with witness (2, 3, 4); the other two gammas pass
    "vere-jones-tripletwise_divisible_covariance-mixed-grid.json": (
        "tripletwise_divisible_covariance",
        ("vere-jones", "--b", "0.001", "--gamma-grid", "0.01,3.3,100", "--max-order", "8"),
        1.0,
    ),
    # scaled inputs on which the floor of 1 in the zero thresholds decides
    # the verdict (ROADMAP item 2): these record today's scale-dependent
    # behaviour, and a scale-covariant threshold is expected to change them
    **{
        f"classify-one_symmetrizable_triple-x{factor}.json": (
            "one_symmetrizable_triple", ("classify",), float(factor)
        )
        for factor in ("1e-4", "1e4")
    },
    "classify-blockwise_inverse_m-x1e-8.json": ("blockwise_inverse_m", ("classify",), 1e-8),
    "vere-jones-blockwise_inverse_m-x1e-4.json": ("blockwise_inverse_m", ("vere-jones",), 1e-4),
    "reduce-scan-two_symmetrizable_triples-x1e-3.json": (
        "two_symmetrizable_triples", ("reduce-scan",), 1e-3
    ),
    **{
        f"mc-verify-{name}.json": (name, ("mc-verify", *MC_ARGS), 1.0)
        for name in ("laplace_demo_covariance", "tripletwise_divisible_covariance")
    },
    "reproduce-paper.json": (None, (*REPRODUCE_ARGS, "--format", "json"), 1.0),
    "reproduce-paper.txt": (None, REPRODUCE_ARGS, 1.0),
}


def run_case(name: str, directory: Path) -> tuple[int, str]:
    matrix, args, factor = CASES[name]
    argv = list(args)
    if matrix is not None:
        path = directory / f"{matrix}.json"
        path.write_text(matrix_to_json(factor * getattr(gallery, matrix)()))
        argv[1:1] = ["--input", str(path)]
        argv.append("--deterministic")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def parse(text: str):
    """A JSON document as the standard defines it (no NaN or Infinity)."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_same(got, want, where: str = "$") -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), f"{where}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{index}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_recorded(name: str, out: str, recorded: str) -> None:
    """Case `name`'s output agrees with its recorded text: byte for byte for
    the text table, by assert_same for a JSON document."""
    if name.endswith(".txt"):
        assert out == recorded
    else:
        assert_same(parse(out), parse(recorded))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == 0
    assert_recorded(name, out, (GOLDEN / name).read_text())


def test_float_tolerance_is_relative():
    assert_same({"x": [1.0, 2]}, {"x": [1.0 + 1e-15, 2]})
    with pytest.raises(AssertionError):
        assert_same({"x": [1.0, 2]}, {"x": [1.0, 2.0]})
    with pytest.raises(AssertionError):
        assert_same([1.0 + 1e-9], [1.0])
    with pytest.raises(AssertionError):
        assert_same([True], [1])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_tokens_are_not_json(token):
    assert parse('{"x": [1.5]}') == {"x": [1.5]}
    with pytest.raises(ValueError, match=f"{token} is not a JSON number"):
        parse(f'{{"x": [1.5, {token}]}}')


if __name__ == "__main__":
    import tempfile

    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"no such case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sys.argv[1:] or sorted(CASES):
            code, text = run_case(case, Path(scratch))
            if code != 0:
                sys.exit(f"{case}: exit code {code}")
            try:
                assert_recorded(case, text, (GOLDEN / case).read_text())
                continue
            except (FileNotFoundError, AssertionError, ValueError):
                pass  # missing, changed, or not a JSON document
            if case.endswith(".json"):
                text = json.dumps(parse(text), indent=2, sort_keys=True) + "\n"
            (GOLDEN / case).write_text(text)
            print(f"wrote {case}", file=sys.stderr)
