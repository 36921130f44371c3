"""End-to-end CLI tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permkernel
from permkernel import mcverify
from permkernel.cli import build_parser, main, run
from permkernel.gallery import (
    blockwise_inverse_m,
    laplace_demo_covariance,
    one_symmetrizable_triple,
    reproduce_paper,
    tripletwise_divisible_covariance,
    two_symmetrizable_triples,
)
from permkernel.matrixio import matrix_to_json


def write_fixture(tmp_path, matrix, name="m.json"):
    path = tmp_path / name
    path.write_text(matrix_to_json(np.asarray(matrix, dtype=float)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_blockwise_fixture(tmp_path, capsys):
    path = write_fixture(tmp_path, blockwise_inverse_m())
    code, out = run_cli(
        capsys,
        "classify",
        "--input",
        path,
        "--b",
        "0.5",
        "--gamma-grid",
        "0.1,1,10",
        "--max-order",
        "4",
        "--deterministic",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["theorem1"] == "hypotheses-met-not-kernel"
    assert doc["report"]["sym3_subsets"] == []
    assert "generated_at" not in doc


def test_classify_text_mode_carries_same_verdict(tmp_path, capsys):
    path = write_fixture(tmp_path, blockwise_inverse_m())
    args = [
        "classify",
        "--input",
        path,
        "--gamma-grid",
        "0.1,1",
        "--max-order",
        "3",
        "--deterministic",
    ]
    code_json, out_json = run_cli(capsys, *args)
    code_text, out_text = run_cli(capsys, *args, "--format", "text")
    assert code_json == code_text == 0
    assert json.loads(out_json)["report"]["theorem1"] == "hypotheses-met-not-kernel"
    assert "theorem1: hypotheses-met-not-kernel" in out_text


def test_classify_is_byte_stable(tmp_path, capsys):
    path = write_fixture(tmp_path, blockwise_inverse_m())
    args = [
        "classify",
        "--input",
        path,
        "--gamma-grid",
        "0.5,2",
        "--max-order",
        "3",
        "--deterministic",
    ]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_json_report_is_one_line_and_the_same_document_as_indented(tmp_path, capsys):
    path = write_fixture(tmp_path, blockwise_inverse_m())
    covariance = write_fixture(tmp_path, laplace_demo_covariance(), "c.json")
    for argv in (
        ["classify", "--input", path, "--gamma-grid", "0.5,2", "--max-order", "3"],
        ["permanent", "--input", path, "--b", "1.5"],
        ["reduce-scan", "--input", path],
        ["mc-verify", "--input", covariance, "--mc-count", "2000", "--seed", "3"],
    ):
        argv.append("--deterministic")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        assert first.endswith("\n") and first.count("\n") == 1
        assert first == json.dumps(json.loads(first), sort_keys=True) + "\n"
        _, report = run(build_parser().parse_args(argv))
        assert json.loads(first) == json.loads(json.dumps(report, indent=2, sort_keys=True))


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = write_fixture(tmp_path, blockwise_inverse_m())
    calls = [
        ("reduce-scan", "--input", path, "--sigma-grid", "1"),
        ("reduce-scan", "--input", path),
        ("classify", "--input", path, "--b", "2"),
        ("classify", "--input", path),
    ]

    def outputs(order):
        return {argv: run_cli(capsys, *argv, "--deterministic") for argv in order}

    forward, backward = outputs(calls), outputs(calls[::-1])
    assert forward == backward
    assert json.loads(forward[calls[1]][1])["sigma_grid"] == [0.1, 0.5, 1.0, 2.0, 10.0]
    assert json.loads(forward[calls[3]][1])["b"] == 0.5


def test_permanent_identity_csv(tmp_path, capsys):
    path = tmp_path / "id3.csv"
    path.write_text("1,0,0\n0,1,0\n0,0,1\n")
    code, out = run_cli(capsys, "permanent", "--input", str(path), "--b", "1.0")
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_vere_jones_failure_verdict(tmp_path, capsys):
    path = write_fixture(tmp_path, np.diag([1.0, -1.0]))
    code, out = run_cli(
        capsys, "vere-jones", "--input", path, "--gamma-grid", "0.5", "--deterministic"
    )
    assert code == 0  # completed analysis; the verdict is data
    assert json.loads(out)["report"]["overall"] == "fail"


def test_vere_jones_scans_above_the_minor_enumeration_cap(tmp_path, capsys):
    # a 17x17 is beyond every-minor enumeration (n = 16), but an order-2
    # scan, and condition (I) with it, reads only its 1x1 and 2x2 minors
    rng = np.random.default_rng(17)
    root = rng.uniform(0.0, 0.2, (17, 17)) + np.eye(17)
    path = write_fixture(tmp_path, root @ root.T)
    code, out = run_cli(
        capsys, "vere-jones", "--input", path, "--max-order", "2", "--deterministic"
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert report["max_order"] == 2
    assert report["condition_i"] and report["condition_i_witness"] is None
    scanned = [scan for scan in report["condition_ii"] if not scan["signature_certificate"]]
    assert scanned and all(scan["status"] == "pass" for scan in scanned)


def test_vere_jones_all_poles_is_numerical_failure(tmp_path, capsys):
    path = write_fixture(tmp_path, -np.eye(2))
    code, out = run_cli(
        capsys, "vere-jones", "--input", path, "--gamma-grid", "1.0", "--deterministic"
    )
    assert code == 2
    assert json.loads(out)["report"]["condition_ii"][0]["status"] == "skipped"


def test_missing_input_file_is_exit_1(capsys):
    code = main(["classify", "--input", "/nonexistent/m.json"])
    assert code == 1


def test_non_square_input_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5,6\n")
    code = main(["classify", "--input", str(path)])
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"n": null, "entries": [[1.0]]}',
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"entries": [[1' + "0" * 400 + "]]}",
    ],
    ids=["null n", "deep entries", "integer beyond a double"],
)
def test_malformed_json_input_exits_1_without_traceback(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(permkernel.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "permkernel.cli", "permanent", "--input", str(path)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
CELLS = st.floats(-4.0, 4.0) | st.integers(-4, 4) | st.floats() | st.integers()
JSON_MATRICES = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=n, max_size=n)
) | st.lists(st.lists(CELLS, max_size=3), max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["permanent", "classify"]),
    doc=JSON_VALUES
    | st.fixed_dictionaries(
        {"entries": JSON_MATRICES | JSON_VALUES}, optional={"n": st.integers(0, 4) | JSON_VALUES}
    ),
)
def test_any_json_input_keeps_the_exit_contract(command, doc):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "m.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--input", str(path), "--b", "0.5"]
        if command == "classify":
            argv += ["--gamma-grid", "0.1,1", "--max-order", "3"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


SCALE_EXPONENTS = sorted({*range(-300, 301, 50), -12, -8, -4, 4, 8, 12})


@pytest.mark.parametrize(
    "gallery",
    [
        blockwise_inverse_m,
        tripletwise_divisible_covariance,
        two_symmetrizable_triples,
        one_symmetrizable_triple,
    ],
)
def test_scaled_gallery_input_is_never_an_input_error(tmp_path, gallery):
    # 10^k G is as valid an input as G: each command either answers (exit
    # 0) or reports a numerical failure (exit 2), never bad input (exit 1).
    # From 10^100 on, the zero threshold of the 4x4 minors, zero_tol *
    # max|G|^4, is not a double; condition (I) still decides these minors,
    # which are all positive, so classify and vere-jones answer
    commands = [
        ["classify", "--max-order", "2"],
        ["vere-jones", "--max-order", "2"],
        ["reduce-scan"],
        ["permanent"],
    ]
    exits = {}
    for k in SCALE_EXPONENTS:
        path = write_fixture(tmp_path, 10.0**k * gallery(), f"x1e{k}.json")
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                exits[k, command[0]] = main([command[0], "--input", path, *command[1:]])
    assert {key: code for key, code in exits.items() if code not in (0, 2)} == {}
    huge = [(k, cmd) for k in SCALE_EXPONENTS if k >= 100 for cmd in ("classify", "vere-jones")]
    assert len(huge) == 10 and all(exits[key] == 0 for key in huge)


def test_reduce_scan_structure(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = write_fixture(tmp_path, rng.uniform(0.2, 2.0, (4, 4)))
    code, out = run_cli(
        capsys,
        "reduce-scan",
        "--input",
        path,
        "--sigma-grid",
        "0.1,1.0",
        "--deterministic",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pivots"]) == 4
    first = doc["pivots"][0]
    assert {"pivot", "breakpoints", "scan"} <= set(first)
    assert all(point["status"] == "ok" for point in first["scan"])


SPARSE_4X4 = [[1, 0.5, 0, 0.3], [0.4, 1, 0.2, 0.6], [0.1, 0.3, 1, 0.5], [0.2, 0.7, 0.4, 1]]


def test_reduce_scan_zero_pivot_entry_is_a_note(tmp_path, capsys):
    path = write_fixture(tmp_path, SPARSE_4X4)
    code, out = run_cli(
        capsys, "reduce-scan", "--input", path, "--sigma-grid", "0.5", "--deterministic"
    )
    assert code == 0
    pivots = json.loads(out)["pivots"]
    for entry in (pivots[0], pivots[2]):
        k = entry["pivot"]
        assert entry["note"] == f"pivot row/column {k} has a zero entry"
        assert entry["breakpoints"] == [] and entry["scan"] == []
    for entry in (pivots[1], pivots[3]):
        assert "note" not in entry
        assert len(entry["breakpoints"]) == 1
        assert [point["status"] for point in entry["scan"]] == ["ok"]


def test_reduce_scan_all_poles_is_numerical_failure(tmp_path, capsys):
    path = write_fixture(tmp_path, np.where(np.array(SPARSE_4X4) == 0, 0.2, SPARSE_4X4))
    code, out = run_cli(
        capsys, "reduce-scan", "--input", path, "--sigma-grid=-1", "--deterministic"
    )
    assert code == 2
    pivots = json.loads(out)["pivots"]
    assert len(pivots) == 4
    assert all(point["status"] == "pole" for entry in pivots for point in entry["scan"])
    assert main(["reduce-scan", "--input", path, "--sigma-grid=-1,0.5"]) == 0


def test_reduce_scan_needs_dimension_four(tmp_path, capsys):
    path = write_fixture(tmp_path, np.eye(3))
    assert main(["reduce-scan", "--input", path]) == 1


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # the read end is closed before the CLI starts, so its first write fails
    path = write_fixture(tmp_path, blockwise_inverse_m())
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(permkernel.__file__).resolve().parents[1])}
    script = "import sys; from permkernel.cli import main; sys.exit(main())"
    argv = ["reduce-scan", "--input", path, "--format", "text"]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_vere_jones_at_a_huge_gamma_writes_nothing_to_stderr(tmp_path):
    # det(I + 1e300 G) is beyond a double: +inf, not a leaked overflow warning
    path = write_fixture(tmp_path, one_symmetrizable_triple())
    env = {**os.environ, "PYTHONPATH": str(Path(permkernel.__file__).resolve().parents[1])}
    argv = ["vere-jones", "--input", path, "--gamma-grid", "1e300", "--deterministic"]
    proc = subprocess.run(
        [sys.executable, "-m", "permkernel.cli", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    (point,) = json.loads(proc.stdout)["report"]["condition_ii"]
    assert (point["gamma"], point["status"]) == (1e300, "pass")


def test_reduce_scan_nonpositive_pivot_diagonal_is_an_input_error(tmp_path, capsys):
    g = np.array(SPARSE_4X4) + 0.1
    g[0, 0] = -1.0
    path = write_fixture(tmp_path, g)
    assert main(["reduce-scan", "--input", path, "--deterministic"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error in reduce-scan: pivot_diag must be strictly positive"


def test_reduce_scan_at_n4_has_one_triple_per_pivot(tmp_path, capsys):
    rng = np.random.default_rng(14)
    g = rng.uniform(-2.0, 2.0, (4, 4))
    np.fill_diagonal(g, rng.uniform(0.5, 2.0, 4))
    path = write_fixture(tmp_path, g)
    code, out = run_cli(
        capsys, "reduce-scan", "--input", path, "--sigma-grid", "0.1,1,10", "--deterministic"
    )
    assert code == 0
    for entry in json.loads(out)["pivots"]:
        rest = [i for i in range(1, 5) if i != entry["pivot"]]
        assert [bp["triple"] for bp in entry["breakpoints"]] == [rest]
        for point in entry["scan"]:
            assert point["symmetrizable_3subsets"] in ([], [[1, 2, 3]])


def test_mc_verify_runs_small(tmp_path, capsys):
    path = write_fixture(tmp_path, laplace_demo_covariance())
    code, out = run_cli(
        capsys,
        "mc-verify",
        "--input",
        path,
        "--mc-count",
        "20000",
        "--seed",
        "5",
        "--deterministic",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["transform_lines"]) == 4
    assert all(line["within_3se"] for line in doc["transform_lines"])
    assert doc["conditioning"]["within_3se"]


def test_mc_verify_rejects_asymmetric_input(tmp_path, capsys):
    path = write_fixture(tmp_path, [[1.0, 0.9], [0.1, 1.0]])
    assert main(["mc-verify", "--input", path, "--mc-count", "100"]) == 1


def test_unallocatable_draw_count_is_exit_1(tmp_path, capsys):
    # 10**15 draws exceed any address space, so nothing is allocated
    path = write_fixture(tmp_path, laplace_demo_covariance())
    code = main(["mc-verify", "--input", path, "--mc-count", str(10**15)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in mc-verify") and err.count("\n") == 1


def test_negative_seed_is_exit_1(tmp_path, capsys):
    path = write_fixture(tmp_path, laplace_demo_covariance())
    code = main(["mc-verify", "--input", path, "--mc-count", "100", "--seed", "-5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error in mc-verify: seed must be nonnegative\n"


def test_reproduce_paper_has_six_groups():
    report = reproduce_paper(seed=0, mc_count=20000)
    assert len(report["groups"]) == 6
    assert report["passed"]


def test_reproduce_paper_negative_control(monkeypatch):
    # a wrong exponent must fail the Monte Carlo group and only that group
    monkeypatch.setattr(mcverify, "MC_B", 2.0)
    report = reproduce_paper(seed=0, mc_count=20000)
    assert not report["passed"]
    failing = [g["name"] for g in report["groups"] if not g["passed"]]
    assert failing == ["gaussian laplace transform"]


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    path = write_fixture(tmp_path, laplace_demo_covariance())
    # argparse would exit 2, which is reserved for numerical failure
    assert main(["classify", "--input", path, "--max-order", "9"]) == 1
    # a grid with no value is a usage error
    assert main(["reduce-scan", "--input", path, "--sigma-grid", ","]) == 1
    assert "grid must contain at least one value" in capsys.readouterr().err
    assert main(["mc-verify", "--input", path, "--b", "1.0"]) == 1
    assert main(["reproduce-paper", "--b", "1.0"]) == 1
    assert main(["classify"]) == 1
    assert main([]) == 1
    assert main(["classify", "--help"]) == 0
    # a rejected tolerance is an input failure
    assert main(["classify", "--input", path, "--zero-tol", "0"]) == 1


def test_overflow_is_a_one_line_numerical_failure(tmp_path, capsys):
    # the negative 2-cycle rules out a positivity signature, so the scan
    # runs and its order-2 threshold overflows
    path = write_fixture(tmp_path, [[1e160, -1e160], [1e160, 1e160]])
    code = main(["vere-jones", "--input", path, "--gamma-grid", "1e-300"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure in vere-jones")
    assert err.count("\n") == 1


def test_scan_values_beyond_a_double_are_a_one_line_numerical_failure(tmp_path, capsys):
    # the order-5 threshold, 2.4e298, is a double, but the values of order
    # 5 are not; NaN would pass the comparison with the threshold
    a = np.array([[1.0, 0.87, 0.94], [-0.23, 0.54, -0.25], [0.19, 0.74, 0.91]])
    path = write_fixture(tmp_path, 3e61 * a)
    argv = ["vere-jones", "--input", path, "--b", "2", "--gamma-grid", "1e-300", "--max-order", "5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "numerical failure in vere-jones: OverflowError: " + (
        "the values or zero threshold of order 5 are not finite doubles\n"
    )
    assert not caught


def test_permanent_overflow_is_a_one_line_numerical_failure(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("1e160,1e160\n1e160,1e160\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["permanent", "--input", str(path), "--b", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("numerical failure in permanent: OverflowError")
    assert captured.err.count("\n") == 1
    assert not caught


@pytest.mark.parametrize(
    "command, grid_flag", [("reduce-scan", "--sigma-grid"), ("vere-jones", "--gamma-grid")]
)
def test_overflowed_tilt_is_a_one_line_numerical_failure(tmp_path, capsys, command, grid_flag):
    # 1e300 times entries near 1e10 is not a double: neither a pole nor bad input
    path = write_fixture(tmp_path, 1e10 * one_symmetrizable_triple())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", path, grid_flag, "1e300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"numerical failure in {command}: OverflowError")
    assert "1e+300" in captured.err
    assert captured.err.count("\n") == 1
    assert not caught


@pytest.mark.parametrize("command", ["vere-jones", "classify"])
def test_tilt_beyond_a_double_is_a_one_line_numerical_failure(tmp_path, capsys, command):
    # gamma*max|G| is about 1, but 1 + gamma*G(1,1) is 1e-3, so the solved
    # tilted kernel holds -1e309: an overflow, not bad input
    path = write_fixture(tmp_path, [[-0.999e306, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", path, "--gamma-grid", "1e-306"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numerical failure in {command}: OverflowError: " + (
        "I + 1e-306*G or its tilted kernel is not finite\n"
    )
    assert not caught


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, grid_flag, message",
    [
        ("reduce-scan", "--sigma-grid", "sigma values must be finite"),
        ("vere-jones", "--gamma-grid", "gamma values must be finite and strictly positive"),
    ],
)
def test_non_finite_grid_value_is_an_input_error(
    tmp_path, capsys, command, grid_flag, message, value
):
    # nothing overflows: the grid itself is bad input, not a numerical failure
    path = write_fixture(tmp_path, one_symmetrizable_triple())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", path, grid_flag, f"0.5,{value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error in {command}: {message}\n"
    assert not caught


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("classify", "--b", "nan", "exponent b must be finite and strictly positive"),
        ("vere-jones", "--b", "nan", "exponent b must be finite and strictly positive"),
        ("vere-jones", "--b", "inf", "exponent b must be finite and strictly positive"),
        ("permanent", "--b", "nan", "exponent b must be finite"),
        ("permanent", "--b", "inf", "exponent b must be finite"),
        ("classify", "--zero-tol", "nan", "tolerances must be finite and strictly positive"),
        ("classify", "--rel-tol", "inf", "tolerances must be finite and strictly positive"),
    ],
)
def test_non_finite_exponent_or_tolerance_is_an_input_error(
    tmp_path, capsys, command, flag, value, message
):
    # before any arithmetic: no NaN or Infinity token and no overflow report
    path = write_fixture(tmp_path, one_symmetrizable_triple())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", path, f"{flag}={value}", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error in {command}: {message}\n"
    assert not caught


def test_overflowed_pivot_products_are_a_one_line_numerical_failure(tmp_path, capsys):
    # G(i,p) G(p,j) is about 1e320 at every pivot; the tiny sigma keeps the
    # pole test finite, so the products are the first thing to overflow
    path = write_fixture(tmp_path, 1e160 * one_symmetrizable_triple())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["reduce-scan", "--input", path, "--sigma-grid", "1e-170"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "numerical failure in reduce-scan: OverflowError: G(i,p) G(p,j) overflows at pivot p = 1\n"
    )
    assert not caught


def test_mc_verify_underflowed_denominator_is_a_one_line_numerical_failure(tmp_path, capsys):
    # every conditioning denominator exp(-sigma psi_n / 2) underflows to 0
    path = write_fixture(tmp_path, [[1e12, 2e11], [2e11, 1e12]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["mc-verify", "--input", path, "--mc-count", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("numerical failure in mc-verify: ZeroDivisionError")
    assert "exp(-sigma psi_n / 2)" in captured.err
    assert captured.err.count("\n") == 1
    assert not caught
