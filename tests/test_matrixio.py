"""Matrix file-format tests."""

import numpy as np
import pytest

from permkernel import DimensionMismatch
from permkernel.matrixio import (
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_json,
)


def test_json_round_trip(tmp_path):
    a = np.array([[1.0, 2.5], [-0.5, 4.0]])
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(a))
    assert np.array_equal(load_matrix(path), a)


def test_csv_parsing(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_extension_sniffing(tmp_path):
    path = tmp_path / "matrix.dat"
    path.write_text('{"n": 1, "entries": [[2.0]]}')
    assert load_matrix(path).item() == 2.0
    path.write_text("1,0\n0,1\n")
    assert np.array_equal(load_matrix(path), np.eye(2))


def test_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        matrix_from_csv("1,2,3\n4,5,6\n")
    with pytest.raises(DimensionMismatch):
        matrix_from_json('{"entries": [[1.0, 2.0]]}')
    with pytest.raises(DimensionMismatch):
        matrix_from_json('{"n": 3, "entries": [[1.0]]}')
    with pytest.raises(DimensionMismatch):
        matrix_from_json("[1, 2]")
    with pytest.raises(DimensionMismatch):
        matrix_from_csv("1,a\n2,3\n")


MALFORMED_JSON = {
    "null n": '{"n": null, "entries": [[1.0]]}',
    "list n": '{"n": [2], "entries": [[1.0, 0.0], [0.0, 1.0]]}',
    "fractional n": '{"n": 2.9, "entries": [[1.0, 0.0], [0.0, 1.0]]}',
    "boolean n": '{"n": true, "entries": [[1.0]]}',
    "object entries": '{"entries": {"a": 1}}',
    "object row": '{"entries": [{"a": 1}]}',
    "string cell": '{"entries": [[1.0, "2"], [3.0, 4.0]]}',
    "deep entries": '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_malformed_json_is_a_dimension_mismatch(text):
    with pytest.raises(DimensionMismatch):
        matrix_from_json(text)


def test_integral_float_n_is_accepted():
    assert np.array_equal(matrix_from_json('{"n": 2.0, "entries": [[1, 0], [0, 1]]}'), np.eye(2))
