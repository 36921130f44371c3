"""Square-matrix file formats shared with the CLI.

Two formats are accepted:
  * JSON: an object {"n": int, "entries": [[row], ...]}
  * CSV: headerless, n rows of n comma-separated numbers
Parsers reject non-square data.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .matcore import as_matrix


def matrix_from_json(text: str) -> np.ndarray:
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise DimensionMismatch("JSON matrix is nested too deeply") from exc
    rows = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows
    ):
        raise DimensionMismatch('JSON matrix must be an object whose "entries" are rows of numbers')
    a = as_matrix(rows)
    n = doc.get("n", a.shape[0])
    if type(n) not in (int, float) or n != a.shape[0]:
        raise DimensionMismatch(f'declared "n" is not the number of rows, {a.shape[0]}')
    return a


def matrix_from_csv(text: str) -> np.ndarray:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    try:
        entries = [[float(cell) for cell in row] for row in rows]
    except ValueError as exc:
        raise DimensionMismatch(f"CSV cell is not a number: {exc}") from exc
    widths = {len(row) for row in entries}
    if not entries or widths != {len(entries)}:
        raise DimensionMismatch(
            f"CSV data is not square: {len(entries)} rows, widths {sorted(widths)}"
        )
    return as_matrix(entries)


def matrix_to_json(a) -> str:
    a = as_matrix(a)
    return json.dumps({"n": a.shape[0], "entries": a.tolist()})


def load_matrix(path) -> np.ndarray:
    """Read a square matrix from a .json or .csv file (sniffed otherwise)."""
    p = Path(path)
    text = p.read_text()
    suffix = p.suffix.lower()
    if suffix == ".json":
        return matrix_from_json(text)
    if suffix == ".csv":
        return matrix_from_csv(text)
    # no recognised extension: sniff on the leading character
    if text.lstrip()[:1] == "{":
        return matrix_from_json(text)
    return matrix_from_csv(text)
