"""Deterministic data-file output: CSV tables, JSON matrices, atomic writes.

Numbers are rendered in scientific notation with 17 significant digits,
enough to round-trip any double exactly, with '.' as the decimal
separator regardless of locale.  Every write goes to a temporary file
in the destination directory followed by an atomic rename, so readers
never observe a half-written table.  Identical inputs produce identical
bytes; nothing here timestamps or randomizes.

Complex matrices and vectors travel as nested JSON lists of [re, im]
pairs in row-major order.
"""
from __future__ import annotations

import json
import os
import tempfile
from typing import Sequence

import numpy as np


def format_value(value) -> str:
    """CSV cell rendering: floats at full precision, everything else via str."""
    kind = type(value)
    if kind is str:
        return value
    if kind is float:
        return f"{value:.16e}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError("write complex data as separate re/im columns")
    return str(value)


def format_floats(values) -> np.ndarray:
    """``format_value`` of every entry of a float array: an object array of str, same shape."""
    arr = np.asarray(values, dtype=float)
    cells = [f"{v:.16e}" for v in arr.ravel().tolist()]
    return np.array(cells, dtype=object).reshape(arr.shape)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Comma-separated table with a single header line."""
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        cells = [format_value(v) for v in row]
        if len(cells) != width:
            raise ValueError(f"row has {len(cells)} cells, header has {width}")
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim == 1:
        return [[float(v.real), float(v.imag)] for v in arr]
    if arr.ndim == 2:
        return [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    raise ValueError("only vectors and matrices are serialized")


def pairs_to_array(data) -> np.ndarray:
    """Inverse of matrix_to_pairs; accepts vectors or matrices."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError("expected nested [re, im] pairs")


def _cells(values) -> np.ndarray:
    """Rendered cells: an object array from ``format_floats`` passes through, floats are rendered."""
    arr = np.asarray(values)
    return arr if arr.dtype == object else format_floats(arr)


def write_coordinate_matrix(path: str, row_coords, col_coords, values) -> None:
    """Dense matrix file with leading coordinate row and column.

    Each argument holds floats, or their cells already rendered by ``format_floats``.
    """
    vals, rows_c, cols_c = _cells(values), _cells(row_coords), _cells(col_coords)
    if vals.shape != (rows_c.size, cols_c.size):
        raise ValueError("matrix shape does not match the coordinate axes")
    lines = [",".join(["row\\col", *cols_c])]
    lines += [",".join([coord, *row]) for coord, row in zip(rows_c, vals)]
    atomic_write_text(path, "\n".join(lines) + "\n")
