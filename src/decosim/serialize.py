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


def render_rows(values) -> list[str]:
    """Each row of a 2-D float array as one CSV line, cells exactly as ``format_value``.

    One ``%`` call per row on a row format of ``%.16e`` cells; printf-style
    and format-spec rendering agree byte for byte on every double, nan,
    +-inf, -0.0 and subnormals included.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
    row_format = ",".join(["%.16e"] * arr.shape[1])
    return [row_format % row for row in map(tuple, arr.tolist())]


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
    """Comma-separated table with a single header line.

    ``rows`` is a float array, rendered by ``render_rows``, or an iterable
    of rows: a ``str`` row is a line already rendered, any other row is
    rendered cell by cell with ``format_value``.
    """
    width = len(header)
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"table has shape {rows.shape}, header has {width} cells")
        lines = render_rows(rows)
    else:
        lines = []
        for row in rows:
            if type(row) is str:
                n_cells, line = row.count(",") + 1, row
            else:
                cells = [format_value(v) for v in row]
                n_cells, line = len(cells), ",".join(cells)
            if n_cells != width:
                raise ValueError(f"row has {n_cells} cells, header has {width}")
            lines.append(line)
    # the empty last item gives the final newline without copying the text again
    atomic_write_text(path, "\n".join([",".join(header), *lines, ""]))


def write_json(path: str, payload) -> None:
    """Compact, key-sorted JSON on one line; compact output keeps json's C encoder."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError("only vectors and matrices are serialized")
    return np.stack([arr.real, arr.imag], -1).tolist()


def pairs_to_array(data) -> np.ndarray:
    """Inverse of matrix_to_pairs; accepts vectors or matrices."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError("expected nested [re, im] pairs")


def _rendered(values, ndim: int) -> list[str]:
    """A list of ``str`` passes through; floats (a vector for ndim 1) are rendered."""
    if isinstance(values, list) and all(type(v) is str for v in values):
        return values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return render_rows(arr if ndim == 2 else arr[:, None])


def write_coordinate_matrix(path: str, row_coords, col_coords, values) -> None:
    """Dense matrix file with leading coordinate row and column.

    Coordinates are float vectors or lists of their rendered cells; values
    are a float matrix or the list of its rows rendered by ``render_rows``.
    """
    rows_c, cols_c = _rendered(row_coords, 1), _rendered(col_coords, 1)
    lines = _rendered(values, 2)
    if len(lines) != len(rows_c) or any(line.count(",") + 1 != len(cols_c) for line in lines):
        raise ValueError("matrix shape does not match the coordinate axes")
    text = [",".join(["row\\col", *cols_c])]
    text += [coord + "," + line for coord, line in zip(rows_c, lines)]
    atomic_write_text(path, "\n".join([*text, ""]))
