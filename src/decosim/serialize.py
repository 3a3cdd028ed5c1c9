"""Deterministic data-file output: CSV tables, JSON matrices, atomic writes.

Numbers are rendered in scientific notation with 17 significant digits,
enough to round-trip any double exactly, with '.' as the decimal
separator regardless of locale.  Every write goes to a temporary file
in the destination directory followed by an atomic rename, so readers
never observe a half-written table.  Identical inputs produce identical
bytes; nothing here timestamps or randomizes.

A table is one 2-d array of floats or of cells (bytes); text and integer
columns are cells made by the caller.  Every float array is rendered by
one vectorized kernel, ``render_cells``: each value becomes a 24-byte
cell holding, byte for byte, the ``"%.16e"`` text that ``format_value``
gives.  The 17 digits come from a double-double scaling by exact powers
of ten, the fast path with a rounding certificate of Loitsch (PLDI 2010).
A value whose rounding that path cannot prove is rendered by
``format_value`` itself: nan, +-inf, subnormals, magnitudes outside about
1e-290..1e291, and fractions within 2^-40 of a rounding tie.  Tables are
assembled from the cells and separator bytes a block of lines at a time,
so no Python loop runs per cell or per line.

JSON files are key-sorted, on one line, with json's default ``", "`` and
``": "`` separators.  ``write_json`` takes complex arrays as top-level
payload values and writes each as nested lists of [re, im] pairs in
row-major order, the text ``json.dumps`` gives for those lists: each
distinct double is rendered once and the text is assembled by one join.
``pairs_to_array`` reads vectors and matrices back.
"""
from __future__ import annotations

import json
import math
import os
from typing import Sequence

import numpy as np

CELL_BYTES = 24  # len("-d.dddddddddddddddde-XXX"), the longest "%.16e" of a double


def format_value(value: float) -> str:
    """The reference text of one float cell: 17 significant digits, ``"%.16e"``."""
    return "%.16e" % value


# --- the cell kernel --------------------------------------------------------
#
# For a normal |x| with decimal exponent k (10^k <= |x| < 10^(k+1)) the 17
# digits are D = round(|x| 10^(16-k)), 10^16 <= D < 10^17.  The product is
# formed as a double-double: 10^(16-k) = P + P_lo from exact integers, and
# |x| P = h + l exactly by Veltkamp's split and Dekker's two-product (no FMA,
# no long double).  With V = |x| 10^(16-k) < 2^57, |l| <= ulp(h)/2 <= 8 and
# |x P_lo| <= 2^-53 V <= 16, so the fraction t = (h - floor h) + l + x P_lo
# is off from the exact one by at most 2^-49 (rounding of x P_lo) + 2^-49
# (P + P_lo vs 10^(16-k)) + 2^-49 + 2^-48 (the two additions) < 2^-46.
# Rounding to nearest is continuous away from a tie, so only fractions
# within _TIE_MARGIN = 2^-40 of 1/2 fall back; exact ties such as 2^-25 do.

_K_MIN, _K_MAX = -290, 290  # the fast path's decimal exponents
_TIE_MARGIN = 2.0**-40
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: 26 high bits and a 26-bit signed rest
_D_MIN, _D_MAX = 10**16, 10**17


def _power_table() -> np.ndarray:
    """Rows (P_hi, P_lo, P high 26 bits, P low 27 bits) of 10^(16-k), k = K_MIN-1 .. K_MAX+1.

    Python's int true division rounds correctly, so 10^j = num / den gives
    P_hi and the exact rest (num den_hi - num_hi den) / (den den_hi) gives P_lo.
    """
    rows = []
    for k in range(_K_MIN - 1, _K_MAX + 2):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        num_hi, den_hi = hi.as_integer_ratio()
        lo = (num * den_hi - num_hi * den) / (den * den_hi)
        mantissa, exponent = math.frexp(hi)
        top = math.ldexp(math.trunc(math.ldexp(mantissa, 26)), exponent - 26)
        rows.append((hi, lo, top, hi - top))
    return np.array(rows)


_POWERS = _power_table().T.copy()  # four contiguous rows, one gather each

# byte tables read through native uint32 views, so the byte order of the
# machine does not matter: the lead word b"\0" + sign + digit + ".", four
# digits at a time, and the exponent as b"e+XX" or b"e-XXX" padded to 8 bytes
_LEAD = np.frombuffer(b"".join(b"\0" + sign + b"%d." % d for sign in (b"\0", b"-")
                               for d in range(10)), dtype=np.uint32)
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
_QUADS = (_QUADS + np.uint8(ord("0"))).view(np.uint32).ravel()
_EXP_OFFSET = _K_MAX + 2  # the carry can lift k one past the table
_EXPONENTS = np.frombuffer(b"".join((b"e%+03d" % k).ljust(8, b"\0") for k in
                                    range(-_EXP_OFFSET, _EXP_OFFSET + 1)),
                           dtype=np.uint32).reshape(-1, 2)


def _scaled(mag: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of mag * 10^(16 - k), for 10^(K_MIN-1) <= mag."""
    row = k - (_K_MIN - 1)
    p_hi, p_lo, p_top, p_rest = (np.take(powers, row) for powers in _POWERS)
    h = mag * p_hi
    c = mag * _SPLITTER
    m_top = c - (c - mag)
    m_rest = mag - m_top
    l = ((m_top * p_top - h) + m_top * p_rest + m_rest * p_top) + m_rest * p_rest
    whole = np.floor(h)
    t = ((h - whole) + l) + mag * p_lo
    t_floor = np.floor(t)
    return whole.astype(np.int64) + t_floor.astype(np.int64), t - t_floor


def _divmod(d: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(d, unit)`` for nonnegative int64 ``d``, several times faster than it."""
    q = d // unit
    return q, d - q * unit


def render_cells(values) -> np.ndarray:
    """Each value of a float array as its ``format_value`` bytes, an ``S24`` array of the same shape.

    A cell is left-aligned and padded with NUL bytes; ``cells.tolist()``
    gives ``format_value(v).encode()`` for every value.
    """
    arr = np.asarray(values, dtype=float)
    flat = arr.ravel()
    mag = np.abs(flat)
    # zero maps to log10(5e-324), off the fast path like nan and +-inf, without a warning
    k_float = np.floor(np.log10(np.maximum(mag, 5e-324)))
    zero = mag == 0.0
    fast = np.abs(k_float) <= _K_MAX  # the range is symmetric, _K_MIN = -_K_MAX
    k = np.where(fast, k_float, 0.0).astype(np.int64)
    mag = np.where(fast, mag, 1.0)
    digits, frac = _scaled(mag, k)
    # log10 may miss the decimal exponent by one next to a power of ten
    redo = np.flatnonzero((digits < _D_MIN) | (digits >= _D_MAX))
    if redo.size:
        k[redo] += np.where(digits[redo] < _D_MIN, -1, 1)
        digits[redo], frac[redo] = _scaled(mag[redo], k[redo])
        fast[redo] &= (digits[redo] >= _D_MIN) & (digits[redo] < _D_MAX)
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    digits += frac > 0.5
    carry = digits == _D_MAX
    digits[carry] = _D_MIN
    k += carry
    digits[zero] = 0  # with k = 0, as for every value off the fast path

    # 32 bytes a row: b"\0", sign or NUL, the lead digit and ".", 16 digits,
    # the exponent; a cell is bytes 1..24 of a negative row, 2..25 of the rest
    negative = np.signbit(flat)
    lead, rest = _divmod(digits, 10**16)
    upper, lower = _divmod(rest, 10**8)
    words = np.empty((flat.size, 8), dtype=np.uint32)
    words[:, 0] = _LEAD[lead + 10 * negative]
    words[:, 1], words[:, 2] = (_QUADS[q] for q in _divmod(upper, 10**4))
    words[:, 3], words[:, 4] = (_QUADS[q] for q in _divmod(lower, 10**4))
    words[:, 5:7] = _EXPONENTS[k + _EXP_OFFSET]
    words[:, 7] = 0
    # move each row down by its start byte, as little-endian 64-bit words
    row = words.view("<u8")
    shift = np.where(negative, 8, 16).astype(np.uint64)[:, None]
    moved = (row[:, :3] >> shift) | (row[:, 1:] << (np.uint64(64) - shift))
    cells = moved.astype("<u8", copy=False).view(np.uint8)

    for i in np.flatnonzero(~(fast | zero)):
        text = format_value(flat[i]).encode()
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells.view(f"S{CELL_BYTES}").reshape(arr.shape)


_BLOCK_CELLS = 8192  # cells per assembly buffer, about 200 kB: it stays in cache


def _table_blocks(cells: np.ndarray) -> list[bytes]:
    """Lines of comma-separated cells from a 2-d bytes array, each line ending in a newline.

    Whole lines are assembled a block at a time: each cell and the separator
    after it fill one record of a (lines, cells) buffer, and one ``replace``
    drops the NUL padding.  Blocks keep the buffers small; one buffer for a
    26k-line table raised the peak RSS of a Wigner run.
    """
    n_rows, n_cols = cells.shape
    if n_cols == 0:
        return [b"\n" * n_rows]
    record = np.dtype([("cell", cells.dtype), ("sep", np.uint8)])
    step = max(1, _BLOCK_CELLS // n_cols)
    blocks = []
    for start in range(0, n_rows, step):
        part = cells[start:start + step]
        buf = np.empty(part.shape, dtype=record)
        buf["cell"] = part
        buf["sep"] = ord(",")
        buf["sep"][:, -1] = ord("\n")
        blocks.append(buf.tobytes().replace(b"\0", b""))
    return blocks


def atomic_write_bytes(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` through a unique temporary file, renamed to ``path``;
    it is created as ``open(path, "w")`` would, mode 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cells(table, ndim: int) -> np.ndarray:
    """The cells of a float array, rendered, or of a bytes array, as they are."""
    if not (isinstance(table, np.ndarray) and table.dtype.kind in "fS"):
        raise TypeError(f"expected a float or bytes array, got {type(table).__name__}")
    if table.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {table.shape}")
    return table if table.dtype.kind == "S" else render_cells(table)


def _write_table(path: str, header: Sequence[str], cells: np.ndarray) -> None:
    """Header and cell lines, for both writers; a span traced around ``write_csv`` so
    never holds a ``write_coordinate_matrix`` call, nor counts its file twice."""
    if cells.shape[1] != len(header):
        raise ValueError(f"table has shape {cells.shape}, header has {len(header)} cells")
    head = (",".join(header) + "\n").encode("utf-8")
    atomic_write_bytes(path, head, *_table_blocks(cells))


def write_csv(path: str, header: Sequence[str], table: np.ndarray) -> None:
    """Comma-separated table with a single header line.

    ``table`` is a 2-d float array, rendered by ``render_cells``, or a 2-d
    bytes array of cells already rendered, one column per header cell.
    """
    _write_table(path, header, _cells(table, 2))


def _float_text(x: float) -> str:
    """A double as json writes it: ``float.__repr__``, or NaN / Infinity / -Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _array_text(value: np.ndarray) -> str:
    """A complex array as json's text of its nested [re, im] lists.

    The doubles are keyed by their bits, so -0.0 keeps its own text.  Each is
    followed by the brackets it closes and the separator after it: ``c`` counts
    the trailing axes at their last index, so ``"]" * c + ", " + "[" * c``,
    and ``"]" * ndim`` after the very last double.
    """
    if value.dtype.kind != "c":
        raise TypeError(f"expected a complex array, got dtype {value.dtype}")
    arr = np.asarray(value, dtype=complex)
    pairs = np.stack([arr.real, arr.imag], -1)
    if pairs.size == 0:
        return json.dumps(pairs.tolist())
    bits, inverse = np.unique(pairs.view(np.uint64).ravel(), return_inverse=True)
    texts = np.array([_float_text(x) for x in bits.view(np.float64).tolist()], dtype=object)
    ndim = pairs.ndim
    closes = np.zeros(pairs.shape, dtype=np.intp)
    for k in range(1, ndim + 1):
        closes[(Ellipsis,) + (-1,) * k] += 1
    seps = np.array(["]" * c + ", " + "[" * c for c in range(ndim)] + ["]" * ndim], dtype=object)
    tokens = np.empty(2 * pairs.size, dtype=object)
    tokens[0::2] = texts[inverse]
    tokens[1::2] = seps[closes.ravel()]
    return "[" * ndim + "".join(tokens.tolist())


def write_json(path: str, payload: dict) -> None:
    """Key-sorted JSON on one line, with json's default separators.

    The bytes are ``json.dumps(payload, sort_keys=True)`` with every complex
    array among the payload's values replaced by its nested [re, im] lists.
    An array anywhere else, or a real one, raises ``TypeError`` as json does.
    """
    if not all(isinstance(key, str) for key in payload):
        raise TypeError("JSON payload keys must be strings")
    text = ", ".join(
        json.dumps(key) + ": " + (_array_text(value) if isinstance(value, np.ndarray)
                                  else json.dumps(value, sort_keys=True))
        for key, value in sorted(payload.items()))
    atomic_write_bytes(path, ("{" + text + "}\n").encode("utf-8"))


def pairs_to_array(data) -> np.ndarray:
    """A complex vector or matrix from nested [re, im] pairs, as ``write_json`` writes them.

    Every entry must be a number: booleans and text are refused, not read as 1.0.
    """
    entries = np.asarray(data, dtype=object)
    if entries.ndim > 3:  # before .flat, which refuses more than 32 dimensions
        raise ValueError("expected nested [re, im] pairs")
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entries.flat):
        raise TypeError("[re, im] entries must be numbers")
    arr = entries.astype(float)
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError("expected nested [re, im] pairs")


def write_coordinate_matrix(path: str, row_coords, col_coords, values) -> None:
    """Dense matrix file with leading coordinate row and column, from float or cell arrays."""
    rows_c, cols_c, cells = _cells(row_coords, 1), _cells(col_coords, 1), _cells(values, 2)
    if cells.shape != (rows_c.size, cols_c.size):
        raise ValueError("matrix shape does not match the coordinate axes")
    _write_table(path, ["row\\col", *cols_c.astype(str)],
                 np.concatenate([rows_c[:, None], cells], axis=1))
