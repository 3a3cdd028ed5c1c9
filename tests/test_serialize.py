import json
import os
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decosim.serialize import (
    atomic_write_bytes,
    format_value,
    pairs_to_array,
    render_cells,
    write_coordinate_matrix,
    write_csv,
    write_json,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_cells_round_trip_exactly(x):
    assert float(format_value(x)) == x


def test_cell_rendering_by_type():
    assert format_value(0.1) == "1.0000000000000001e-01"
    assert format_value(np.float64(-2.5)) == "-2.5000000000000000e+00"


def _awkward_doubles() -> np.ndarray:
    """Special values, random magnitudes across the exponent range, raw bit patterns."""
    special = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3, np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(9)
    randoms = rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
    return np.concatenate([special, randoms, rng.integers(0, 2**63, size=50).view(np.float64)])


def test_write_csv_matches_format_value_byte_for_byte(tmp_path):
    values = _awkward_doubles()
    table = values.reshape(-1, 2)
    path = str(tmp_path / "awkward.csv")
    write_csv(path, ["a", "b"], table)
    lines = open(path).read().splitlines()
    assert lines[0] == "a,b" and len(lines) == table.shape[0] + 1
    cells = [cell for line in lines[1:] for cell in line.split(",")]
    assert cells == [format_value(float(v)) for v in values]
    assert cells == [format_value(v) for v in values]  # numpy scalars too


def _assert_cells_match_format_value(values) -> None:
    values = np.asarray(values, dtype=float)
    cells = render_cells(values)
    assert cells.shape == values.shape and cells.dtype == np.dtype("S24")
    expected = [format_value(v).encode() for v in values.ravel().tolist()]
    mismatches = [(v, c, e) for v, c, e in zip(values.ravel().tolist(), cells.ravel().tolist(),
                                               expected) if c != e]
    assert mismatches == []


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_render_cells_matches_format_value_on_any_float(values):
    _assert_cells_match_format_value(values)


def test_render_cells_matches_format_value_on_raw_bit_patterns():
    bits = np.random.default_rng(12).integers(0, 2**64, size=100_000, dtype=np.uint64)
    _assert_cells_match_format_value(bits.view(np.float64).reshape(-1, 4))


def _exact_ties() -> list[float]:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5."""
    ties = []
    for exponent in range(-70, 0):
        for odd in range(1, 400, 2):
            value = odd * 2.0**exponent
            digits = Decimal(value).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(value)
    return ties


def test_render_cells_edge_values():
    ties = _exact_ties()
    assert 2.0**-25 in ties and len(ties) > 20
    dbl_max, tiny = sys.float_info.max, 5e-324
    near = [np.nextafter(edge, toward) for edge in (1e16, 1e17) for toward in (0.0, np.inf)]
    edges = [0.0, -0.0, dbl_max, -dbl_max, tiny, -tiny, sys.float_info.min,
             2.0**-25, 3 * 2.0**-26, 9.9999999999999998e16, 1e16, 1e17, *near,
             *(10.0**k for k in range(-310, 309))]
    values = np.array(edges + ties)
    _assert_cells_match_format_value(np.concatenate([values, -values]))
    assert render_cells(9.9999999999999998e16).tolist() == b"1.0000000000000000e+17"


def test_cell_arrays_write_the_same_bytes_as_floats(tmp_path):
    table = _awkward_doubles()[: 3 * 50].reshape(-1, 3)
    paths = [str(tmp_path / name) for name in ("floats.csv", "cells.csv")]
    for path, rows in zip(paths, (table, render_cells(table))):
        write_csv(path, ["x", "p", "w"], rows)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    x, p = table[:, 0], table[:5, 1]
    values = _awkward_doubles()[: 50 * 5].reshape(50, 5)
    for path, args in zip(paths, ((x, p, values), tuple(map(render_cells, (x, p, values))))):
        write_coordinate_matrix(path, *args)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    # the shape checks hold in both forms
    for form in (np.asarray, render_cells):
        for bad in (table[:, 0], table[None], table[:, :2]):
            with pytest.raises(ValueError):
                write_csv(paths[0], ["x", "p", "w"], form(bad))


def test_tables_longer_and_wider_than_one_assembly_block(tmp_path):
    rng = np.random.default_rng(5)
    for shape in [(7001, 3), (3, 20_000)]:
        table = rng.normal(size=shape) * 10.0 ** rng.integers(-120, 120, size=shape)
        path = str(tmp_path / "t.csv")
        write_csv(path, [f"c{j}" for j in range(shape[1])], table)
        lines = [",".join(format_value(v) for v in row) for row in table.tolist()]
        assert open(path).read().splitlines()[1:] == lines


def test_write_csv_round_trip(tmp_path):
    path = str(tmp_path / "out" / "table.csv")
    rows = [(0.0, 1.0), (0.25, np.exp(-0.5)), (0.5, np.exp(-1.0))]
    write_csv(path, ["t", "value"], np.array(rows))
    raw = open(path).read().splitlines()
    assert raw[0] == "t,value"
    parsed = [tuple(float(c) for c in line.split(",")) for line in raw[1:]]
    assert parsed == rows
    # identical input, identical bytes
    before = open(path, "rb").read()
    write_csv(path, ["t", "value"], np.array(rows))
    assert open(path, "rb").read() == before


def test_write_csv_rejects_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], np.array([(1.0, 2.0, 3.0)]))
    # a table is an array; rows of Python values and integer arrays are not tables
    for table in ([(1.0, 2.0)], np.array([(1, 2)])):
        with pytest.raises(TypeError):
            write_csv(path, ["a", "b"], table)
    assert not os.path.exists(path)


def test_atomic_write_leaves_no_partial_files(tmp_path):
    path = str(tmp_path / "nested" / "file.txt")
    atomic_write_bytes(path, b"hello\n")
    assert open(path).read() == "hello\n"
    with pytest.raises(TypeError):  # fails after a first chunk is written
        atomic_write_bytes(path, b"partial", "not bytes")
    # the failed write neither clobbered the target nor left a temp file
    assert open(path).read() == "hello\n"
    leftovers = [f for f in os.listdir(tmp_path / "nested") if f != "file.txt"]
    assert leftovers == []


def test_written_files_get_the_mode_open_gives(tmp_path):
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            reference = tmp_path / f"ref-{umask:o}"
            open(reference, "w").close()
            written = str(tmp_path / f"table-{umask:o}.csv")
            write_csv(written, ["a"], np.zeros((1, 1)))
            assert os.stat(written).st_mode == os.stat(reference).st_mode
    finally:
        os.umask(old)


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs: the oracle of ``write_json``'s array text."""
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim not in (1, 2):
        raise ValueError("only vectors and matrices are serialized")
    return np.stack([arr.real, arr.imag], -1).tolist()


def _oracle_json(payload: dict) -> bytes:
    """The bytes ``write_json`` gave when every complex array went through ``matrix_to_pairs``."""
    lists = {k: matrix_to_pairs(v) if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    return (json.dumps(lists, sort_keys=True) + "\n").encode("utf-8")


_EDGE_DOUBLES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                 sys.float_info.max, -sys.float_info.max, 1.0, 0.1, -2.5e-300]
_doubles = st.one_of(st.sampled_from(_EDGE_DOUBLES), st.floats(width=64))
_shapes = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)


def _pack(re, im, shape) -> np.ndarray:
    """Real and imaginary parts set bit for bit.

    ``re + 1j * im`` would drop the sign of -0.0 and turn inf into nan.
    """
    arr = np.empty(shape, dtype=complex)
    arr.real = np.array(re, dtype=float).reshape(shape)
    arr.imag = np.array(im, dtype=float).reshape(shape)
    return arr


@st.composite
def _complex_arrays(draw):
    shape = draw(_shapes)
    size = int(np.prod(shape))
    re = draw(st.lists(_doubles, min_size=size, max_size=size))
    im = draw(st.lists(_doubles, min_size=size, max_size=size))
    return _pack(re, im, shape)


def test_matrix_pairs_round_trip():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.array_equal(pairs_to_array(matrix_to_pairs(mat)), mat)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert np.array_equal(pairs_to_array(matrix_to_pairs(vec)), vec)
    with pytest.raises(ValueError):
        matrix_to_pairs(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        pairs_to_array([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("entry", [True, False, "1", None, [1.0]])
def test_pairs_hold_only_numbers(entry):
    # json booleans and text are not numbers, as for float config fields
    with pytest.raises(TypeError):
        pairs_to_array([[entry, 0], [0, 0]])
    assert np.array_equal(pairs_to_array([[1, 0], [0.5, -2]]), np.array([1, 0.5 - 2j]))


def test_write_json_is_stable(tmp_path):
    path = str(tmp_path / "m.json")
    write_json(path, {"b": 1, "a": matrix_to_pairs(np.eye(2, dtype=complex))})
    text = open(path).read()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(_complex_arrays(),
       st.dictionaries(st.text(max_size=4), st.none() | st.integers() | st.text(max_size=3),
                       max_size=3))
def test_write_json_arrays_match_json_dumps_of_pairs(tmp_path_factory, arr, extra):
    path = str(tmp_path_factory.getbasetemp() / "arrays.json")
    payload = {**extra, "basis": arr, "zz": arr.T}
    write_json(path, payload)
    with open(path, "rb") as handle:
        assert handle.read() == _oracle_json(payload)


@pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0), (1, 1)])
def test_write_json_empty_and_tiny_arrays(tmp_path, shape):
    path = str(tmp_path / "a.json")
    arr = _pack([-0.0] * int(np.prod(shape)), [np.nan] * int(np.prod(shape)), shape)
    write_json(path, {"a": arr})
    with open(path, "rb") as handle:
        assert handle.read() == _oracle_json({"a": arr})


def test_write_json_complex64_widens_like_the_oracle(tmp_path):
    arr = (np.arange(6).reshape(2, 3) / 7 + 1j / 3).astype(np.complex64)
    path = str(tmp_path / "a.json")
    write_json(path, {"a": arr})
    with open(path, "rb") as handle:
        assert handle.read() == _oracle_json({"a": arr})


@pytest.mark.parametrize("payload", [
    {"a": np.zeros(3)},                         # real ndarray
    {"a": [np.zeros(2, dtype=complex)]},        # array nested in a list
    {"a": {"b": np.zeros(2, dtype=complex)}},   # array nested in a dict
    {1: "key is not text"},                     # json would write it as "1"
])
def test_write_json_refuses_unserializable_payloads(tmp_path, payload):
    path = tmp_path / "a.json"
    with pytest.raises(TypeError):
        write_json(str(path), payload)
    assert not path.exists()


def test_coordinate_matrix_layout(tmp_path):
    path = str(tmp_path / "grid.csv")
    x = np.array([0.0, 1.0])
    p = np.array([-1.0, 0.0, 1.0])
    values = np.arange(6.0).reshape(2, 3)
    write_coordinate_matrix(path, x, p, values)
    lines = open(path).read().splitlines()
    assert lines[0].split(",")[0] == "row\\col"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(c) for c in first[1:]] == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        write_coordinate_matrix(path, x, p, values.T)
    # coordinate and matrix cells rendered beforehand give the same bytes
    before = open(path, "rb").read()
    x_cells, p_cells, cells = render_cells(x), render_cells(p), render_cells(values)
    write_coordinate_matrix(path, x_cells, p_cells, cells)
    assert open(path, "rb").read() == before
    with pytest.raises(ValueError):
        write_coordinate_matrix(path, x_cells, p_cells, cells[:, :2])
    with pytest.raises(ValueError):
        write_coordinate_matrix(path, x_cells[:1], p_cells, cells)
    with pytest.raises(ValueError):
        write_coordinate_matrix(path, x_cells[:, None], p_cells, cells)
