import json

import numpy as np
import pytest

from abscompat import io
from abscompat.config import DEFAULT_TOL
from abscompat.errors import DomainError, ParseError
from abscompat.io import load_json, load_matrix, matrix_from_json, matrix_to_json, save_matrix


def test_round_trip_exact(tmp_path):
    gen = np.random.Generator(np.random.Philox(key=2))
    x = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    path = tmp_path / "x.json"
    save_matrix(path, x)
    back = load_matrix(path)
    # decimal repr of doubles is read back bit for bit
    assert np.array_equal(back, x)


def test_schema_shape():
    blob = matrix_to_json(np.eye(2, dtype=complex))
    assert blob["n"] == 2
    assert blob["entries"][0][0] == [1.0, 0.0]
    assert blob["entries"][0][1] == [0.0, 0.0]


def test_parse_errors():
    with pytest.raises(ParseError):
        matrix_from_json({"entries": [[[1.0, 0.0]]]})  # no n
    with pytest.raises(ParseError):
        matrix_from_json({"n": 2, "entries": [[[1.0, 0.0]]]})  # wrong row count
    with pytest.raises(ParseError):
        matrix_from_json({"n": 1, "entries": [[[1.0]]]})  # cell too short
    with pytest.raises(ParseError):
        matrix_from_json({"n": 1, "entries": [[["a", 0.0]]]})
    with pytest.raises(ParseError, match="^expected a JSON object with keys 'n' and 'entries'$"):
        matrix_from_json([[1.0, 0.0]])
    with pytest.raises(ParseError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        matrix_to_json(np.zeros((2, 3)))


def test_empty_matrix_loads():
    """A rank-0 block of a five-block file is written as the 0x0 matrix."""
    blob = matrix_to_json(np.zeros((0, 0), dtype=complex))
    assert blob == {"n": 0, "entries": []}
    back = matrix_from_json(blob)
    assert back.shape == (0, 0) and back.dtype == complex
    assert matrix_to_json(back) == blob


@pytest.mark.parametrize("n", [-1, True, 2.0, "2", None])
def test_n_must_be_a_non_negative_integer(n):
    with pytest.raises(ParseError, match="^'n' must be a non-negative integer$"):
        matrix_from_json({"n": n, "entries": []})


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "absent.json")


def test_tolerance_override():
    tol = DEFAULT_TOL.override(compat=1e-6, geo=None)
    assert tol.compat == 1e-6
    assert tol.geo == DEFAULT_TOL.geo
    with pytest.raises(ValueError):
        DEFAULT_TOL.override(compat=-1.0)
    with pytest.raises(DomainError, match="^unknown tolerance 'bogus'$"):
        DEFAULT_TOL.override(bogus=1.0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _edge_matrix():
    gen = np.random.Generator(np.random.Philox(key=5))
    x = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
    x[0, 0] = complex(-0.0, 0.0)
    x[0, 1] = complex(0.0, -0.0)
    x[1, 2] = complex(5e-324, -2.5e-310)  # subnormals
    x[2, 3] = complex(1e308, -1e308)
    x[3, 4] = complex(-1.7976931348623157e308, 2.2250738585072014e-308)
    return x


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_round_trip_bit_exact_any_layout(tmp_path, layout):
    x = _edge_matrix()
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        big = np.zeros((16, 16), dtype=complex)
        big[::2, ::2] = x
        x = big[::2, ::2]
    # the per-cell loop matrix_to_json replaced is the reference, sign of zero included
    reference = [[[repr(float(x[i, j].real)), repr(float(x[i, j].imag))] for j in range(8)]
                 for i in range(8)]
    entries = matrix_to_json(x)["entries"]
    assert [[list(map(repr, cell)) for cell in row] for row in entries] == reference
    path = tmp_path / "x.json"
    save_matrix(path, x)
    back = load_matrix(path)
    assert np.array_equal(_bits(back), _bits(x))


def test_written_json_is_compact(tmp_path):
    path = tmp_path / "x.json"
    save_matrix(path, _edge_matrix())
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(json.loads(text)) + "\n"


def test_indented_file_still_loads(tmp_path):
    """Files written with indent=2, as earlier versions did, load bit-exactly."""
    x = _edge_matrix()
    path = tmp_path / "x.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(x), fh, indent=2)
        fh.write("\n")
    assert np.array_equal(_bits(load_matrix(path)), _bits(x))


_GOOD = "[0.25, -1]"


def _matrix_text(n, cells):
    """JSON text of an n x n matrix of _GOOD cells with ``cells[(i, j)]``
    (JSON text) in place; a row given as ``cells[i]`` replaces row i whole."""
    rows = []
    for i in range(n):
        if i in cells:
            rows.append(cells[i])
        else:
            rows.append("[" + ", ".join(cells.get((i, j), _GOOD) for j in range(n)) + "]")
    return '{"n": %d, "entries": [%s]}' % (n, ", ".join(rows))


@pytest.mark.parametrize("cells, message", [
    ({(1, 2): "[true, 0.0]"}, "entry (1,2) is not a [re, im] pair"),
    ({(1, 2): '["0.5", 0.0]'}, "entry (1,2) is not a [re, im] pair"),
    ({(1, 2): "[0.5, null]"}, "entry (1,2) is not a [re, im] pair"),
    ({(1, 2): "null"}, "entry (1,2) is not a [re, im] pair"),
    ({(1, 2): "[NaN, 0.0]"}, "entry (1,2) is not finite"),
    ({(1, 2): "[0.0, -Infinity]"}, "entry (1,2) is not finite"),
    ({(1, 2): "[1e400, 0.0]"}, "entry (1,2) is not finite"),
    ({(1, 2): "[0.0, 1" + "0" * 400 + "]"}, "entry (1,2) is not finite"),
    ({(1, 2): "[0.5, 0.0, 0.0]"}, "entry (1,2) is not a [re, im] pair"),
    ({(1, 2): "[0.5]"}, "entry (1,2) is not a [re, im] pair"),
    ({1: "[%s, %s]" % (_GOOD, _GOOD)}, "row 1 must have 3 cells"),
    ({1: '"row"'}, "row 1 must have 3 cells"),
    # the first fault in row-major order is named
    ({(0, 2): "[true, 0.0]", 1: "[]"}, "entry (0,2) is not a [re, im] pair"),
    ({(2, 0): "[NaN, 0.0]", (1, 1): "[0.5]"}, "entry (1,1) is not a [re, im] pair"),
], ids=["true", "string", "null-value", "null-cell", "nan", "infinity", "1e400",
        "over-range-int", "three-values", "one-value", "ragged-row", "string-row",
        "first-fault-cell", "first-fault-row-major"])
def test_rejections_name_the_cell(cells, message):
    obj = json.loads(_matrix_text(3, cells))
    with pytest.raises(ParseError) as info:
        matrix_from_json(obj)
    assert str(info.value) == message


def test_valid_input_never_reaches_the_cell_loop(monkeypatch):
    """Valid input, including int literals, passes the whole-array tests
    and never takes the per-cell path."""
    def boom(*args):
        raise AssertionError("per-cell path taken on valid input")

    x = _edge_matrix()
    x = np.kron(np.ones((8, 8)), x)  # n = 64
    blob = json.loads(json.dumps(matrix_to_json(x)))
    blob["entries"][3][5] = [2, -7]
    monkeypatch.setattr(io, "_cell", boom)
    back = matrix_from_json(blob)
    x[3, 5] = complex(2.0, -7.0)
    assert np.array_equal(_bits(back), _bits(x))


def test_exotic_but_valid_cells_still_load():
    """Tuples and number subclasses fail the exact-type whole-list tests but
    are valid cells, as before: the per-cell path accepts them."""
    blob = {"n": 2, "entries": [[(1, 0), [np.float64(0.5), 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    assert np.array_equal(matrix_from_json(blob), np.array([[1, 0.5], [0, 1]], dtype=complex))


def test_load_json_rejects_non_utf8(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_json(path)
