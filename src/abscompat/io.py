"""Matrix (de)serialization: ``{"n": <int>, "entries": [[[re, im], ...], ...]}``,
row-major, written by ``json_text`` as compact JSON (C-encoded; ``repr`` floats
round-trip doubles exactly). Indented files from earlier versions load the same.
"""

import json
from contextlib import suppress
from itertools import chain

import numpy as np

from .errors import ParseError


def json_text(obj) -> str:
    return json.dumps(obj) + "\n"


def matrix_to_json(x) -> dict:
    try:
        x = np.asarray(x, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError("matrix must be numeric: %s" % exc) from exc
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ParseError("matrix must be square, got shape %r" % (x.shape,))
    return {"n": int(x.shape[0]), "entries": np.stack([x.real, x.imag], -1).tolist()}


def _cell(value, i, j):
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ParseError("entry (%d,%d) is not a [re, im] pair" % (i, j))
    with suppress(OverflowError):  # an int literal beyond double range
        z = complex(float(value[0]), float(value[1]))
        if np.isfinite(z):
            return z
    raise ParseError("entry (%d,%d) is not finite" % (i, j))


def _values(level, n):
    """The 2n^2 values if ``level`` is n rows of n [re, im] lists of finite numbers, else None."""
    for size in (n, 2):  # rows of n cells, then cells of 2 numbers
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) <= {int, float}:
        with suppress(OverflowError):  # an int literal beyond double range
            values = np.array(level, dtype=float)
            return values if np.isfinite(values).all() else None
    return None


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object with keys 'n' and 'entries'")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError("'entries' must be a list of %d rows" % n)
    values = _values(entries, n)
    if values is not None:
        return values.view(complex).reshape(n, n)
    # a whole-list test failed: the loop names the first bad row or cell
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError("row %d must have %d cells" % (i, n))
        for j, cell in enumerate(row):
            out[i, j] = _cell(cell, i, j)
    return out


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(load_json(path))


def save_matrix(path, x) -> None:
    dump_json(path, matrix_to_json(x))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))
