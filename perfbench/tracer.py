"""Span tracing from outside the library.

``Tracer.install`` replaces every public function of the abscompat modules
(and every name in an ``abscompat.*`` namespace bound to one of them, such
as ``cli.is_abs_compatible``) with a wrapper that records a span, and does
the same for the ``numpy.linalg`` entry points, including the internal
``svd`` that ``norm(x, 2)`` calls.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent, op).  Spans are kept in memory in
flat arrays and analysed, or written out, after the run.  The span index
is taken on entry, so a parent always has a smaller index than its
children; self time is a span's duration minus its children's durations
(calls are sequential, so children never overlap).
"""

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np
import numpy.linalg
import numpy.linalg._linalg

LAYERS = ("hermitian", "compat", "canonical", "geometry", "generate", "io", "cli")
# private cli helpers traced too: they are the boundary of the emit stage
EXTRA_NAMES = {"cli": ("_emit", "_write_text")}
LINALG = ("eigh", "eigvalsh", "svd", "qr", "norm", "det")
OP_SPAN = "bench.op"

# stage sets for the cli.* per-layer metrics; the outermost span of a set counts
EMIT = ("io.matrix_to_json", "io.save_matrix", "io.dump_json", "cli._emit", "cli._write_text")
READ = ("io.load_matrix", "io.load_json", "io.matrix_from_json")
COMMANDS = ("cli.cmd_check", "cli.cmd_decompose", "cli.cmd_gen", "cli.cmd_geometry", "cli.cmd_fuzz")


class Recorder:
    """Flat in-memory span store."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.current_op = -1
        self.bytes = {"written": {}, "read": {}}  # direction -> op id -> file bytes

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name, parent, op, start, end) as numpy views."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.op, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path) -> None:
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, name=name, parent=parent, op=op, start=start, end=end,
                 names=np.array(self.names))


def _wrap(fn, name: str, rec: Recorder):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(idx)

    return traced


def _wrap_sized(fn, name: str, rec: Recorder, direction: str, path_of):
    """Like _wrap, and adds the size of the file ``path_of(first argument)``
    names, if any, to the current op's ``rec.bytes[direction]`` once the
    call has returned."""
    traced = _wrap(fn, name, rec)
    per_op = rec.bytes[direction]

    @functools.wraps(fn)
    def sized(first, *args, **kwargs):
        out = traced(first, *args, **kwargs)
        path = path_of(first)
        if path:
            op = rec.current_op
            per_op[op] = per_op.get(op, 0) + os.path.getsize(path)
        return out

    return sized


# functions that read or write a whole file: name -> (direction, file path
# from the first argument); cli._write_text writes a file only under --out
SIZED = {
    "io.dump_json": ("written", lambda path: path),
    "io.load_json": ("read", lambda path: path),
    "cli._write_text": ("written", lambda args: getattr(args, "out", None)),
}


def _wrap_norm(fn, rec: Recorder):
    # norm(x, 2) of a matrix is an SVD; every other norm is elementwise
    norm2 = _wrap(fn, "linalg.norm2", rec)
    other = _wrap(fn, "linalg.norm", rec)

    @functools.wraps(fn)
    def traced(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            return norm2(x, ord, *args, **kwargs)
        return other(x, ord, *args, **kwargs)

    return traced


class Tracer:
    """Installs and removes the span wrappers for one Recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        rec = self.rec
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["abscompat." + layer]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA_NAMES.get(layer, ()):
                    continue
                name = "%s.%s" % (layer, attr)
                if name in SIZED:
                    wrapped[fn] = _wrap_sized(fn, name, rec, *SIZED[name])
                else:
                    wrapped[fn] = _wrap(fn, name, rec)
        for modname, mod in list(sys.modules.items()):
            if modname != "abscompat" and not modname.startswith("abscompat."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(mod, attr, wrapped[value])
        for ns in (numpy.linalg, numpy.linalg._linalg):
            for attr in LINALG:
                orig = getattr(ns, attr)
                if attr == "norm":
                    self._rebind(ns, attr, _wrap_norm(orig, rec))
                else:
                    self._rebind(ns, attr, _wrap(orig, "linalg." + attr, rec))

    def _rebind(self, ns, attr, value) -> None:
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, orig = self._undo.pop()
            setattr(ns, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(rec: Recorder) -> np.ndarray:
    """Per-span self time in ns: duration minus the children's durations."""
    _, parent, _, start, end = rec.arrays()
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def _outermost(rec: Recorder, names) -> np.ndarray:
    """Mask of spans named in ``names`` with no ancestor also named there."""
    name, parent, _, _, _ = rec.arrays()
    ids = [rec._ids[n] for n in names if n in rec._ids]
    member = np.isin(name, ids)
    out = member.copy()
    for idx in np.flatnonzero(member):
        p = parent[idx]
        while p >= 0:
            if member[p]:
                out[idx] = False
                break
            p = parent[p]
    return out


def summarize(rec: Recorder, count_ops: int) -> dict:
    """Per-op figures over the spans recorded inside ops (op id >= 0).

    Returns ``calls[name]`` and ``bytes[direction]`` (per op over ops
    ``0 .. count_ops-1``, which repeat exactly for a fixed seed),
    ``self_ms[name]`` (self time per op over every traced op) and the
    ``cli`` stage times per op.
    """
    name, _, op, start, end = rec.arrays()
    in_op = op >= 0
    n_ops = int(op.max()) + 1 if in_op.any() else 0
    if n_ops < count_ops:
        raise ValueError("traced %d ops, fewer than the %d counted" % (n_ops, count_ops))
    selfs = self_times(rec)
    k = len(rec.names)
    window = in_op & (op < count_ops)
    calls = np.bincount(name[window], minlength=k) / count_ops
    self_ns = np.bincount(name[in_op], weights=selfs[in_op], minlength=k) / n_ops
    dur = end - start

    def stage_ms(names):
        mask = _outermost(rec, names) & in_op
        return float(dur[mask].sum()) / n_ops / 1e6

    ids = {n: i for i, n in enumerate(rec.names)}
    run_self = self_ns[ids["cli.run"]] / 1e6 if "cli.run" in ids else 0.0
    parser = stage_ms(("cli.build_parser",))
    emit, read = stage_ms(EMIT), stage_ms(READ)
    return {
        "spans_per_op": int(in_op.sum()) / n_ops,
        "bytes": {d: sum(b for op_id, b in per_op.items() if 0 <= op_id < count_ops) / count_ops
                  for d, per_op in rec.bytes.items()},
        "calls": {n: float(calls[i]) for n, i in ids.items()},
        "self_ms": {n: float(self_ns[i]) / 1e6 for n, i in ids.items()},
        "cli": {
            "parse_args_ms": run_self + parser,
            "emit_ms": emit,
            "read_ms": read,
            "compute_ms": stage_ms(COMMANDS) - emit - read,
        },
    }
