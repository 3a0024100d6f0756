"""The paper's properties, each coded once as a seeded draw and a check,
both over batches of trials.

``REGISTRY`` maps a name to a ``Property``.  ``draw(seeds, size)`` returns
the raw inputs of one trial per seed by name, each with the trial as its
first axis: a stack from the generators' batch cores, or a list for
fiveblock, whose slot count sets each trial's size.  A trial's
generators take its own seed, so it draws the same bits in any batch.
``check(stacks, tol)`` returns ``{residual name: (per-trial values,
bound)}``, each value recomputed from what the stacked library calls
return for the whole batch: canonical through the stacked core of
canonicalize, compat and fiveblock through that of five_block_decompose,
which runs each pattern of block ranks as one computation, and fiveblock
as one stack per size.  Every bound is a field of the check's
tolerances, so each ``--tol-*`` flag reaches it, or 0.0 for an exact
property; a boolean residual is 0.0 when it holds.  ``run`` is the one
trial loop, which ``abscompat fuzz`` and the acceptance gate both use.
It checks the trials of each size as one batch and runs a batch that
raises again one trial at a time, so its ``Outcome`` is the one a loop
over single trials gives.  Draws build their instances at the default
tolerances.  ``import abscompat`` does not load this module.
"""

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .canonical import (
    StrictProjectionParams, StrictUnitaryParams, _canonical, conjugate_to_pivot, dilate_commuting_pair,
    exchanged_pivot_form, is_strict_projection, is_strict_unitary, params_from_strict_projection,
    params_from_strict_unitary, projection_pair_from_unitary, strict_projection_from_params,
    strict_unitary_from_params,
)
from .compat import _five_blocks, is_abs_compatible, projection_compat_equiv
from .config import DEFAULT_TOL, Tolerances
from .errors import AbscompatError
from .generate import (
    _abscompat_pairs, _commuting_projection_effects, _commuting_strict_pairs, _haar_unitaries,
    _orthogonal_pairs, _pair_specs, _projections, _site_params, _spheroid_partners, _streams, _strict_effects,
    derive_seed,
)
from .geometry import (
    ball_to_sphere, bloch_point, decompose_pair_m2, geometry_report, pair_from_projections,
    sphere_to_ball, spheroid_residual,
)
from .hermitian import _hermitian_pair, _strict_rows, _vnorm, dagger, hermitize, jordan_product, op_norm


class Property(NamedTuple):
    draw: Callable  # (seeds, size) -> {input name: the trials' values, a stack or a list}
    check: Callable  # (stacks, tol) -> {residual name: (per-trial values, bound)}
    sizes: tuple  # size set: matrix dimensions, or site counts for "params"


def _holds(flags) -> tuple:
    return (np.where(flags, 0.0, 1.0), 0.0)


def _larger(x, y):
    """max(x, y) per trial as Python's max takes it: y only where y > x."""
    return np.where(y > x, y, x)


def _grouped(keys) -> dict:
    """The positions of each key among keys, by key in order of first appearance."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _derived(seeds, index) -> list:
    """Each trial's seed for its index-th generator."""
    return [derive_seed(s, index) for s in seeds]


def _draw_compat(seeds, n):
    _, a, b = _abscompat_pairs(n, _derived(seeds, 1), 0.1)
    oa, ob = _orthogonal_pairs(n, _derived(seeds, 2), 0.1)
    return {"a": a, "b": b, "oa": oa, "ob": ob}


def _check_compat(x, tol):
    """The definition identity on (a, b); on the orthogonal pair (oa, ob),
    ab = 0, a + b <= 1 and absolute compatibility hold together, and the
    five-block decomposition of the whole batch passes its checks, one
    computation per pattern of block ranks (compat._five_blocks).  Each
    residual follows the package's one rule, a certified upper bound
    within its tolerance and the exact norm above it: the pair residual
    is is_abs_compatible's, and the orthogonal residual is the bound the
    decomposition's certificate took."""
    a, b, oa, ob = x["a"], x["b"], x["oa"], x["ob"]
    fwd = is_abs_compatible(a, b, tol)
    rev = is_abs_compatible(b, a, tol)
    orthogonal, _ = _five_blocks(*_hermitian_pair(oa, ob, tol, stack=True), tol)
    return {
        "pair_residual": (fwd.residual, tol.compat),
        "symmetry": (np.abs(fwd.residual - rev.residual), 0.0),
        "orthogonal_product": (op_norm(oa @ ob), tol.compat),
        "orthogonal_residual": (orthogonal, tol.compat),
        "sum_excess": (_larger(0.0, np.linalg.eigvalsh(oa + ob)[:, -1] - 1.0), tol.spec),
    }


def _draw_canonical(seeds, n):
    x0, a, b = _abscompat_pairs(n, _derived(seeds, 1), 0.1)
    return {"x0": x0, "a": a, "b": b}


def _check_canonical(x, tol):
    """Round trip of the canonical form ((p-x0)(x)I2)P0 + (x0(x)I2)P and of
    its pivot-exchanged form."""
    a, b = _hermitian_pair(x["a"], x["b"], tol, stack=True)
    cf = _canonical(a, b, tol)
    (ra, rb), (ea, eb) = cf.reconstruct(), exchanged_pivot_form(cf, tol).reconstruct()
    norms = op_norm(np.stack((ra - a, rb - b, ea - ra, eb - rb), axis=-3))
    return {
        "reconstruction": (norms[..., :2].max(axis=-1), tol.canon),
        "x0_multiset": (np.max(np.abs(np.sort(x["x0"]) - cf.x0), axis=-1), tol.spec),
        "pivot_exchange": (norms[..., 2:].max(axis=-1), tol.canon),
    }


def _draw_m2(seeds, n):
    pivot, target, index = _pair_specs(_derived(seeds, 1), 0.05)
    a, b = pair_from_projections(pivot, target, index)
    return {"pivot": pivot, "target": target, "index": index, "a": a, "b": b}


def _check_m2(x, tol):
    """Recovery of the M2 characterization's (pivot, target, index)."""
    a, b = x["a"], x["b"]
    spec = decompose_pair_m2(a, b, tol)
    ra, rb = pair_from_projections(spec.pivot, spec.target, spec.index, tol)
    pivot, target, *roundtrip = op_norm(
        np.array((spec.pivot - x["pivot"], spec.target - x["target"], ra - a, rb - b)))
    return {
        "index_error": (np.abs(spec.index - x["index"]), tol.geo),
        "pivot_error": (pivot, tol.geo),
        "target_error": (target, tol.geo),
        "roundtrip": (_larger(*roundtrip), tol.geo),
    }


def _draw_geometry(seeds, n):
    """An M2 draw plus eight absolutely compatible partners of its a."""
    x = _draw_m2(seeds, n)
    x["partners"] = _spheroid_partners(x["a"], 8, _derived(seeds, 2), DEFAULT_TOL)
    return x


def _check_geometry(x, tol):
    """Poincare-sphere facts: the report's residuals, the sphere/ball point
    bijection both ways, and the constant focal sum of the partners."""
    a, b = x["a"], x["b"]
    report = geometry_report(x["pivot"], x["target"], x["index"], tol)
    c_pt = bloch_point(a, tol)
    r_pt, _ = sphere_to_ball(report.sphere, c_pt, tol)
    c2, d2 = ball_to_sphere(report.sphere, r_pt, tol)
    inverse = _larger(_vnorm(c2 - c_pt), _vnorm(d2 - bloch_point(b, tol)))
    return {
        "report": (reduce(_larger, report.residuals.values()), tol.geo),
        "bijection": (_vnorm(r_pt - bloch_point(x["target"], tol)), tol.geo),
        "bijection_inverse": (inverse, tol.geo),
        "spheroid_spread": (spheroid_residual(a, x["partners"], tol).relative_spread, tol.geo),
    }


def _draw_equivalences(seeds, n):
    oa, ob = _orthogonal_pairs(n, _derived(seeds, 1), 0.1)
    p, e = _commuting_projection_effects(n, _derived(seeds, 2), 0.1)
    p2 = _projections(n, [1 + s % (n - 1) for s in seeds], _derived(seeds, 3))
    return {"oa": oa, "ob": ob, "p": p, "e": e, "p2": p2, "e2": _strict_effects(n, _derived(seeds, 4), 0.1)}


def _check_equivalences(x, tol):
    """The orthogonal pair is compatible; a projection is absolutely compatible
    with an effect exactly when they commute, on commuting and generic draws."""
    oa, ob = x["oa"], x["ob"]
    lhs, rhs = projection_compat_equiv(x["p"], x["e"], tol)
    lhs2, rhs2 = projection_compat_equiv(x["p2"], x["e2"], tol)
    return {
        "orthogonal_compatible": (is_abs_compatible(oa, ob, tol).residual, tol.compat),
        "orthogonal_product": (op_norm(oa @ ob), tol.compat),
        "criterion_commuting": _holds(lhs == rhs),
        "criterion_generic": _holds(lhs2 == rhs2),
    }


def _draw_fiveblock(seeds, n):
    """Direct sums of a strict pair of size n and zero to four identity or
    zero slots, under a Haar conjugation: a and b are lists, as each trial
    draws its slot count, and the trials of one size are conjugated as one."""
    _, sa, sb = _abscompat_pairs(n, _derived(seeds, 1), 0.1)
    slots = []
    for gen in _streams(seeds):
        slots.append([])
        for kind in range(4):  # unit_a, unit_b, null_a, null_b
            for _ in range(int(gen.integers(0, 2))):
                v, w = 0.1 + 0.8 * gen.random(), gen.random()
                slots[-1].append(((1.0, w), (w, 1.0), (0.0, v), (v, 0.0))[kind])
    a, b = [None] * len(seeds), [None] * len(seeds)
    for count, members in _grouped(map(len, slots)).items():
        dim, diag = n + count, np.arange(n, n + count)
        pair = np.zeros((2, len(members), dim, dim), dtype=complex)
        pair[:, :, :n, :n] = sa[members], sb[members]
        values = np.reshape([slots[i] for i in members], (len(members), count, 2))
        pair[:, :, diag, diag] = np.moveaxis(values, -1, 0)
        u = _haar_unitaries(dim, [derive_seed(seeds[i], 2) for i in members])
        for i, x, y in zip(members, *hermitize(u @ pair @ dagger(u))):
            a[i], b[i] = x, y
    return {"a": a, "b": b, "strict_rank": [n] * len(seeds)}


def _off_block_mass(x, bases):
    """Norm of x off the block diagonal of the five bases, over leading axes."""
    v = np.concatenate(list(bases.values()), axis=-1)
    block = np.repeat(np.arange(len(bases)), [basis.shape[-1] for basis in bases.values()])
    y = dagger(v) @ x @ v
    y[..., block[:, None] == block] = 0.0
    return op_norm(y)


def _check_fiveblock(x, tol):
    """The five blocks reduce both effects; the strict block has the assembled
    rank, and its compressions are strict and absolutely compatible.  The
    trials of each size run through five_block_decompose's core as one stack."""
    out = np.empty((4, len(x["a"])))
    for members in _grouped(len(a) for a in x["a"]).values():
        a, b = (np.array([x[name][i] for i in members]) for name in "ab")
        _, groups = _five_blocks(*_hermitian_pair(a, b, tol, stack=True), tol)
        for (at,), fb in groups:
            rows = np.array(members)[at]
            sa, sb = fb.blocks_a["strict"], fb.blocks_b["strict"]
            # is_strict of each compression: no singular value at 0 or at 1
            strict = np.all(_strict_rows(np.linalg.svd(np.stack((sa, sb)), compute_uv=False), tol), axis=0)
            out[:, rows] = (_larger(_off_block_mass(a[at], fb.bases), _off_block_mass(b[at], fb.bases)),
                            np.abs(sa.shape[-1] - np.array(x["strict_rank"])[rows]),
                            np.where(strict, 0.0, 1.0), is_abs_compatible(sa, sb, tol).residual)
    names = ("off_block_mass", "strict_rank", "strict_blocks", "strict_compatible")
    return dict(zip(names, zip(out, (tol.block, 0.0, 0.0, tol.compat))))


def _draw_params(seeds, m):
    """The raw per-site parameters of a strict unitary, then of a strict projection."""
    params = _site_params(m, _derived(seeds, 1), 0.1, 3) + _site_params(m, _derived(seeds, 2), 0.1, 1)
    return dict(zip(("a0", "w1", "w2", "w3", "p_a0", "p_w"), params))


def _check_params(x, tol):
    """Strict unitaries and strict projections built from parameters, the
    conjugation of the projection to the pivot diag(0, 1), and the
    inverse maps: the parameters read back from each rebuild it, and the
    row projections of the unitary sum to one."""
    u = strict_unitary_from_params(StrictUnitaryParams(x["a0"], x["w1"], x["w2"], x["w3"]))
    p = strict_projection_from_params(StrictProjectionParams(x["p_a0"], x["p_w"]))
    ue, pe = u.embed(), p.embed()
    conj = conjugate_to_pivot(p, tol).embed()
    pivot = np.diag([0.0, 1.0] * p.m).astype(complex)
    one = np.eye(ue.shape[-1])
    p_back = strict_projection_from_params(params_from_strict_projection(p, tol)).embed()
    u_back = strict_unitary_from_params(params_from_strict_unitary(u, tol)).embed()
    row, rest = (q.embed() for q in projection_pair_from_unitary(u, tol))
    unitarity, idempotence, conjugation, p_trip, u_trip, row_sum = op_norm(
        np.array((dagger(ue) @ ue - one, pe @ pe - pe, dagger(conj) @ pivot @ conj - pe,
                  p_back - pe, u_back - ue, row + rest - one)))
    return {
        "strict_unitary": _holds(is_strict_unitary(u, tol)),
        "unitarity": (unitarity, tol.unit),
        "strict_projection": _holds(is_strict_projection(p, tol)),
        "idempotence": (idempotence, tol.proj),
        "pivot_conjugation": (conjugation, tol.proj),
        "projection_params": (p_trip, tol.proj),
        "unitary_params": (u_trip, tol.unit),
        "row_projections": (row_sum, tol.proj),
    }


def _draw_dilation(seeds, n):
    a, b = _commuting_strict_pairs(n, _derived(seeds, 1), 0.05)
    return {"a": a, "b": b}


def _check_dilation(x, tol):
    """The dilated pair's Jordan product is diag(0, 1 - a^2 - b^2)."""
    a, b = x["a"], x["b"]
    a1, b1 = dilate_commuting_pair(a, b, tol)
    zero = np.zeros_like(a)
    want = np.block([[zero, zero], [zero, np.eye(a.shape[-1]) - a @ a - b @ b]])
    return {"jordan_block": (op_norm(jordan_product(a1, b1) - want), tol.proj)}


REGISTRY = {
    "compat": Property(_draw_compat, _check_compat, (2, 4, 8)),
    "canonical": Property(_draw_canonical, _check_canonical, (2, 4, 8)),
    "m2": Property(_draw_m2, _check_m2, (2,)),
    "geometry": Property(_draw_geometry, _check_geometry, (2,)),
    "equivalences": Property(_draw_equivalences, _check_equivalences, (2, 4, 8)),
    "fiveblock": Property(_draw_fiveblock, _check_fiveblock, (2, 4)),
    "params": Property(_draw_params, _check_params, (1, 2, 3)),
    "dilation": Property(_draw_dilation, _check_dilation, (1, 2, 3, 4)),
}


@dataclass
class Outcome:
    """Worst value of each residual, one entry per failing trial, and the
    inputs of the first failing trial (None when its draw raised)."""

    worst: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    first_inputs: Optional[dict] = None


def run(prop: Property, trials: int, seed, tol: Tolerances = DEFAULT_TOL, sizes=None) -> Outcome:
    """Trial i draws from s = derive_seed(seed, i) at size sizes[s % len(sizes)]
    (prop.sizes by default), checks at tol, and fails on a library error.
    The trials of each size are checked as one batch (_batch), and the
    outcome is then read in trial order."""
    sizes = sizes or prop.sizes
    seeds = [derive_seed(seed, i) for i in range(trials)]
    done = [None] * trials
    for size, members in _grouped(sizes[s % len(sizes)] for s in seeds).items():
        for i, trial in zip(members, _batch(prop, [seeds[i] for i in members], size, tol)):
            done[i] = trial
    out = Outcome()
    for i, (results, inputs) in enumerate(done):
        if isinstance(results, AbscompatError):
            entry = {"trial": i, "seed": seeds[i], "error": "%s: %s" % (type(results).__name__, results)}
        else:
            for name, (value, _) in results.items():
                if name not in out.worst or value > out.worst[name]:
                    out.worst[name] = value
            bad = {name: value for name, (value, bound) in results.items() if value > bound}
            if not bad:
                continue
            entry = {"trial": i, "seed": seeds[i], "violations": bad}
        if not out.failures:
            out.first_inputs = inputs
        out.failures.append(entry)
    return out


def _batch(prop: Property, seeds, size, tol: Tolerances) -> list:
    """(results, inputs) for each trial of a batch of one size: results maps
    each residual to (value, bound), or is the library error the trial
    raised; inputs are the trial's own inputs when it fails (None when its
    draw raised), else None.  A batch that raises runs again one trial at
    a time, so each error is the one its trial raises alone."""
    stacks = None
    try:
        stacks = prop.draw(seeds, size)
        checked = prop.check(stacks, tol)
    except AbscompatError as exc:
        if len(seeds) > 1:
            return [trial for s in seeds for trial in _batch(prop, [s], size, tol)]
        return [(exc, None if stacks is None else _inputs(stacks, 0))]
    values = [(name, np.asarray(value).tolist(), bound) for name, (value, bound) in checked.items()]
    out = []
    for j in range(len(seeds)):
        results = {name: (value[j], bound) for name, value, bound in values}
        failed = any(value > bound for value, bound in results.values())
        out.append((results, _inputs(stacks, j) if failed else None))
    return out


def _inputs(stacks, j) -> dict:
    """Trial j's own inputs, by name."""
    return {name: x[j] for name, x in stacks.items()}
