"""The paper's properties, each coded once as a seeded draw and a check.

``REGISTRY`` maps a name to a ``Property``: ``draw(seed, size)`` returns a
trial's raw inputs by name, and ``check(inputs, tol)`` returns
``{residual name: (value, bound)}``, each value recomputed from what the
library returns.  A bound of 0.0 marks an exact property; a boolean
residual is 0.0 when it holds.  ``run`` is the one trial loop, which
``abscompat fuzz`` and the acceptance gate both use.  Draws build their
instances at the default tolerances.  ``import abscompat`` does not load
this module.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .canonical import (
    canonicalize, conjugate_to_pivot, dilate_commuting_pair, exchanged_pivot_form,
    is_strict_projection, is_strict_unitary, pair_from_params, strict_projection_from_params,
    strict_unitary_from_params,
)
from .compat import five_block_decompose, is_abs_compatible, projection_compat_equiv
from .config import DEFAULT_TOL, Tolerances
from .errors import AbscompatError
from .generate import (
    derive_seed, haar_unitary, random_abscompat_pair, random_commuting_projection_effect,
    random_commuting_strict_pair, random_orthogonal_pair, random_pair_params, random_pair_spec,
    random_projection, random_spheroid_partners, random_strict_effect,
    random_strict_projection_params, random_strict_unitary_params,
)
from .geometry import (
    ball_to_sphere, bloch_point, decompose_pair_m2, geometry_report, pair_from_projections,
    sphere_to_ball, spheroid_residual,
)
from .hermitian import dagger, hermitize, is_strict, jordan_product, op_norm


class Property(NamedTuple):
    draw: Callable  # (seed, size) -> {input name: value}
    check: Callable  # (inputs, tol) -> {residual name: (value, bound)}
    sizes: tuple  # size set: matrix dimensions, or site counts for "params"


def _holds(flag) -> tuple:
    return (0.0 if flag else 1.0, 0.0)


def _draw_compat(seed, n):
    a, b = random_abscompat_pair(n, derive_seed(seed, 1), 0.1)
    oa, ob = random_orthogonal_pair(n, derive_seed(seed, 2), 0.1)
    return {"a": a, "b": b, "oa": oa, "ob": ob}


def _check_compat(x, tol):
    """The definition identity on (a, b); on the orthogonal pair (oa, ob),
    ab = 0, a + b <= 1 and absolute compatibility hold together."""
    a, b, oa, ob = x["a"], x["b"], x["oa"], x["ob"]
    fwd = is_abs_compatible(a, b, tol)
    rev = is_abs_compatible(b, a, tol)
    five_block_decompose(oa, ob, tol)
    return {
        "pair_residual": (fwd.residual, tol.compat),
        "symmetry": (abs(fwd.residual - rev.residual), 0.0),
        "orthogonal_product": (op_norm(oa @ ob), tol.compat),
        "orthogonal_residual": (is_abs_compatible(oa, ob, tol).residual, tol.compat),
        "sum_excess": (max(0.0, float(np.linalg.eigvalsh(oa + ob)[-1]) - 1.0), tol.spec),
    }


def _draw_canonical(seed, n):
    x0, params, u = random_pair_params(n, derive_seed(seed, 1), 0.1)
    base_a, base_b = pair_from_params(x0, params)
    return {"x0": x0, "a": hermitize(u @ base_a @ dagger(u)), "b": hermitize(u @ base_b @ dagger(u))}


def _check_canonical(x, tol):
    """Round trip of the canonical form ((p-x0)(x)I2)P0 + (x0(x)I2)P and of
    its pivot-exchanged form."""
    a, b = x["a"], x["b"]
    cf = canonicalize(a, b, tol)
    ra, rb = cf.reconstruct()
    ea, eb = exchanged_pivot_form(cf, tol).reconstruct()
    norms = op_norm(np.array((ra - a, rb - b, ea - ra, eb - rb)))
    return {
        "reconstruction": (float(norms[:2].max()), tol.canon),
        "x0_multiset": (float(np.max(np.abs(np.sort(x["x0"]) - cf.x0))), 1e-9),
        "pivot_exchange": (float(norms[2:].max()), tol.canon),
    }


def _draw_m2(seed, n):
    pivot, target, index = random_pair_spec(derive_seed(seed, 1))
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
        "index_error": (abs(spec.index - x["index"]), 1e-9),
        "pivot_error": (float(pivot), 1e-9),
        "target_error": (float(target), 1e-9),
        "roundtrip": (float(max(roundtrip)), 1e-9),
    }


def _draw_geometry(seed, n):
    """An M2 draw plus eight absolutely compatible partners of its a."""
    x = _draw_m2(seed, n)
    x["partners"] = random_spheroid_partners(x["a"], 8, derive_seed(seed, 2))
    return x


def _check_geometry(x, tol):
    """Poincare-sphere facts: the report's residuals, the sphere/ball point
    bijection both ways, and the constant focal sum of the partners."""
    a, b = x["a"], x["b"]
    report = geometry_report(x["pivot"], x["target"], x["index"], tol)
    c_pt = bloch_point(a, tol)
    r_pt, _ = sphere_to_ball(report.sphere, c_pt, tol)
    c2, d2 = ball_to_sphere(report.sphere, r_pt, tol)
    inverse = max(float(np.linalg.norm(c2 - c_pt)), float(np.linalg.norm(d2 - bloch_point(b, tol))))
    return {
        "report": (max(report.residuals.values()), tol.geo),
        "bijection": (float(np.linalg.norm(r_pt - bloch_point(x["target"], tol))), tol.geo),
        "bijection_inverse": (inverse, tol.geo),
        "spheroid_spread": (spheroid_residual(a, x["partners"], tol).relative_spread, 1e-8),
    }


def _draw_equivalences(seed, n):
    oa, ob = random_orthogonal_pair(n, derive_seed(seed, 1), 0.1)
    p, e = random_commuting_projection_effect(n, derive_seed(seed, 2), 0.1)
    p2 = random_projection(n, 1 + seed % (n - 1), derive_seed(seed, 3))
    e2 = random_strict_effect(n, derive_seed(seed, 4), 0.1)
    return {"oa": oa, "ob": ob, "p": p, "e": e, "p2": p2, "e2": e2}


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


def _draw_fiveblock(seed, n):
    """Direct sum of a strict pair of size n and zero to four identity or
    zero slots, under a Haar conjugation."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    sa, sb = random_abscompat_pair(n, derive_seed(seed, 1))
    slots = []
    for kind in range(4):  # unit_a, unit_b, null_a, null_b
        for _ in range(int(gen.integers(0, 2))):
            v, w = 0.1 + 0.8 * gen.random(), gen.random()
            slots.append(((1.0, w), (w, 1.0), (0.0, v), (v, 0.0))[kind])
    dim = n + len(slots)
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros_like(a)
    a[:n, :n], b[:n, :n] = sa, sb
    diag = np.arange(n, dim)
    a[diag, diag], b[diag, diag] = np.reshape(slots, (-1, 2)).T
    u = haar_unitary(dim, derive_seed(seed, 2))
    return {"a": hermitize(u @ a @ dagger(u)), "b": hermitize(u @ b @ dagger(u)), "strict_rank": n}


def _off_block_mass(x, bases) -> float:
    """Norm of x off the block diagonal of the five bases."""
    v = np.hstack(list(bases.values()))
    block = np.repeat(np.arange(len(bases)), [basis.shape[1] for basis in bases.values()])
    y = dagger(v) @ x @ v
    y[block[:, None] == block] = 0.0
    return op_norm(y)


def _check_fiveblock(x, tol):
    """The five blocks reduce both effects; the strict block has the assembled
    rank, and its compressions are strict and absolutely compatible."""
    fb = five_block_decompose(x["a"], x["b"], tol)
    sa, sb = fb.blocks_a["strict"], fb.blocks_b["strict"]
    mass = max(_off_block_mass(x["a"], fb.bases), _off_block_mass(x["b"], fb.bases))
    return {
        "off_block_mass": (mass, tol.block),
        "strict_rank": (float(abs(fb.ranks()["strict"] - x["strict_rank"])), 0.0),
        "strict_blocks": _holds(is_strict(sa, tol) and is_strict(sb, tol)),
        "strict_compatible": (is_abs_compatible(sa, sb, tol).residual, tol.compat),
    }


def _draw_params(seed, m):
    return {"unitary": random_strict_unitary_params(m, derive_seed(seed, 1)),
            "projection": random_strict_projection_params(m, derive_seed(seed, 2))}


def _check_params(x, tol):
    """Strict unitaries and strict projections built from parameters, and
    the conjugation of the projection to the pivot diag(0, 1)."""
    u = strict_unitary_from_params(x["unitary"])
    p = strict_projection_from_params(x["projection"])
    ue, pe = u.embed(), p.embed()
    conj = conjugate_to_pivot(p, tol).embed()
    pivot = np.diag([0.0, 1.0] * p.m).astype(complex)
    unitarity, idempotence, conjugation = op_norm(
        np.array((dagger(ue) @ ue - np.eye(len(ue)), pe @ pe - pe, dagger(conj) @ pivot @ conj - pe)))
    return {
        "strict_unitary": _holds(is_strict_unitary(u, tol)),
        "unitarity": (float(unitarity), 1e-9),
        "strict_projection": _holds(is_strict_projection(p, tol)),
        "idempotence": (float(idempotence), 1e-9),
        "pivot_conjugation": (float(conjugation), 1e-9),
    }


def _draw_dilation(seed, n):
    a, b = random_commuting_strict_pair(n, derive_seed(seed, 1))
    return {"a": a, "b": b}


def _check_dilation(x, tol):
    """The dilated pair's Jordan product is diag(0, 1 - a^2 - b^2)."""
    a, b = x["a"], x["b"]
    a1, b1 = dilate_commuting_pair(a, b, tol)
    zero = np.zeros_like(a)
    want = np.block([[zero, zero], [zero, np.eye(len(a)) - a @ a - b @ b]])
    return {"jordan_block": (op_norm(jordan_product(a1, b1) - want), 1e-10)}


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
    (prop.sizes by default), checks at tol, and fails on a library error."""
    sizes = sizes or prop.sizes
    out = Outcome()
    for i in range(trials):
        s = derive_seed(seed, i)
        inputs = None
        try:
            inputs = prop.draw(s, sizes[s % len(sizes)])
            results = prop.check(inputs, tol)
        except AbscompatError as exc:
            entry = {"trial": i, "seed": s, "error": "%s: %s" % (type(exc).__name__, exc)}
        else:
            for name, (value, _) in results.items():
                if name not in out.worst or value > out.worst[name]:
                    out.worst[name] = value
            bad = {name: value for name, (value, bound) in results.items() if value > bound}
            if not bad:
                continue
            entry = {"trial": i, "seed": s, "violations": bad}
        if not out.failures:
            out.first_inputs = inputs
        out.failures.append(entry)
    return out
