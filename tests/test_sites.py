"""Checks taken on the 2x2 sites of site-block matrices.

pair_from_params checks its pair, and is_strict_unitary,
is_strict_projection, params_from_strict_projection and
conjugate_to_pivot take their norms, on the (..., m, 2, 2) site blocks
rather than on the embedded 2m x 2m matrices.  The embedded matrices
have exact zeros off their sites, so each site-wise value is the one the
whole matrix gives.  The references below are the embedded checks these
replaced, kept here to compare against: on every input both pass with
the same bits, or both raise the same class with the same message.  A
number in a message is a computed norm; where it sits at the rounding
level, as the residual of an exactly compatible pair does under a
tolerance below that level, the two computations round apart, so such
numbers must agree to within the rounding allowance delta(n) instead.
"""

import itertools
import re
import sys

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError, canonical, properties
from abscompat.canonical import (
    PIVOT_0,
    SiteBlockMatrix,
    StrictProjectionParams,
    StrictUnitaryParams,
    _embed,
    _pivot_unitary,
    _projection_blocks,
    _site_pairs,
    canonicalize,
    conjugate_to_pivot,
    exchanged_pivot_form,
    is_strict_projection,
    is_strict_unitary,
    pair_from_params,
    params_from_strict_projection,
    params_from_strict_unitary,
    projection_pair_from_unitary,
    strict_projection_from_params,
    strict_unitary_from_params,
)
from abscompat.compat import _built_pair, _sylvester_bounds
from abscompat.errors import NotStrictProjection, NotUnitary, PostconditionFailure
from abscompat.generate import (
    _site_params,
    derive_seed,
    random_abscompat_pair,
    random_pair_params,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.geometry import decompose_pair_m2
from abscompat.hermitian import (
    _ROUNDING,
    _hnorm_upto,
    _per_matrix,
    _projection,
    _require,
    _strict_rows,
    as_matrix,
    dagger,
    identity_like,
)

NUMBER = re.compile(r"[-+]?\d\.\d{3}e[-+]\d+")


# --- the embedded checks, as they were before they moved to the sites ---


def _embedded_pair_from_params(x0, params, tol):
    x0 = np.broadcast_to(np.asarray(x0, dtype=float), params.a0.shape)
    sa, sb = _site_pairs(x0, params.a0, params.w)
    return _built_pair(_embed(sa), _embed(sb), tol,
                       (PostconditionFailure, "constructed pair is not strict at this tolerance"))


def _embedded_is_strict_unitary(u, tol):
    u = canonical._sites(u)
    x = as_matrix(u.embed(), stack=True)
    dev = _hnorm_upto(dagger(x) @ x - identity_like(x), tol.unit)
    _require(dev <= tol.unit, NotUnitary, "||U*U - I|| = %.3e > %.3e", dev, tol.unit)
    return _per_matrix(np.all(_strict_rows(u.blocks, tol), axis=(-2, -1)))


def _embedded_is_strict_projection(p, tol):
    p = canonical._sites(p)
    _projection(p.embed(), tol, stack=True)
    trace = np.real(p.entry(0, 0) + p.entry(1, 1))
    unit = np.all(np.abs(trace - 1.0) <= tol.proj, axis=-1)
    return _per_matrix(unit & _strict_rows(np.real(p.entry(0, 0)), tol))


def _embedded_read(p, tol, not_strict):
    p = canonical._sites(p)
    _require(_embedded_is_strict_projection(p, tol), NotStrictProjection, not_strict)
    a0 = np.sqrt(np.real(p.entry(0, 0)))
    w = p.entry(0, 1) / (a0 * np.sqrt(1.0 - a0 * a0))
    return p, a0, w / np.abs(w)


def _embedded_params_from_strict_projection(p, tol):
    p, a0, w = _embedded_read(p, tol, "not a strict projection")
    dev = _hnorm_upto(_embed(_projection_blocks(a0, w) - p.blocks), tol.proj)
    _require(dev <= tol.proj, PostconditionFailure, "projection parameter residual %.3e", dev)
    return StrictProjectionParams(a0=a0, w=w)


def _embedded_conjugate_to_pivot(p, tol):
    p, a0, w = _embedded_read(p, tol, "conjugation to the pivot needs a strict projection")
    u = _pivot_unitary(a0, w)
    dev = _hnorm_upto(_embed(dagger(u) @ PIVOT_0 @ u - p.blocks), tol.proj)
    _require(dev <= tol.proj, PostconditionFailure, "pivot conjugation residual %.3e", dev)
    return SiteBlockMatrix(u)


# --- comparing the two ---


def _outcome(call):
    """("pass", the arrays call returns) or (error class, message)."""
    try:
        out = call()
    except AbscompatError as exc:
        return type(exc), str(exc)
    if isinstance(out, SiteBlockMatrix):
        out = (out.blocks,)
    elif isinstance(out, StrictProjectionParams):
        out = (out.a0, out.w)
    elif not isinstance(out, tuple):
        out = (np.asarray(out),)
    return "pass", out


def _assert_same(site, embedded, n):
    assert site[0] == embedded[0], (site, embedded)
    if site[0] == "pass":
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(site[1], embedded[1]))
        return
    assert NUMBER.sub("#", site[1]) == NUMBER.sub("#", embedded[1]), (site, embedded)
    for x, y in zip(NUMBER.findall(site[1]), NUMBER.findall(embedded[1])):
        assert x == y or abs(float(x) - float(y)) <= _ROUNDING * n, (site, embedded)


def _params(x0, a0, w=1.0):
    a0 = np.asarray(a0, dtype=float)
    return np.asarray(x0, dtype=float), StrictProjectionParams(a0, np.broadcast_to(w, a0.shape))


def _pair_cases():
    """(x0, params): drawn sites at m = 1, 2, 3 and 48, sites with x0 or
    a0 on either side of the strictness cut and x0 small enough that the
    Sylvester bound leaves the site open, and stacks of them."""
    for n in (2, 4, 6, 96):
        x0, params, _ = random_pair_params(n, derive_seed(81, n))
        yield "drawn-m%d" % (n // 2), x0, params
    near = {
        "x0-low-out": ([2e-9], [0.5]), "x0-low-in": ([1e-7], [0.5]), "x0-high-in": ([1 - 1e-7], [0.5]),
        "x0-high-out": ([1 - 2e-9], [0.5]), "a0-low-out": ([0.5], [4e-5]), "a0-low-in": ([0.5], [1e-4]),
        "a0-high-out": ([0.5], [1 - 1e-9]), "a0-high-in": ([0.5], [1 - 1e-8]),
        "mixed": ([0.3, 1e-7, 0.5], [0.5, 0.7, 1e-4]), "one-out-of-three": ([0.3, 0.6, 2e-9], [0.5, 0.2, 0.5]),
    }
    for name, (x0, a0) in near.items():
        yield name, *_params(x0, a0, np.exp(0.7j))
    x0, params, _ = random_pair_params(8, derive_seed(82, 8))
    stack = StrictProjectionParams(np.array([params.a0, [0.5, 0.5, 1e-4, 0.3], [0.5, 4e-5, 0.5, 0.5]]),
                                   np.array([params.w, np.ones(4), np.ones(4)]))
    yield "stack-row-x0", x0, stack
    yield "stack-x0", np.array([x0, [0.2, 1e-7, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]]), stack


TOLERANCES = {
    "default": DEFAULT_TOL, "spec-0.2": DEFAULT_TOL.override(spec=0.2),
    "spec-1e-12": DEFAULT_TOL.override(spec=1e-12), "compat-1e-12": DEFAULT_TOL.override(compat=1e-12),
    "compat-1e-30": DEFAULT_TOL.override(compat=1e-30),
}
PAIR_CASES = {name: (x0, params) for name, x0, params in _pair_cases()}


@pytest.mark.parametrize("tol", TOLERANCES, ids=str)
@pytest.mark.parametrize("case", PAIR_CASES, ids=str)
def test_pair_from_params_decides_as_the_embedded_check(case, tol):
    x0, params = PAIR_CASES[case]
    tol = TOLERANCES[tol]
    _assert_same(_outcome(lambda: pair_from_params(x0, params, tol)),
                 _outcome(lambda: _embedded_pair_from_params(x0, params, tol)), 2 * params.m)


def test_the_pair_cases_reach_every_outcome():
    """The sweep passes and raises on either side of each cut, a site
    with small x0 is one its Sylvester bound leaves open, and a
    tolerance below the rounding level fails the residual."""
    for name, (x0, params) in PAIR_CASES.items():
        passed = _outcome(lambda: pair_from_params(x0, params))[0] == "pass"
        assert passed == ("-out" not in name and "stack" not in name), name
    x0, params = PAIR_CASES["x0-low-in"]
    sa, sb = _site_pairs(x0, params.a0, params.w)
    zvals, zvecs = np.linalg.eigh(np.eye(2) - sa - sb)
    assert not np.any(_sylvester_bounds(sa, sb, zvals, zvecs, DEFAULT_TOL.compat)[1])
    error, message = _outcome(lambda: pair_from_params(*PAIR_CASES["drawn-m48"], TOLERANCES["compat-1e-30"]))
    assert error is PostconditionFailure and message.startswith("constructed pair residual ")


def _moved(blocks, scale, sites, seed):
    """blocks moved by Hermitian 2x2 matrices on the given sites, each of
    Frobenius norm scale times the site's place in sites, from 1: the
    first site in C order is not the one that moves most."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = blocks.copy()
    for k, site in enumerate(sites):
        e = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        e = e + dagger(e)
        out[..., site, :, :] += (k + 1) * scale / np.linalg.norm(e) * e
    return out


def _site_block_cases():
    """Site-block matrices, and the same matrices embedded: strict
    unitaries and projections from drawn parameters at m = 1, 3 and 48
    and as a stack, with an entry at a cut, moved off unitarity or
    idempotence on two sites by different amounts, made non-Hermitian,
    and with a NaN."""
    for m in (1, 3, 48):
        u = strict_unitary_from_params(random_strict_unitary_params(m, derive_seed(83, m))).blocks
        p = strict_projection_from_params(random_strict_projection_params(m, derive_seed(84, m))).blocks
        yield "unitary-m%d" % m, u
        yield "projection-m%d" % m, p
        if m > 1:
            for scale in (3e-11, 1e-7):
                yield "unitary-moved-%g-m%d" % (scale, m), _moved(u, scale, [0, m - 1], derive_seed(85, m))
                yield "projection-moved-%g-m%d" % (scale, m), _moved(p, scale, [0, m - 1], derive_seed(86, m))
            skew = p.copy()
            skew[..., 0, 0, 1] += 1e-9
            skew[..., m - 1, 1, 0] += 3e-9
            yield "projection-skew-m%d" % m, skew
            nan = p.copy()
            nan[..., 1, 0, 0] = np.nan
            yield "projection-nan-m%d" % m, nan
    yield "unitary-at-cut", strict_unitary_from_params(StrictUnitaryParams([0.5, 1e-10], *np.ones((3, 2)))).blocks
    yield "projection-at-cut", _projection_blocks(np.array([0.5, 3e-5]), np.ones(2))
    # idempotent in floats, so only a rebuild residual fails a tolerance below the rounding level
    yield "projection-exact", 0.5 * np.array([[[1, 1], [1, 1]], [[1, -1], [-1, 1]], [[1, 1j], [-1j, 1]]])
    # a stack of parameters comes from the private core: a public generator takes one seed
    seeds = [derive_seed(87, k) for k in range(3)], [derive_seed(88, k) for k in range(3)]
    u = strict_unitary_from_params(StrictUnitaryParams(*_site_params(4, seeds[0], 0.1, 3))).blocks
    p = strict_projection_from_params(StrictProjectionParams(*_site_params(4, seeds[1], 0.1, 1)))
    yield "unitary-stack", u
    yield "projection-stack", p.blocks
    yield "projection-stack-moved", _moved(p.blocks, 1e-7, [1, 2], derive_seed(89, 4))


SITE_BLOCKS = {name: x for name, x in _site_block_cases()}
GATES = {
    "is_strict_unitary": (is_strict_unitary, _embedded_is_strict_unitary),
    "is_strict_projection": (is_strict_projection, _embedded_is_strict_projection),
    "params_from_strict_projection": (params_from_strict_projection, _embedded_params_from_strict_projection),
    "conjugate_to_pivot": (conjugate_to_pivot, _embedded_conjugate_to_pivot),
}
GATE_TOLERANCES = {"default": DEFAULT_TOL, "unit-proj-1e-30": DEFAULT_TOL.override(unit=1e-30, proj=1e-30),
                   "spec-0.2": DEFAULT_TOL.override(spec=0.2)}


@pytest.mark.parametrize("tol", GATE_TOLERANCES, ids=str)
@pytest.mark.parametrize("gate", GATES, ids=str)
@pytest.mark.parametrize("case", SITE_BLOCKS, ids=str)
def test_site_block_gates_decide_as_the_embedded_checks(case, gate, tol):
    """Each gate and map on site blocks, and on their embedding where it
    is one matrix, against the embedded check it replaced."""
    blocks, (fn, embedded), tol = SITE_BLOCKS[case], GATES[gate], GATE_TOLERANCES[tol]
    inputs = [SiteBlockMatrix(blocks)]
    if blocks.ndim == 3 and np.isfinite(blocks).all():
        inputs.append(_embed(blocks))
    for x in inputs:
        _assert_same(_outcome(lambda: fn(x, tol)), _outcome(lambda: embedded(x, tol)), 2 * blocks.shape[-3])


def test_the_gate_cases_reach_every_outcome():
    """The sweep returns True and False and raises each gate error."""
    seen = set()
    for blocks in SITE_BLOCKS.values():
        for (fn, _), tol in itertools.product(GATES.values(), GATE_TOLERANCES.values()):
            out = _outcome(lambda: fn(SiteBlockMatrix(blocks), tol))
            seen.add(out[0] if out[0] != "pass" or out[1][0].dtype != bool else bool(np.all(out[1][0])))
    names = {x if isinstance(x, (bool, str)) else x.__name__ for x in seen}
    assert {True, False, "pass", "NotUnitary", "NotProjection", "NotHermitian", "DomainError",
            "NotStrictProjection", "PostconditionFailure"} <= names, names


# --- what the constructions and gates factorize, and where pairs are embedded ---


def _sizes_factorized(monkeypatch):
    """The sizes of the matrices passed to eigh, eigvalsh and svd from now on."""
    sizes = []
    for name in ("eigh", "eigvalsh", "svd"):
        def spy(x, *args, fn=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(x)[-1])
            return fn(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return sizes


@pytest.mark.parametrize("n", [8, 96])
def test_constructions_and_gates_factorize_2x2_only(monkeypatch, n):
    """pair_from_params, random_abscompat_pair and the site-block gates
    pass no matrix larger than 2x2 to eigh, eigvalsh or svd, whether
    the Sylvester bounds certify every site or leave one open and its
    exact residual is taken, and whether a gate's Frobenius norm settles
    it or the exact norm of a failing site is taken."""
    m = n // 2
    x0, params, _ = random_pair_params(n, derive_seed(91, n))
    opened = np.where(np.arange(m) == m - 1, 1e-7, x0)
    u = strict_unitary_from_params(random_strict_unitary_params(m, derive_seed(92, n)))
    p = strict_projection_from_params(random_strict_projection_params(m, derive_seed(93, n)))
    moved = SiteBlockMatrix(_moved(p.blocks, 1e-7, [0], derive_seed(94, n)))
    sizes = _sizes_factorized(monkeypatch)
    pair_from_params(x0, params)
    pair_from_params(opened, params)
    random_abscompat_pair(n, derive_seed(95, n))
    for gate in (is_strict_unitary, is_strict_projection, params_from_strict_projection, conjugate_to_pivot):
        gate(u if gate is is_strict_unitary else p)
    with pytest.raises(AbscompatError):
        is_strict_projection(moved)
    assert sizes and set(sizes) == {2}


def test_embed_builds_outputs_only(monkeypatch):
    """_embed runs only for SiteBlockMatrix.embed, the pair that
    pair_from_params returns and the products of _conjugate_pair, over
    the constructions, the gates and maps, canonicalize, the exchanged
    form, decompose_pair_m2 and every registry suite."""
    callers = set()

    def spy(blocks):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return _embed(blocks)

    monkeypatch.setattr(canonical, "_embed", spy)
    x0, params, _ = random_pair_params(8, derive_seed(96, 8))
    pair_from_params(x0, params)
    a, b = random_abscompat_pair(8, derive_seed(97, 8))
    exchanged_pivot_form(canonicalize(a, b))
    decompose_pair_m2(*random_abscompat_pair(2, derive_seed(98, 2)))
    u = strict_unitary_from_params(random_strict_unitary_params(3, derive_seed(99, 3)))
    p = strict_projection_from_params(random_strict_projection_params(3, derive_seed(100, 3)))
    is_strict_unitary(u)
    params_from_strict_unitary(u)
    projection_pair_from_unitary(u)
    params_from_strict_projection(p)
    conjugate_to_pivot(p)
    for prop in properties.REGISTRY.values():
        properties.run(prop, 4, 7)
    assert callers == {"embed", "pair_from_params", "_conjugate_pair"}, callers
