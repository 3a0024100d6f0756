"""Canonical form of a strict absolutely compatible pair.

Every such pair (a, b) in even dimension n = 2m is unitarily equivalent to

    a = U0 ((1-x0) (x) I2) P0 + (x0 (x) I2) P) U0*,
    b =   same with P' = 1 - P,

where x0 is a strict diagonal m-tuple, P0 = diag(0, 1) per site, and P is a
strict projection parametrized per site by a0 in (0, 1) and a unimodular
phase w.  This module holds the forward constructions (dilation of a
commuting pair, pair from parameters), the parametrizations of strict
unitaries and strict projections, their inverses (a strict projection
is read once, by _strict_projection_read), and the inverse `canonicalize`.
The site-block layer takes stacks: blocks of shape (..., m, 2, 2) and
parameters of shape (..., m), mapped and checked per element.  A
site-block matrix has exact zeros off its sites, so its gates and
pair_from_params check it on its 2x2 sites (hermitian._over_sites), and
only outputs are embedded into full matrices.

`canonicalize` runs on the private core `_canonical` over (..., n, n)
stacks of pairs, of which a single pair is a batch of one with no
leading axis: every step is one computation on the whole stack that
gives each pair the bits it gets alone, and only a pair whose 1-a-b
spectrum clusters takes a step of its own.  The core returns the
CanonicalForm, of one pair or of a stack, with the reconstruction it
checked, and exchanged_pivot_form keeps the pair it checks in the same
way.  The form comes from one eigh of 1-a-b, whose positive half
gives x0 and the site pairing.  The same eigh certifies the pair
compatible, by the Sylvester bound of compat._sylvester_bounds, and
the form's reconstruction certifies both operands as strict effects,
by Weyl's inequality (_weyl_margin).  So a canonicalize call makes 1
eigh, 2 eigvalsh (the reconstruction residual) and 1 svd; a pair the
certificates leave open is validated as before they existed, which
adds 2 eigh and 2 eigvalsh.

Site layout: site k occupies coordinates 2k and 2k+1 of the full matrix.
It holds the M2 pair of geometry.py with pivot P0, target P and index x0[k],
built by the same mixture, hermitian._mixed_pair.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError,
    DimensionMismatch,
    DomainError,
    NotCommuting,
    NotStrict,
    NotStrictParams,
    NotStrictProjection,
    NotStrictUnitary,
    OddDimension,
    PairingFailure,
    PostconditionFailure,
    SumExceedsOne,
)
from .hermitian import (
    _ROUNDING,
    _effects,
    _fnorm,
    _hermitian_pair,
    _hnorm_upto,
    _mixed_pair,
    _over_sites,
    _per_matrix,
    _projection,
    _record,
    _require,
    _require_strict,
    _strict_rows,
    _two_by_two,
    _unitary,
    _vector,
    as_matrix,
    cluster_indices,
    dagger,
    hermitize,
    identity_like,
)
from .compat import (
    _bounded, _built_pair, _certified_pair, _eigh_on, _pair_spectra, _require_compatible, _sylvester_bounds,
)
from .io import matrix_to_json

PIVOT_0 = np.diag([0.0, 1.0]).astype(complex)
PIVOT_1 = np.diag([1.0, 0.0]).astype(complex)

# floor on raw per-site parameters (_strict_reals)
_PARAM_MARGIN = 1e-12


@dataclass(frozen=True)
class SiteBlockMatrix:
    """A 2x2 matrix of diagonal m x m operators, stored per site.

    ``blocks[..., k, :, :]`` is the 2x2 matrix of site k; ``embed()``
    interleaves the sites into the full 2m x 2m matrix, whose entries
    off the sites are exact zeros.  The gates and maps of this module
    take their norms on the blocks, as the full matrix's are the largest
    of its sites', and never embed their input.
    """

    blocks: np.ndarray

    def __post_init__(self):
        try:
            blocks = np.asarray(self.blocks, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError("site blocks must be numeric: %s" % exc) from exc
        if blocks.ndim < 3 or blocks.shape[-2:] != (2, 2) or blocks.shape[-3] < 1:
            raise DimensionMismatch("site blocks must have shape (m, 2, 2)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return self.blocks.shape[-3]

    def entry(self, i: int, j: int) -> np.ndarray:
        """Diagonal of the (i, j) entry operator, an m-vector per matrix."""
        return self.blocks[..., i, j]

    def embed(self) -> np.ndarray:
        return _embed(self.blocks)

    @classmethod
    def extract(cls, x):
        """The site blocks of the 2m x 2m matrix x, once no entry off its
        sites exceeds 1e-12 in modulus.

        No derivation ties 1e-12 to the tolerances.  It guards that the
        blocks stand for x: the dropped entries, at most n^2 of them, move
        x by at most their Frobenius norm, n 1e-12, in operator norm.
        That is within the default tol.unit = tol.proj = 1e-10 that
        is_strict_unitary and is_strict_projection then apply to the
        blocks, up to n = 100, and not above it.  _embed leaves the
        off-site entries exactly 0.
        """
        x = as_matrix(x)
        n = x.shape[0]
        if n % 2:
            raise OddDimension("site-block matrices have even dimension, got %d" % n)
        m = n // 2
        sites = x.reshape(m, 2, m, 2)
        off = np.abs(sites)
        off[np.arange(m), :, np.arange(m), :] = 0.0
        stray = off.max(initial=0.0)
        _require(stray <= 1e-12, DomainError, "off-site mass %.3e exceeds 1e-12", stray)
        return cls(sites[np.arange(m), :, np.arange(m), :])


def _embed(blocks) -> np.ndarray:
    """The full 2m x 2m matrices of (..., m, 2, 2) site blocks."""
    # out[..., k, :, l, :] is the (k, l) 2x2 block of the full matrix
    lead, m = blocks.shape[:-3], blocks.shape[-3]
    out = np.zeros(lead + (m, 2, m, 2), dtype=complex)
    sites = np.arange(m)
    out[..., sites, :, sites, :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(lead + (2 * m, 2 * m))


def _sites(x) -> SiteBlockMatrix:
    return x if isinstance(x, SiteBlockMatrix) else SiteBlockMatrix.extract(x)


def _unimodular(w, label: str) -> np.ndarray:
    """w as a vector of phases, each normalized to modulus one, once every
    | |w| - 1 | is at most 1e-9.

    No derivation fixes 1e-9.  It guards that each parameter is a phase,
    so the normalization moves it by at most 1e-9.  Phases computed as
    x / |x|, as the inverse maps compute them, are unimodular to a few u.
    Those maps normalize before they get here: the raw w = p01 / (a0 s0)
    of a strict projection has |w|^2 = |p01|^2 / (p00 (1 - p00)) per
    site, which an idempotence defect far below tol.proj moves past 1e-9
    when p00 (1 - p00) is small, so _strict_projection_read normalizes it
    and its callers check the projection it rebuilds at tol.proj instead.
    """
    w = _vector(w, complex, label)
    mod = np.abs(w)
    _require(np.abs(mod - 1.0) <= 1e-9, NotStrictParams, "%s phases must be unimodular", label)
    return w / mod


def _strict_reals(a0, label: str) -> np.ndarray:
    """a0 as real values inside (_PARAM_MARGIN, 1 - _PARAM_MARGIN), one per
    site along its last axis, of which there is at least one.

    No derivation fixes _PARAM_MARGIN = 1e-12, and it is not the
    strictness cut: _built_pair and is_strict_projection apply that,
    _levels at tol.spec, to the matrices the parameters build.  It
    guards the parametrization: at a0 = 0 or 1 the factor
    a0 (1 - a0^2)^(1/2) that _strict_projection_read divides by is 0,
    and inside the margin 1 - a0^2 is at least about 2e-12, some 10^4 u,
    so its rounding leaves it four digits.  A recovered a0 (_recovered)
    has a0^2 inside (tol.spec, 1 - tol.spec) already, so the margin never
    decides it.
    """
    a0 = _vector(a0, float, label)
    if not a0.shape[-1]:
        raise NotStrictParams("%s needs at least one site" % label)
    _require((_PARAM_MARGIN < a0) & (a0 < 1.0 - _PARAM_MARGIN), NotStrictParams,
             "%s values must lie strictly inside (0, 1)", label)
    return a0


@dataclass(frozen=True)
class StrictProjectionParams:
    """Per-site data (a0, w) of a strict projection.

    The projection has diagonal entries a0^2 and 1 - a0^2 and off-diagonal
    w a0 (1 - a0^2)^(1/2).
    """

    a0: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        a0, w = _strict_reals(self.a0, "a0"), _unimodular(self.w, "w")
        if w.shape != a0.shape:
            raise DimensionMismatch("a0 and w must have the same number of sites")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.a0.shape[-1]


@dataclass(frozen=True)
class StrictUnitaryParams:
    """Per-site data (a0, w1, w2, w3) of a strict unitary; the fourth
    entry is forced to -conj(w1) w2 w3 a0 by unitarity."""

    a0: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray

    def __post_init__(self):
        a0 = _strict_reals(self.a0, "a0")
        ws = [_unimodular(w, "w%d" % (i + 1)) for i, w in enumerate((self.w1, self.w2, self.w3))]
        if any(w.shape != a0.shape for w in ws):
            raise DimensionMismatch("a0 and the phases must have the same number of sites")
        object.__setattr__(self, "a0", a0)
        for name, w in zip(("w1", "w2", "w3"), ws):
            object.__setattr__(self, name, w)

    @property
    def m(self) -> int:
        return self.a0.shape[-1]


def strict_projection_from_params(params: StrictProjectionParams) -> SiteBlockMatrix:
    _record(params, StrictProjectionParams, "params")
    return SiteBlockMatrix(_projection_blocks(params.a0, params.w))


def _projection_blocks(a0, w) -> np.ndarray:
    """The (..., m, 2, 2) site blocks of strict projections with per-site
    parameters a0 and w of shape (..., m)."""
    s0 = np.sqrt(1.0 - a0 * a0)
    return _two_by_two(a0 * a0, w * a0 * s0, np.conj(w) * a0 * s0, 1.0 - a0 * a0)


def strict_unitary_from_params(params: StrictUnitaryParams) -> SiteBlockMatrix:
    _record(params, StrictUnitaryParams, "params")
    a0, w1, w2, w3 = params.a0, params.w1, params.w2, params.w3
    s0 = np.sqrt(1.0 - a0 * a0)
    return SiteBlockMatrix(_two_by_two(w1 * a0, w2 * s0, w3 * s0, -np.conj(w1) * w2 * w3 * a0))


def is_strict_unitary(u, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when u is unitary and all four entry operators are strict."""
    u = _sites(u)
    _unitary(u.blocks, tol)
    return _per_matrix(np.all(_strict_rows(u.blocks, tol), axis=(-2, -1)))


def is_strict_projection(p, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when p is a projection whose (1,1) entry operator is strict and
    whose per-site trace is one."""
    p = _sites(p)
    _projection(p.blocks, tol, sites=True)
    trace = np.real(p.entry(0, 0) + p.entry(1, 1))
    unit = np.all(np.abs(trace - 1.0) <= tol.proj, axis=-1)
    return _per_matrix(unit & _strict_rows(np.real(p.entry(0, 0)), tol))


def params_from_strict_unitary(u, tol: Tolerances = DEFAULT_TOL) -> StrictUnitaryParams:
    u = _sites(u)
    _require(is_strict_unitary(u, tol), NotStrictUnitary, "entries are not all strict")
    u1, u2, u3 = u.entry(0, 0), u.entry(0, 1), u.entry(1, 0)
    return StrictUnitaryParams(
        a0=np.abs(u1), w1=u1 / np.abs(u1), w2=u2 / np.abs(u2), w3=u3 / np.abs(u3)
    )


def _strict_projection_read(p, tol: Tolerances, not_strict: str):
    """(p as site blocks, a0, w) of a strict projection p, or
    NotStrictProjection(not_strict): a0 = p00^(1/2) and w = p01 / (a0
    (1 - a0^2)^(1/2)) normalized to modulus one, per site.  What they
    build differs from p in p11 and in |p01| only; callers check it."""
    p = _sites(p)
    _require(is_strict_projection(p, tol), NotStrictProjection, not_strict)
    a0 = np.sqrt(np.real(p.entry(0, 0)))
    w = p.entry(0, 1) / (a0 * np.sqrt(1.0 - a0 * a0))
    return p, a0, w / np.abs(w)


def params_from_strict_projection(p, tol: Tolerances = DEFAULT_TOL) -> StrictProjectionParams:
    """(a0, w) of a strict projection p, once the projection they build
    is within tol.proj of p."""
    p, a0, w = _strict_projection_read(p, tol, "not a strict projection")
    _require_rebuilt(_projection_blocks(a0, w), p, tol, "projection parameter")
    return StrictProjectionParams(a0=a0, w=w)


def _require_rebuilt(blocks, p, tol: Tolerances, label: str) -> None:
    """Raises PostconditionFailure(label residual) unless the site blocks
    blocks, the projection a map rebuilt, are within tol.proj of p's in
    the operator norm of the whole matrix, taken on its sites
    (hermitian._over_sites)."""
    dev = _over_sites(_hnorm_upto(blocks - p.blocks, tol.proj), True)
    _require(dev <= tol.proj, PostconditionFailure, label + " residual %.3e", dev)


def projection_pair_from_unitary(u, tol: Tolerances = DEFAULT_TOL):
    """Complementary strict projections built from the two rows of a
    strict unitary: P from (u1, u2), P' from (u3, u4)."""
    u = _sites(u)
    _require(is_strict_unitary(u, tol), NotStrictUnitary, "projection pair needs a strict unitary")
    # outer[..., k, r, i, j] = conj(u[..., k, r, i]) u[..., k, r, j]: row r's projection
    outer = np.conj(u.blocks)[..., :, None] * u.blocks[..., None, :]
    return SiteBlockMatrix(outer[..., 0, :, :]), SiteBlockMatrix(outer[..., 1, :, :])


def conjugate_to_pivot(p, tol: Tolerances = DEFAULT_TOL) -> SiteBlockMatrix:
    """Strict unitary U with U* diag(0,1) U = p for a strict projection p."""
    p, a0, w = _strict_projection_read(p, tol, "conjugation to the pivot needs a strict projection")
    u = _pivot_unitary(a0, w)
    _require_rebuilt(dagger(u) @ PIVOT_0 @ u, p, tol, "pivot conjugation")
    return SiteBlockMatrix(u)


def _pivot_unitary(a0, w, exchange: bool = False) -> np.ndarray:
    """The (..., m, 2, 2) site blocks U = [[s0, -w a0], [a0, w s0]],
    s0 = (1 - a0^2)^(1/2), so that U* diag(0,1) U is the strict projection
    with parameters (a0, w); with exchange, diag(1,-1) U."""
    s0 = np.sqrt(1.0 - a0 * a0)
    lower = (-a0, -w * s0) if exchange else (a0, w * s0)
    return _two_by_two(s0, -w * a0, *lower)


def dilate_commuting_pair(a, b, tol: Tolerances = DEFAULT_TOL):
    """Double the dimension of a strict commuting pair (a, b) with
    a^2 + b^2 strictly below 1, or of each pair of two stacks, into an
    absolutely compatible pair

        a1 = [[a^2, ab], [ab, 1-a^2]],  b1 = [[b^2, -ab], [-ab, 1-b^2]].
    """
    a, b = _hermitian_pair(a, b, tol, stack=True)
    va, vb = _effects(a, b, tol)
    # i[a, b] is Hermitian with the norm of [a, b]
    _require(_hnorm_upto(1j * (a @ b - b @ a), tol.compat) <= tol.compat, NotCommuting,
             "||ab - ba|| exceeds %.3e", tol.compat)
    _require_strict(va, vb, tol)
    square_sum = hermitize(a @ a + b @ b)
    vals = np.linalg.eigvalsh(square_sum)
    # the _levels cut, as comparisons that a NaN fails
    _require(vals[..., -1] < 1.0 - tol.spec, SumExceedsOne, "largest eigenvalue of a^2 + b^2 is %.3e",
             vals[..., -1])
    _require(tol.spec < vals[..., 0], NotStrict, "a^2 + b^2 is not strict")

    one = identity_like(a)
    ab = hermitize(a @ b)
    a1 = np.block([[a @ a, ab], [ab, one - a @ a]])
    b1 = np.block([[b @ b, -ab], [-ab, one - b @ b]])
    a1, b1 = hermitize(a1), hermitize(b1)
    residual = _pair_spectra(a1, b1, tol.compat)
    _require(residual <= tol.compat, PostconditionFailure, "dilated pair residual %.3e", residual)
    return a1, b1


def _site_pairs(x0, a0, w):
    """The site blocks of both effects of the pair of per-site (x0, a0, w),
    each (..., m, 2, 2) for parameters of shape (..., m)."""
    proj = _projection_blocks(a0, w)
    return _mixed_pair(x0[..., None, None], PIVOT_0, proj, np.eye(2, dtype=complex) - proj)


def pair_from_params(x0, params: StrictProjectionParams, tol: Tolerances = DEFAULT_TOL):
    """Strict absolutely compatible pair from per-site (x0, a0, w), or each
    pair of a stack for parameters of shape (..., m) and x0 of that shape
    or (m,), built and checked as one stack, once x0 is strict and
    _built_pair passes the pairs.  _built_pair checks them on their
    (..., m, 2, 2) sites, with 2x2 factorizations only, and only the
    pairs it passes are embedded."""
    _record(params, StrictProjectionParams, "params")
    x0, a0 = _strict_reals(x0, "x0"), params.a0
    if x0.shape[-1] != a0.shape[-1]:
        raise DimensionMismatch("x0 has %d sites, projection has %d" % (x0.shape[-1], a0.shape[-1]))
    if x0.shape not in (a0.shape, a0.shape[-1:]):
        raise DimensionMismatch("x0 of shape %r does not fit parameters of shape %r" % (x0.shape, a0.shape))
    sites = _site_pairs(np.broadcast_to(x0, a0.shape), a0, params.w)
    _built_pair(*sites, tol, (PostconditionFailure, "constructed pair is not strict at this tolerance"), sites=True)
    return tuple(map(_embed, sites))


def _conjugate_pair(u, site_pair):
    """u S u* for both site blocks S of site_pair, over leading axes."""
    return tuple(hermitize(u @ _embed(s) @ dagger(u)) for s in site_pair)


@dataclass(frozen=True)
class CanonicalForm:
    """Conjugating unitary u0 plus the per-site parameters (x0, a0, w) of
    one pair, or of each pair of a stack over leading axes; w is all
    ones, as the polar factor absorbs the phase gauge.

    ``residual`` is the reconstruction residual max(||a' - a||, ||b' - b||)
    that ``canonicalize`` checked against ``tol.canon``, a float for one
    pair, and ``reconstruct()`` returns the reconstruction (a', b') it
    was checked on.
    """

    u0: np.ndarray
    x0: np.ndarray
    a0: np.ndarray
    w: np.ndarray
    residual: float
    _rebuilt: tuple

    @property
    def m(self) -> int:
        return self.x0.shape[-1]

    @property
    def projection(self) -> StrictProjectionParams:
        return StrictProjectionParams(self.a0, self.w)

    def site_pair(self):
        return tuple(map(SiteBlockMatrix, _site_pairs(self.x0, self.a0, self.w)))

    def reconstruct(self):
        return self._rebuilt

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "x0": [float(v) for v in self.x0],
            "a0": [float(v) for v in self.a0],
            "w": [[float(v.real), float(v.imag)] for v in self.w],
            "U0": matrix_to_json(self.u0),
        }


def _joint_eigenbasis(a, lam_plus, v_plus, gap: float):
    """(f_plus, x0) for each pair, from the ascending positive eigenvalues
    lam_plus of 1-a-b and their eigenvectors v_plus: f_plus is v_plus
    rotated, inside each cluster of lam_plus closer than gap, to
    diagonalize the compression of a, and x0 is the Rayleigh quotient of
    diag(1 - lam_plus) under that rotation, 1 - lam_plus outside the
    clusters.  Only a pair with a cluster compresses a, on its own."""
    f_plus, x0 = v_plus.copy(), 1.0 - lam_plus
    clustered = np.any(np.diff(lam_plus, axis=-1) <= gap, axis=-1)
    for i in map(tuple, np.argwhere(clustered)):
        a_pp = hermitize(dagger(v_plus[i]) @ a[i] @ v_plus[i])
        w = identity_like(a_pp)
        for idx in cluster_indices(lam_plus[i], gap):
            if len(idx) > 1:
                w[:, idx] = _eigh_on(a_pp, w[:, idx])[0]
        f_plus[i] = v_plus[i] @ w
        x0[i] = np.sum(np.abs(w) ** 2 * x0[i][:, None], axis=0)
    return f_plus, x0


def _canonical(a, b, tol: Tolerances) -> CanonicalForm:
    """canonicalize of the Hermitian a and b of _hermitian_pair, or of
    each pair of two (..., n, n) stacks: each step runs once on the whole
    stack, and a stack raises at the first step some pair of it fails.

    The form is recovered first (_recovered), from one eigh of 1-a-b,
    and that eigh and the form settle the pair when both certificates
    hold for every pair (_certified_form).  Otherwise, and whenever the
    recovery raises, _validated runs first and raises what the pair
    fails, so a pair that is not an effect, of odd size, not strict or
    not compatible raises that error ahead of any error of the recovery;
    a pair it passes keeps the recovered form, or raises the recovery's
    error.
    """
    n = a.shape[-1]
    # the recovery takes nonempty same-shape pairs of even size with no
    # entry beyond an effect's, where 1-a-b cannot overflow; _validated
    # rejects the others
    if a.shape != b.shape or not a.size or n % 2 or not _bounded(a, b, tol):
        _validated(a, b, tol)
    lam, vecs = np.linalg.eigh(identity_like(a) - a - b)
    try:
        cf = _recovered(a, b, lam, vecs, tol)
    except AbscompatError:
        _validated(a, b, tol)
        raise
    if not np.all(_certified_form(a, b, cf, lam, vecs, tol)):
        _validated(a, b, tol)
    return cf


def _validated(a, b, tol: Tolerances) -> None:
    """Raises what the pair, or the first failing check over a stack,
    fails, in this order: the effect checks of _certified_pair, an odd
    size, strictness (one eigvalsh of [a, b] when the residual certified
    the effects), then compatibility, on the exact residual: it runs
    where the certificates failed."""
    residual, vals = _certified_pair(a, b, tol)
    if a.shape[-1] % 2:
        raise OddDimension("canonical form needs even dimension, got %d" % a.shape[-1])
    _require_strict(*(vals or np.linalg.eigvalsh(np.stack([a, b]))), tol)
    _require_compatible(residual, tol)


def _certified_form(a, b, cf: CanonicalForm, lam, vecs, tol: Tolerances):
    """Whether each pair of n x n Hermitian (a, b), over leading axes, is
    certified absolutely compatible by the Sylvester bound from the eigh
    (lam, vecs) of 1-a-b (compat._sylvester_bounds, whose rounding
    allowance covers 1-a-b in either operand order), and as two strict
    effects by its recovered form cf: every site eigenvalue clears the
    _levels cut by the Weyl margin (_weyl_margin)."""
    certified = _sylvester_bounds(a, b, lam, vecs, tol.compat)[1]
    spread, sq = cf.x0 * (1.0 - cf.x0), cf.a0 * cf.a0
    p = np.concatenate([spread * sq, spread * (1.0 - sq)], axis=-1)
    # the smaller root of lam (1 - lam) = p, where p < (1 - tol.spec)/4 by
    # the gates on d; the larger root, 1 - lam, clears the same cut
    low = 2.0 * p / (1.0 + np.sqrt(1.0 - 4.0 * p))
    return certified & _strict_rows(low, tol, _weyl_margin(cf, tol)[..., None])


def _weyl_margin(cf: CanonicalForm, tol: Tolerances):
    """A margin for the recovered form cf of each pair of n x n Hermitian
    (a, b), over leading axes: every eigenvalue of a and of b is within
    it of a site eigenvalue of cf.

    Let S = (Sa, Sb) be the site pair of cf, (ra, rb) = U0 S U0* its
    computed reconstruction, eps = ||U0*U0 - I||_F and U the unitary
    polar factor of U0 = U P.  The eigenvalues of P are the square
    roots of those of U0*U0, and |p - 1| <= |p^2 - 1| for p >= 0, so
    ||P - I||_F <= eps, ||P|| <= 1 + eps and
    ||U0 S U0* - U S U*|| = ||PSP - S|| <= eps (2 + eps) ||S||, with
    ||S|| <= 1 + tol.spec for the sites of an effect.

    A site of a is (1-x0) P0 + x0 P, of trace 1 and determinant
    x0 a0^2 (1-x0), so its eigenvalues are lam and 1 - lam with
    lam (1 - lam) = x0 a0^2 (1-x0); those of b have x0 (1 - a0^2)(1-x0).
    By Weyl's inequality each eigenvalue of a is within
    ||U Sa U* - a|| <= err + eps (2 + eps)(1 + tol.spec) of one of
    U Sa U*'s, err being cf.residual, and each eigenvalue that eigvalsh
    computes within p(n) u of that; the margin adds _ROUNDING n to cover
    it.  So when every lam clears the _levels cut by the margin, both
    spectra lie inside (tol.spec, 1 - tol.spec): both operands are
    effects, and strict.
    """
    eps = _fnorm(dagger(cf.u0) @ cf.u0 - identity_like(cf.u0))
    return np.asarray(cf.residual + eps * (2.0 + eps) * (1.0 + tol.spec) + _ROUNDING * cf.u0.shape[-1])


def _recovered(a, b, lam, vecs, tol: Tolerances) -> CanonicalForm:
    """The canonical form of each pair of two stacks of Hermitian (a, b)
    of even size n = 2m, from the eigh (lam, vecs) of 1-a-b, once its
    reconstruction is within tol.canon.

    In the form, 1-a-b is (1-x0)(1-2 P0) and |a-b| is x0 on each site, so
    for a compatible pair |a-b| = 1 - |1-a-b|: the positive half of 1-a-b
    holds the sites' first coordinates and gives x0 = 1 - lam_plus, and
    the sorted 1 - |lam| are the eigenvalues of |a-b|, which pair up."""
    m = a.shape[-1] // 2
    _require(tol.spec < np.abs(lam), PairingFailure, "1 - a - b has an eigenvalue at zero")
    _require(np.count_nonzero(lam < 0.0, axis=-1) == m, PairingFailure,
             "spectral halves of 1 - a - b have unequal rank")
    dvals = np.sort(1.0 - np.abs(lam), axis=-1)
    unpaired = np.max(np.abs(dvals[..., 0::2] - dvals[..., 1::2]), axis=-1)
    _require(unpaired <= tol.cluster * np.maximum(1.0, dvals[..., -1]), PairingFailure,
             "eigenvalues of |a - b| do not pair up")

    # the eigenvalues ascend, so the negative half is the first m of them;
    # those of the positive half lie in (0, 1], so the cluster gap
    # tol.cluster * max(1, ||mat||) is tol.cluster
    v_minus, v_plus = vecs[..., :m], vecs[..., m:]
    f_plus, x0 = _joint_eigenbasis(a, lam[..., m:], v_plus, tol.cluster)
    af = a @ f_plus
    d = np.real(np.sum(np.conj(f_plus) * af, axis=-2))

    # cross-half pairing: polar factor of the off-diagonal block of a
    u_svd, s, vh_svd = np.linalg.svd(dagger(af) @ v_minus)
    _require(tol.spec < s[..., -1], PairingFailure, "off-diagonal block of a is numerically singular")
    f_minus = v_minus @ dagger(u_svd @ vh_svd)

    _require((tol.spec < x0) & (x0 < 1.0 - tol.spec), PostconditionFailure, "recovered x0 is not strict")
    _require((tol.spec < d) & (tol.spec < x0 - d), PostconditionFailure,
             "recovered projection parameter is not strict")
    a0 = np.sqrt(d / x0)
    _strict_reals(a0, "a0")  # what StrictProjectionParams, so cf.projection, checks

    order = np.lexsort((a0, x0), axis=-1)
    x0, a0 = (np.take_along_axis(v, order, axis=-1) for v in (x0, a0))
    u0 = np.zeros(a.shape, dtype=complex)
    u0[..., 0::2] = np.take_along_axis(f_plus, order[..., None, :], axis=-1)
    u0[..., 1::2] = np.take_along_axis(f_minus, order[..., None, :], axis=-1)

    w = np.ones(x0.shape, dtype=complex)
    ra, rb = _conjugate_pair(u0, _site_pairs(x0, a0, w))
    err = np.abs(np.linalg.eigvalsh(np.stack([ra - a, rb - b]))).max(axis=(0, -1))
    _require(err <= tol.canon, PostconditionFailure, "reconstruction residual %.3e > %.3e", err, tol.canon)
    return CanonicalForm(u0, x0, a0, w, err if err.ndim else float(err), (ra, rb))


def canonicalize(a, b, tol: Tolerances = DEFAULT_TOL) -> CanonicalForm:
    """Invert a strict absolutely compatible pair into its canonical form.

    The steps are forced by the algebra of the canonical form:
    the positive/negative spectral halves of 1-a-b fix the site pairing up
    to rotations inside degenerate clusters; a joint eigenbasis of |a-b|
    and a compressed to the positive half pins the per-site parameters;
    the polar factor of the off-diagonal block of a aligns the negative
    half with the positive one and absorbs the phase gauge (so w = 1).
    """
    return _canonical(*_hermitian_pair(a, b, tol), tol)


def _exchanged_sites(x0, a0):
    """The site blocks of both effects of the exchanged form, over leading
    axes of x0 and a0."""
    proj = _projection_blocks(a0, np.ones(np.shape(a0), dtype=complex))
    return _mixed_pair(x0[..., None, None], proj, PIVOT_0, PIVOT_1)


@dataclass(frozen=True)
class ExchangedPivotForm:
    """The same pair re-expressed with the pivots carrying x0: the first
    effect uses pivot diag(0,1), the second diag(1,0), and the shared
    strict projection is in the phase-free gauge.  Over leading axes for
    the form of a stack; ``reconstruct()`` returns the reconstruction
    that exchanged_pivot_form checked."""

    u: np.ndarray
    x0: np.ndarray
    a0: np.ndarray
    _rebuilt: tuple

    @property
    def m(self) -> int:
        return self.x0.shape[-1]

    def site_pair(self):
        return tuple(map(SiteBlockMatrix, _exchanged_sites(self.x0, self.a0)))

    def reconstruct(self):
        return self._rebuilt


def exchanged_pivot_form(cf: CanonicalForm, tol: Tolerances = DEFAULT_TOL) -> ExchangedPivotForm:
    """Swap the roles of the strict projection and the pivots, for one
    form or for each form of a stack, once the exchanged reconstruction
    is within tol.canon of cf's.

    Per site, with U the unitary of conjugate_to_pivot for P and V =
    diag(1,-1) U: V ((1-x0) P0 + x0 P) V* = (1-x0) Phat + x0 P0, where Phat
    is the phase-free strict projection with the same a0, and the second
    effect picks up diag(1,0) instead.
    """
    _record(cf, CanonicalForm, "cf")
    u = cf.u0 @ dagger(SiteBlockMatrix(_pivot_unitary(cf.a0, cf.w, exchange=True)).embed())
    rebuilt = _conjugate_pair(u, _exchanged_sites(cf.x0, cf.a0))
    err = np.maximum(*(_hnorm_upto(e - r, tol.canon) for e, r in zip(rebuilt, cf.reconstruct())))
    _require(err <= tol.canon, PostconditionFailure, "pivot exchange residual %.3e", err)
    return ExchangedPivotForm(u, cf.x0, cf.a0, rebuilt)
