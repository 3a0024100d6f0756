"""Canonical form of a strict absolutely compatible pair.

Every such pair (a, b) in even dimension n = 2m is unitarily equivalent to

    a = U0 ((1-x0) (x) I2) P0 + (x0 (x) I2) P) U0*,
    b =   same with P' = 1 - P,

where x0 is a strict diagonal m-tuple, P0 = diag(0, 1) per site, and P is a
strict projection parametrized per site by a0 in (0, 1) and a unimodular
phase w.  This module holds the forward constructions (dilation of a
commuting pair, pair from parameters), the parametrizations of strict
unitaries and strict projections, and the inverse `canonicalize`.

Site layout: site k occupies coordinates 2k and 2k+1 of the full matrix.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
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
    _effects,
    _factor_each,
    _hnorm_upto,
    _require_strict,
    _strictness,
    as_matrix,
    cluster_indices,
    dagger,
    hermitize,
    identity_like,
    require_projection,
    require_unitary,
)
from .compat import _pair_spectra, _require_compatible
from .io import matrix_to_json

PIVOT_0 = np.diag([0.0, 1.0]).astype(complex)
PIVOT_1 = np.diag([1.0, 0.0]).astype(complex)

# strictness margin used when validating raw parameters
_PARAM_MARGIN = 1e-12


@dataclass(frozen=True)
class SiteBlockMatrix:
    """A 2x2 matrix of diagonal m x m operators, stored per site.

    ``blocks[k]`` is the 2x2 matrix of site k; ``embed()`` interleaves the
    sites into the full 2m x 2m matrix.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.ndim != 3 or blocks.shape[1:] != (2, 2) or blocks.shape[0] < 1:
            raise DimensionMismatch("site blocks must have shape (m, 2, 2)")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    def entry(self, i: int, j: int) -> np.ndarray:
        """Diagonal of the (i, j) entry operator, an m-vector."""
        return self.blocks[:, i, j]

    def embed(self) -> np.ndarray:
        m = self.m
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        for k in range(m):
            out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = self.blocks[k]
        return out

    @classmethod
    def extract(cls, x, atol: float = 1e-12):
        x = as_matrix(x)
        n = x.shape[0]
        if n % 2:
            raise OddDimension("site-block matrices have even dimension, got %d" % n)
        m = n // 2
        blocks = np.empty((m, 2, 2), dtype=complex)
        mask = np.ones((n, n), dtype=bool)
        for k in range(m):
            blocks[k] = x[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            mask[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = False
        stray = float(np.max(np.abs(x[mask]))) if m > 1 else 0.0
        if stray > atol:
            raise DomainError("off-site mass %.3e exceeds %.3e" % (stray, atol))
        return cls(blocks)

    def dagger(self):
        return SiteBlockMatrix(np.conj(np.swapaxes(self.blocks, 1, 2)))

    def __matmul__(self, other):
        return SiteBlockMatrix(self.blocks @ other.blocks)


def _sites(x, atol: float = 1e-12) -> SiteBlockMatrix:
    if isinstance(x, SiteBlockMatrix):
        return x
    return SiteBlockMatrix.extract(x, atol)


def _unimodular(w, label: str) -> np.ndarray:
    w = np.asarray(w, dtype=complex).reshape(-1)
    mod = np.abs(w)
    if np.any(np.abs(mod - 1.0) > 1e-9):
        raise NotStrictParams("%s phases must be unimodular" % label)
    return w / mod


def _strict_reals(a0, label: str) -> np.ndarray:
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    if len(a0) == 0:
        raise NotStrictParams("%s needs at least one site" % label)
    if np.any(a0 <= _PARAM_MARGIN) or np.any(a0 >= 1.0 - _PARAM_MARGIN):
        raise NotStrictParams("%s values must lie strictly inside (0, 1)" % label)
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
        a0 = _strict_reals(self.a0, "a0")
        w = _unimodular(self.w, "w")
        if len(w) != len(a0):
            raise DimensionMismatch("a0 and w must have the same number of sites")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return len(self.a0)


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
        if any(len(w) != len(a0) for w in ws):
            raise DimensionMismatch("a0 and the phases must have the same number of sites")
        object.__setattr__(self, "a0", a0)
        for name, w in zip(("w1", "w2", "w3"), ws):
            object.__setattr__(self, name, w)

    @property
    def m(self) -> int:
        return len(self.a0)


def strict_projection_from_params(params: StrictProjectionParams) -> SiteBlockMatrix:
    a0, w = params.a0, params.w
    s0 = np.sqrt(1.0 - a0 * a0)
    blocks = np.empty((params.m, 2, 2), dtype=complex)
    blocks[:, 0, 0] = a0 * a0
    blocks[:, 0, 1] = w * a0 * s0
    blocks[:, 1, 0] = np.conj(w) * a0 * s0
    blocks[:, 1, 1] = 1.0 - a0 * a0
    return SiteBlockMatrix(blocks)


def strict_unitary_from_params(params: StrictUnitaryParams) -> SiteBlockMatrix:
    a0 = params.a0
    s0 = np.sqrt(1.0 - a0 * a0)
    blocks = np.empty((params.m, 2, 2), dtype=complex)
    blocks[:, 0, 0] = params.w1 * a0
    blocks[:, 0, 1] = params.w2 * s0
    blocks[:, 1, 0] = params.w3 * s0
    blocks[:, 1, 1] = -np.conj(params.w1) * params.w2 * params.w3 * a0
    return SiteBlockMatrix(blocks)


def is_strict_unitary(u, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when u is unitary and all four entry operators are strict."""
    u = _sites(u)
    require_unitary(u.embed(), tol)
    mods = np.abs(u.blocks)
    return bool(np.all(mods > tol.spec) and np.all(mods < 1.0 - tol.spec))


def is_strict_projection(p, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when p is a projection whose (1,1) entry operator is strict and
    whose per-site trace is one."""
    p = _sites(p)
    require_projection(p.embed(), tol)
    p11 = np.real(p.entry(0, 0))
    trace = np.real(p.entry(0, 0) + p.entry(1, 1))
    if np.any(np.abs(trace - 1.0) > tol.proj):
        return False
    return bool(np.all(p11 > tol.spec) and np.all(p11 < 1.0 - tol.spec))


def params_from_strict_unitary(u, tol: Tolerances = DEFAULT_TOL) -> StrictUnitaryParams:
    u = _sites(u)
    if not is_strict_unitary(u, tol):
        raise NotStrictUnitary("entries are not all strict")
    u1, u2, u3 = u.entry(0, 0), u.entry(0, 1), u.entry(1, 0)
    return StrictUnitaryParams(
        a0=np.abs(u1), w1=u1 / np.abs(u1), w2=u2 / np.abs(u2), w3=u3 / np.abs(u3)
    )


def params_from_strict_projection(p, tol: Tolerances = DEFAULT_TOL) -> StrictProjectionParams:
    p = _sites(p)
    if not is_strict_projection(p, tol):
        raise NotStrictProjection("not a strict projection")
    a0 = np.sqrt(np.real(p.entry(0, 0)))
    s0 = np.sqrt(1.0 - a0 * a0)
    return StrictProjectionParams(a0=a0, w=p.entry(0, 1) / (a0 * s0))


def projection_pair_from_unitary(u, tol: Tolerances = DEFAULT_TOL):
    """Complementary strict projections built from the two rows of a
    strict unitary: P from (u1, u2), P' from (u3, u4)."""
    u = _sites(u)
    if not is_strict_unitary(u, tol):
        raise NotStrictUnitary("projection pair needs a strict unitary")

    def outer(r1, r2):
        blocks = np.empty((u.m, 2, 2), dtype=complex)
        blocks[:, 0, 0] = np.conj(r1) * r1
        blocks[:, 0, 1] = np.conj(r1) * r2
        blocks[:, 1, 0] = np.conj(r2) * r1
        blocks[:, 1, 1] = np.conj(r2) * r2
        return SiteBlockMatrix(blocks)

    p = outer(u.entry(0, 0), u.entry(0, 1))
    pc = outer(u.entry(1, 0), u.entry(1, 1))
    return p, pc


def conjugate_to_pivot(p, tol: Tolerances = DEFAULT_TOL) -> SiteBlockMatrix:
    """Strict unitary U with U* diag(0,1) U = p for a strict projection p."""
    p = _sites(p)
    if not is_strict_projection(p, tol):
        raise NotStrictProjection("conjugation to the pivot needs a strict projection")
    a0 = np.sqrt(np.real(p.entry(0, 0)))
    s0 = np.sqrt(1.0 - a0 * a0)
    w = p.entry(0, 1) / (a0 * s0)
    w = w / np.abs(w)
    blocks = np.empty((p.m, 2, 2), dtype=complex)
    blocks[:, 0, 0] = s0
    blocks[:, 0, 1] = -w * a0
    blocks[:, 1, 0] = a0
    blocks[:, 1, 1] = w * s0
    u = SiteBlockMatrix(blocks)
    dev = _hnorm_upto((u.dagger() @ _pivot_sites(p.m, PIVOT_0) @ u).embed() - p.embed(), tol.proj)
    if dev > tol.proj:
        raise PostconditionFailure("pivot conjugation residual %.3e" % dev)
    return u


def _pivot_sites(m: int, pivot: np.ndarray) -> SiteBlockMatrix:
    return SiteBlockMatrix(np.broadcast_to(pivot, (m, 2, 2)).copy())


def dilate_commuting_pair(a, b, tol: Tolerances = DEFAULT_TOL):
    """Double the dimension of a strict commuting pair (a, b) with
    a^2 + b^2 strictly below 1 into an absolutely compatible pair

        a1 = [[a^2, ab], [ab, 1-a^2]],  b1 = [[b^2, -ab], [-ab, 1-b^2]].
    """
    (a, va), (b, vb) = _effects(a, b, tol)
    # i[a, b] is Hermitian with the norm of [a, b]
    if _hnorm_upto(1j * (a @ b - b @ a), tol.compat) > tol.compat:
        raise NotCommuting("||ab - ba|| exceeds %.3e" % tol.compat)
    _require_strict(va, vb, tol)
    square_sum = hermitize(a @ a + b @ b)
    vals = np.linalg.eigvalsh(square_sum)
    if vals[-1] >= 1.0 - tol.spec:
        raise SumExceedsOne("largest eigenvalue of a^2 + b^2 is %.3e" % vals[-1])
    if vals[0] <= tol.spec:
        raise NotStrict("a^2 + b^2 is not strict")

    one = identity_like(a)
    ab = hermitize(a @ b)
    a1 = np.block([[a @ a, ab], [ab, one - a @ a]])
    b1 = np.block([[b @ b, -ab], [-ab, one - b @ b]])
    a1, b1 = hermitize(a1), hermitize(b1)
    residual = _pair_spectra(a1, b1).residual
    if residual > tol.compat:
        raise PostconditionFailure("dilated pair residual %.3e" % residual)
    return a1, b1


def _site_pair_blocks(x0, params: StrictProjectionParams):
    proj = strict_projection_from_params(params).blocks
    eye = np.broadcast_to(np.eye(2, dtype=complex), proj.shape)
    piv = np.broadcast_to(PIVOT_0, proj.shape)
    lam = x0[:, None, None]
    a_blocks = (1.0 - lam) * piv + lam * proj
    b_blocks = (1.0 - lam) * piv + lam * (eye - proj)
    return SiteBlockMatrix(a_blocks), SiteBlockMatrix(b_blocks)


def pair_from_params(x0, params: StrictProjectionParams, tol: Tolerances = DEFAULT_TOL):
    """Strict absolutely compatible pair from per-site (x0, a0, w)."""
    x0 = _strict_reals(x0, "x0")
    if len(x0) != params.m:
        raise DimensionMismatch("x0 has %d sites, projection has %d" % (len(x0), params.m))
    sa, sb = _site_pair_blocks(x0, params)
    a, b = sa.embed(), sb.embed()
    va, vb = _factor_each(np.linalg.eigvalsh, a, b)
    if not (_strictness(va, tol) and _strictness(vb, tol)):
        raise PostconditionFailure("constructed pair is not strict at this tolerance")
    residual = _pair_spectra(a, b).residual
    if residual > tol.compat:
        raise PostconditionFailure("constructed pair residual %.3e" % residual)
    return a, b


def _conjugate_pair(u, site_pair):
    return tuple(hermitize(u @ s.embed() @ dagger(u)) for s in site_pair)


@dataclass(frozen=True)
class CanonicalForm:
    """Conjugating unitary u0 plus the per-site parameters (x0, a0, w).

    ``residual`` is the reconstruction residual max(||a' - a||, ||b' - b||)
    that ``canonicalize`` checked against ``tol.canon``.
    """

    u0: np.ndarray
    x0: np.ndarray
    projection: StrictProjectionParams
    residual: float

    @property
    def m(self) -> int:
        return self.projection.m

    @property
    def a0(self) -> np.ndarray:
        return self.projection.a0

    @property
    def w(self) -> np.ndarray:
        return self.projection.w

    def site_pair(self):
        return _site_pair_blocks(self.x0, self.projection)

    def reconstruct(self):
        return _conjugate_pair(self.u0, self.site_pair())

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "x0": [float(v) for v in self.x0],
            "a0": [float(v) for v in self.a0],
            "w": [[float(v.real), float(v.imag)] for v in self.w],
            "U0": matrix_to_json(self.u0),
        }


def _joint_eigenbasis(mats, gap: float):
    """Unitary refining one eigenbasis through a list of commuting
    Hermitian matrices, clustering eigenvalues closer than gap."""
    m = mats[0].shape[0]
    w = np.eye(m, dtype=complex)
    groups = [np.arange(m)]
    for mat in mats:
        refined = []
        for idx in groups:
            if len(idx) == 1:
                refined.append(idx)
                continue
            cols = w[:, idx]
            vals, vecs = np.linalg.eigh(hermitize(dagger(cols) @ mat @ cols))
            w[:, idx] = cols @ vecs
            refined.extend(idx[g] for g in cluster_indices(vals, gap))
        groups = refined
    return w


def canonicalize(a, b, tol: Tolerances = DEFAULT_TOL) -> CanonicalForm:
    """Invert a strict absolutely compatible pair into its canonical form.

    The steps are forced by the algebra of the canonical form:
    the positive/negative spectral halves of 1-a-b fix the site pairing up
    to rotations inside degenerate clusters; a joint eigenbasis of |a-b|
    and a compressed to the positive half pins the per-site parameters;
    the polar factor of the off-diagonal block of a aligns the negative
    half with the positive one and absorbs the phase gauge (so w = 1).
    """
    (a, va), (b, vb) = _effects(a, b, tol)
    n = a.shape[0]
    if n % 2:
        raise OddDimension("canonical form needs even dimension, got %d" % n)
    _require_strict(va, vb, tol)
    spectra = _require_compatible(_pair_spectra(a, b), tol)

    m = n // 2
    diff = spectra.abs_diff
    zvals, zvecs = spectra.rest
    if float(np.min(np.abs(zvals))) <= tol.spec:
        raise PairingFailure("1 - a - b has an eigenvalue at zero")
    neg = zvals < 0.0
    if int(np.count_nonzero(neg)) != m:
        raise PairingFailure("spectral halves of 1 - a - b have unequal rank")
    v_minus = zvecs[:, neg]
    v_plus = zvecs[:, ~neg]

    dvals = spectra.abs_diff_vals
    if float(np.max(np.abs(dvals[0::2] - dvals[1::2]))) > tol.cluster * max(1.0, float(dvals[-1])):
        raise PairingFailure("eigenvalues of |a - b| do not pair up")

    m_pp = hermitize(dagger(v_plus) @ diff @ v_plus)
    a_pp = hermitize(dagger(v_plus) @ a @ v_plus)
    # both are compressions of operators between 0 and 1, so the cluster
    # gap tol.cluster * max(1, ||mat||) is tol.cluster
    w_rot = _joint_eigenbasis([m_pp, a_pp], tol.cluster)
    f_plus = v_plus @ w_rot

    x0 = np.real(np.sum(np.conj(f_plus) * (diff @ f_plus), axis=0))
    d = np.real(np.sum(np.conj(f_plus) * (a @ f_plus), axis=0))

    # cross-half pairing: polar factor of the off-diagonal block of a
    t = dagger(f_plus) @ a @ v_minus
    u_svd, s, vh_svd = np.linalg.svd(t)
    if float(s[-1]) <= tol.spec:
        raise PairingFailure("off-diagonal block of a is numerically singular")
    f_minus = v_minus @ dagger(u_svd @ vh_svd)

    if np.any(x0 <= tol.spec) or np.any(x0 >= 1.0 - tol.spec):
        raise PostconditionFailure("recovered x0 is not strict")
    if np.any(d <= tol.spec) or np.any(x0 - d <= tol.spec):
        raise PostconditionFailure("recovered projection parameter is not strict")
    a0 = np.sqrt(d / x0)

    order = np.lexsort((a0, x0))
    x0, a0 = x0[order], a0[order]
    f_plus, f_minus = f_plus[:, order], f_minus[:, order]

    u0 = np.zeros((n, n), dtype=complex)
    u0[:, 0::2] = f_plus
    u0[:, 1::2] = f_minus

    projection = StrictProjectionParams(a0, np.ones(m))
    ra, rb = _conjugate_pair(u0, _site_pair_blocks(x0, projection))
    spectra = _factor_each(np.linalg.eigvalsh, ra - a, rb - b)
    err = max(float(np.abs(vals).max()) for vals in spectra)
    if err > tol.canon:
        raise PostconditionFailure("reconstruction residual %.3e > %.3e" % (err, tol.canon))
    return CanonicalForm(u0=u0, x0=x0, projection=projection, residual=err)


@dataclass(frozen=True)
class ExchangedPivotForm:
    """The same pair re-expressed with the pivots carrying x0: the first
    effect uses pivot diag(0,1), the second diag(1,0), and the shared
    strict projection is in the phase-free gauge."""

    u: np.ndarray
    x0: np.ndarray
    a0: np.ndarray

    @property
    def m(self) -> int:
        return len(self.x0)

    def site_pair(self):
        proj = strict_projection_from_params(
            StrictProjectionParams(self.a0, np.ones(self.m))
        ).blocks
        lam = self.x0[:, None, None]
        a_blocks = (1.0 - lam) * proj + lam * np.broadcast_to(PIVOT_0, proj.shape)
        b_blocks = (1.0 - lam) * proj + lam * np.broadcast_to(PIVOT_1, proj.shape)
        return SiteBlockMatrix(a_blocks), SiteBlockMatrix(b_blocks)

    def reconstruct(self):
        return _conjugate_pair(self.u, self.site_pair())


def exchanged_pivot_form(cf: CanonicalForm, tol: Tolerances = DEFAULT_TOL) -> ExchangedPivotForm:
    """Swap the roles of the strict projection and the pivots.

    Per site, with s0 = (1 - a0^2)^(1/2) and V = diag(1,-1) [[s0, -w a0],
    [a0, w s0]]: V ((1-x0) P0 + x0 P) V* = (1-x0) Phat + x0 P0, where Phat
    is the phase-free strict projection with the same a0, and the second
    effect picks up diag(1,0) instead.
    """
    a0, w = cf.a0, cf.w
    s0 = np.sqrt(1.0 - a0 * a0)
    blocks = np.empty((cf.m, 2, 2), dtype=complex)
    blocks[:, 0, 0] = s0
    blocks[:, 0, 1] = -w * a0
    blocks[:, 1, 0] = -a0
    blocks[:, 1, 1] = -w * s0
    v = SiteBlockMatrix(blocks)
    form = ExchangedPivotForm(u=cf.u0 @ dagger(v.embed()), x0=cf.x0, a0=a0)
    ra, rb = form.reconstruct()
    ca, cb = cf.reconstruct()
    err = max(_hnorm_upto(ra - ca, tol.canon), _hnorm_upto(rb - cb, tol.canon))
    if err > tol.canon:
        raise PostconditionFailure("pivot exchange residual %.3e" % err)
    return form
