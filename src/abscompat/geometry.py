"""Dimension-2 specialization and its Poincare-sphere geometry.

A strict absolutely compatible pair in dimension 2 is exactly

    A = (1-lam) P + lam Q,   B = (1-lam) P + lam Q'

for rank-one projections P, Q with P not in {Q, Q'}, Q' = 1 - Q, and
lam in (0, 1).  Under the affine chart [[a, al], [conj(al), 1-a]] ->
(a, Re al, Im al) rank-one projections form the sphere of radius 1/2
centred at (1/2, 0, 0), trace-one effects with 0 < det < 1/4 fill its
open interior, and the pairs above live on the pivotal sphere of index
lam with pivot at P.

Such a pair is the canonical form of canonical.py at m = 1: one site,
conjugated by U0, with pivot P = U0 P0 U0*, Q the conjugated strict
projection and lam = x0.  So decompose_pair_m2 inverts it by
canonicalize's own core, and the package has one inverse for strict
pairs.

Stacks.  pair_from_projections, decompose_pair_m2, geometry_report,
bloch_point, sphere_to_ball, ball_to_sphere and spheroid_residual take
(..., 2, 2) stacks (indices (...), chart points (..., 3)) and return
results stacked over the same leading axes; one pair keeps its 2-D
shapes and float fields.  Every gate applies to each element, and a
stack runs in one pass: it raises at the first gate that any element
fails, with the message of the first such element in C order
(hermitian._require), so one failing element raises what it raises
alone, and partners that do not stack raise the DomainError of
as_matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DegenerateSpec,
    DetOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    NotOnSphere,
    NotProjection,
    OutsideBall,
    PairingFailure,
    PostconditionFailure,
    SpectralAmbiguity,
    TraceNotOne,
)
from .hermitian import (
    _effects,
    _hermitian_pair,
    _hnorm_beyond,
    _hnorm_upto,
    _mixed_pair,
    _per_matrix,
    _projection,
    _record,
    _require,
    _require_unit_interval,
    _two_by_two,
    _vector,
    _vnorm,
    as_matrix,
    require_hermitian,
)
from .canonical import PIVOT_0, _canonical, _conjugate_pair, _projection_blocks, _validated
from .compat import _built_pair, _pair_spectra, _require_compatible

BALL_CENTER = np.array([0.5, 0.0, 0.0])
BALL_RADIUS = 0.5


def _point(pt, lead=()) -> np.ndarray:
    """pt as three coordinates (of any shape), or as the (lead..., 3)
    points of a sphere stacked over lead."""
    coords = _vector(pt, float, "a point")
    if lead and np.shape(pt) != lead + (3,):
        raise DimensionMismatch("points of shape %r for a sphere stacked over %r" % (np.shape(pt), lead))
    if coords.size != 3 * math.prod(lead):
        raise DimensionMismatch("a point needs exactly three coordinates")
    if not np.isfinite(coords).all():
        raise DomainError("point has non-finite coordinates")
    return coords.reshape(lead + (3,))


def _index(index):
    """index as a float inside (0, 1), or an array of them."""
    if np.ndim(index) == 0:
        try:
            index = float(index)
        except (TypeError, ValueError) as exc:
            raise DomainError("index must be numeric: %s" % exc) from exc
    index = _vector(index, float, "index").reshape(np.shape(index))
    _require((0.0 < index) & (index < 1.0), DegenerateSpec, "index %r outside (0, 1)", index)
    return _per_matrix(index)


def _axes(index, k: int):
    """index with k trailing unit axes, to weigh (..., k-axis) elements."""
    return np.reshape(index, np.shape(index) + (1,) * k)


def _bloch(x, tol: Tolerances) -> np.ndarray:
    """bloch_point of a validated Hermitian x, or the (..., 3) points of a
    (..., 2, 2) stack of them; an error reports the first offender."""
    if x.shape[-2:] != (2, 2):
        raise DimensionMismatch("the chart is for 2x2 matrices")
    tr = np.real(np.trace(x, axis1=-2, axis2=-1))
    _require(np.abs(tr - 1.0) <= tol.geo, TraceNotOne, "trace %.12f is not 1", tr)
    det = np.real(np.linalg.det(x))
    _require((-tol.geo <= det) & (det <= 0.25 + tol.geo), DetOutOfRange, "det %.3e outside [0, 1/4]", det)
    return _chart(x)


def _chart(x) -> np.ndarray:
    """(x[0,0], Re x[0,1], Im x[0,1]) over leading axes."""
    pt = np.empty(x.shape[:-2] + (3,))
    pt[..., 0], pt[..., 1], pt[..., 2] = x[..., 0, 0].real, x[..., 0, 1].real, x[..., 0, 1].imag
    return pt


def bloch_point(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Chart a trace-one 2x2 effect to (x[0,0], Re x[0,1], Im x[0,1]), or
    each of a (..., 2, 2) stack to (..., 3)."""
    return _bloch(require_hermitian(x, tol, stack=True), tol)


def bloch_matrix(pt, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return _bloch_matrices(_point(pt), tol)


def _bloch_matrices(pts, tol: Tolerances) -> np.ndarray:
    """bloch_matrix over leading axes of (..., 3) points; an error reports
    the first point outside the ball."""
    inside = np.sum((pts - BALL_CENTER) ** 2, axis=-1) <= BALL_RADIUS**2 + tol.geo
    _require(inside, OutsideBall, "point %r lies outside the chart ball", pts)
    t, al = pts[..., 0], pts[..., 1] + 1j * pts[..., 2]
    return _two_by_two(t, al, np.conj(al), 1.0 - t)


def _reference_focus(a, tol: Tolerances):
    """a validated once as a point of the open punctured ball, or each of a
    stack, and its chart point.  With trace one a negative eigenvalue makes
    det negative, so the det bounds cover positivity.  A non-numeric,
    non-finite or non-Hermitian a raises its own error."""
    a = require_hermitian(a, tol, stack=True)
    inside = a.shape[-2:] == (2, 2)
    if inside:
        tr = np.real(np.trace(a, axis1=-2, axis2=-1))
        vals = np.linalg.eigvalsh(a)
        det = vals[..., 0] * vals[..., 1]
        inside = (np.abs(tr - 1.0) <= tol.geo) & (tol.geo < det) & (det < 0.25 - tol.geo)
    _require(inside, DegenerateSpec, "reference effect must lie in the open punctured ball")
    return a, _chart(a)


def _rank_one(p, tol: Tolerances) -> np.ndarray:
    p = _projection(p, tol)
    if p.shape[-2:] != (2, 2):
        raise DimensionMismatch("expected a 2x2 projection")
    _require(np.abs(np.real(np.trace(p, axis1=-2, axis2=-1)) - 1.0) <= tol.proj, NotProjection,
             "expected a rank-one projection")
    return p


def _require_lead(index, *projections):
    """One leading shape (...) for the index and the (..., 2, 2) projections."""
    shapes = [np.shape(index)] + [p.shape[:-2] for p in projections]
    if len(set(shapes)) > 1:
        raise DimensionMismatch("index and projections stacked over shapes %s"
                                % ", ".join(map(repr, shapes)))


@dataclass(frozen=True)
class PairSpec:
    """Rank-one projections and the mixing index of a dimension-2 pair, or
    of each pair of a stack: (..., 2, 2) projections, (...) indices."""

    pivot: np.ndarray
    target: np.ndarray
    index: float


def _separated(pivot, target, bound: float) -> np.ndarray:
    """The (..., 2) mask of ||pivot - target|| > bound and ||pivot - (1 -
    target)|| > bound for (..., 2, 2) pivots and targets, as the exact
    operator norms decide it: both differences of every pair go as one
    stack to hermitian._hnorm_beyond, whose Frobenius cuts settle most
    tests without a factorization."""
    return _hnorm_beyond(np.stack((pivot - target, pivot - (np.eye(2) - target)), axis=-3), bound)


def _validate_spec(pivot, target, index, tol: Tolerances):
    """Rank-one pivot and target, the pivot strictly farther than tol.proj
    from the target and from its complement (_separated), and an index in
    (0, 1)."""
    pivot = _rank_one(pivot, tol)
    target = _rank_one(target, tol)
    index = _index(index)
    _require_lead(index, pivot, target)
    separated = _separated(pivot, target, tol.proj)
    _require(separated[..., 0], DegenerateSpec, "pivot equals the target projection")
    _require(separated[..., 1], DegenerateSpec, "pivot equals the complement of the target")
    return pivot, target, index


def pair_from_projections(pivot, target, index, tol: Tolerances = DEFAULT_TOL):
    """A = (1-index) pivot + index target, B the same with 1 - target.

    Mixtures of exactly Hermitian matrices with real weights are exactly
    Hermitian, so A and B need no hermitize."""
    pivot, target, index = _validate_spec(pivot, target, index, tol)
    a, b = _mixed_pair(_axes(index, 2), pivot, target, np.eye(2, dtype=complex) - target)
    return _built_pair(a, b, tol, (DegenerateSpec, "projections too close to degeneracy at this tolerance"))


def decompose_pair_m2(a, b, tol: Tolerances = DEFAULT_TOL) -> PairSpec:
    """Inverse of pair_from_projections: canonicalize at n = 2.

    A strict pair of size 2 is one site of the canonical form, so its
    form (U0, x0, a0, w) from canonical._canonical gives the spec: the
    pivot is U0 P0 U0*, the target U0 P U0* for the strict projection P
    of (a0, w), and the index x0.  The pair is validated as canonicalize
    validates it, after a check that it is 2x2, and the spec must rebuild
    it within tol.geo.  A pair whose spectra do not pair up as the form's
    raises SpectralAmbiguity, and a stack of no pairs raises EmptyInput,
    as canonicalize does on an empty pair.
    """
    a, b = _hermitian_pair(a, b, tol, stack=True)
    if a.shape[-2:] != (2, 2):
        _effects(a, b, tol)
        raise DimensionMismatch("decomposition is for 2x2 effects")
    if not a.size:
        _validated(a, b, tol)
    try:
        cf = _canonical(a, b, tol)
    except PairingFailure as exc:
        raise SpectralAmbiguity(str(exc)) from exc
    pivot, target = _conjugate_pair(cf.u0, (PIVOT_0[None], _projection_blocks(cf.a0, cf.w)))
    index = cf.x0[..., 0]
    ra, rb = _mixed_pair(_axes(index, 2), pivot, target, np.eye(2, dtype=complex) - target)
    err = np.maximum(_hnorm_upto(ra - a, tol.geo), _hnorm_upto(rb - b, tol.geo))
    _require(err <= tol.geo, PostconditionFailure, "round-trip residual %.3e > %.3e", err, tol.geo)
    return PairSpec(pivot=pivot, target=target, index=_per_matrix(index))


@dataclass(frozen=True)
class PivotalSphere:
    """Sphere with diameter from the pivot point to (1-index) pivot +
    index antipode; internally tangent to the chart ball at the pivot.
    Stacked over leading axes: (..., 3) points, (...) index and radius."""

    pivot: np.ndarray
    index: float
    center: np.ndarray
    radius: float


def pivotal_sphere(pivot, index, tol: Tolerances = DEFAULT_TOL) -> PivotalSphere:
    index = _index(index)
    pivot = _rank_one(pivot, tol)
    _require_lead(index, pivot)
    return _pivotal_sphere(_bloch(pivot, tol), index)


def _pivotal_sphere(p, index) -> PivotalSphere:
    antipode = 2.0 * BALL_CENTER - p
    lam = _axes(index, 1)
    far = (1.0 - lam) * p + lam * antipode
    return PivotalSphere(pivot=p, index=index, center=0.5 * (p + far), radius=0.5 * index)


def sphere_to_ball(sphere: PivotalSphere, point, tol: Tolerances = DEFAULT_TOL):
    """Point C on the pivotal sphere -> the unique R on the chart ball with
    C = (1-index) pivot + index R, plus the antipode of R; (..., 3) points
    for a stacked sphere."""
    _record(sphere, PivotalSphere, "sphere")
    point = _point(point, np.shape(sphere.index))
    _require(np.abs(_vnorm(point - sphere.center) - sphere.radius) <= tol.geo, NotOnSphere,
             "point is not on the pivotal sphere")
    r = sphere.pivot + (point - sphere.pivot) / _axes(sphere.index, 1)
    return r, 2.0 * BALL_CENTER - r


def ball_to_sphere(sphere: PivotalSphere, point, tol: Tolerances = DEFAULT_TOL):
    """Point R on the chart ball boundary -> (C, D) antipodal on the
    pivotal sphere, C = (1-index) pivot + index R; (..., 3) points for a
    stacked sphere."""
    _record(sphere, PivotalSphere, "sphere")
    point = _point(point, np.shape(sphere.index))
    _require(np.abs(_vnorm(point - BALL_CENTER) - BALL_RADIUS) <= tol.geo, NotOnSphere,
             "point is not on the chart ball")
    lam = _axes(sphere.index, 1)
    c = (1.0 - lam) * sphere.pivot + lam * point
    return c, 2.0 * sphere.center - c


@dataclass(frozen=True)
class GeometryReport:
    sphere: PivotalSphere
    points: dict
    residuals: dict

    def to_json(self) -> dict:
        return {
            "ball": {"center": BALL_CENTER.tolist(), "radius": BALL_RADIUS},
            "pivotal": {
                "pivot": self.sphere.pivot.tolist(),
                "index": self.sphere.index,
                "center": self.sphere.center.tolist(),
                "radius": self.sphere.radius,
            },
            "points": {k: v.tolist() for k, v in self.points.items()},
            "residuals": dict(self.residuals),
        }


def geometry_report(pivot, target, index, tol: Tolerances = DEFAULT_TOL) -> GeometryReport:
    """Residuals of the five geometric facts about a dimension-2 pair:
    tangency of the pivotal sphere, coplanarity of the six points,
    parallelism of AB and QQ', the right angle at the pivot, and
    antipodality of A and B on the pivotal sphere.  For a stack of specs
    the sphere, the points and the residuals are stacked."""
    pivot, target, index = _validate_spec(pivot, target, index, tol)
    sphere = _pivotal_sphere(_bloch(pivot, tol), index)

    p = sphere.pivot
    q = _bloch(target, tol)
    pp = 2.0 * BALL_CENTER - p
    qp = 2.0 * BALL_CENTER - q
    a, b = _mixed_pair(_axes(index, 1), p, q, qp)
    points = {"P": p, "Pp": pp, "Q": q, "Qp": qp, "A": a, "B": b}

    tangency = np.abs(_vnorm(BALL_CENTER - sphere.center) - (BALL_RADIUS - sphere.radius))
    rows = np.stack([pp - p, q - p, qp - p, a - p, b - p], axis=-2)
    sv = np.linalg.svd(rows, compute_uv=False)
    coplanarity = sv[..., 2] / sv[..., 0]

    u = a - b
    v = q - qp
    parallelism = _vnorm(np.cross(u / _axes(_vnorm(u), 1), v / _axes(_vnorm(v), 1)))
    right_angle = np.abs(np.vecdot(a - p, b - p) / (_vnorm(a - p) * _vnorm(b - p)))
    antipodality = _vnorm(0.5 * (a + b) - sphere.center)

    residuals = {
        "tangency": tangency,
        "coplanarity": coplanarity,
        "parallelism": parallelism,
        "right_angle": right_angle,
        "antipodality": antipodality,
    }
    residuals = {name: _per_matrix(np.asarray(value)) for name, value in residuals.items()}
    return GeometryReport(sphere=sphere, points=points, residuals=residuals)


@dataclass(frozen=True)
class SpheroidStats:
    """Focal sums over the partners: floats for one reference, arrays over
    the leading axes of a stack of references."""

    count: int
    mean: float
    spread: float
    relative_spread: float


def spheroid_residual(a, partners, tol: Tolerances = DEFAULT_TOL) -> SpheroidStats:
    """Constancy of |X - A| + |X - A'| over chart points X of effects
    absolutely compatible with A, where A' is the reflection of A through
    the ball centre (the image of 1 - A).  A (..., 2, 2) stack of
    references takes (..., k, 2, 2) partners.

    The partners are validated, charted and checked as one stack, which
    raises at the first check that any partner fails, with the message of
    the first such partner in C order (hermitian._require): one failing
    partner raises what it raises alone.  Partners that do not stack into
    one array raise the DomainError of as_matrix, and partners that are
    no iterable a DomainError of their own.
    """
    try:
        partners = list(partners)
    except TypeError as exc:
        raise DomainError("partners must be an iterable of effects, got %s" % type(partners).__name__) from exc
    if not partners:
        raise EmptyInput("no partner effects supplied")
    a, focus = _reference_focus(a, tol)
    mirror = 2.0 * BALL_CENTER - focus
    xs = as_matrix(partners, stack=True)
    if xs.shape[:-3] != a.shape[:-2] or xs.ndim != a.ndim + 1:
        raise DimensionMismatch("partners do not stack into (..., k, n, n)")
    if xs.shape[-3] == 0:
        raise EmptyInput("no partner effects supplied")
    # each partner must be an effect, then in the chart's domain, then compatible with a
    xs = require_hermitian(xs, tol, stack=True)
    _require_unit_interval(np.linalg.eigvalsh(xs), tol)
    pts = _bloch(xs, tol)
    _require_compatible(_pair_spectra(np.broadcast_to(a[..., None, :, :], xs.shape), xs, tol.compat), tol)
    sums = _vnorm(pts - focus[..., None, :]) + _vnorm(pts - mirror[..., None, :])
    mean = np.mean(sums, axis=-1)
    spread = np.max(sums, axis=-1) - np.min(sums, axis=-1)
    relative = np.divide(spread, mean, out=np.zeros_like(spread), where=mean > 0)
    return SpheroidStats(count=sums.shape[-1], mean=_per_matrix(mean), spread=_per_matrix(spread),
                         relative_spread=_per_matrix(relative))
