"""Dimension-2 specialization and its Poincare-sphere geometry.

A strict absolutely compatible pair in dimension 2 is exactly

    A = (1-lam) P + lam Q,   B = (1-lam) P + lam Q'

for rank-one projections P, Q with P not in {Q, Q'}, Q' = 1 - Q, and
lam in (0, 1).  Under the affine chart [[a, al], [conj(al), 1-a]] ->
(a, Re al, Im al) rank-one projections form the sphere of radius 1/2
centred at (1/2, 0, 0), trace-one effects with 0 < det < 1/4 fill its
open interior, and the pairs above live on the pivotal sphere of index
lam with pivot at P.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError,
    DegenerateSpec,
    DetOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    NotOnSphere,
    NotProjection,
    OutsideBall,
    PostconditionFailure,
    SpectralAmbiguity,
    TraceNotOne,
)
from .hermitian import (
    _effects,
    _hnorm_upto,
    _hnorm_within,
    _mixed_pair,
    _require_strict,
    _require_unit_interval,
    _two_by_two,
    _vector,
    _vnorm,
    as_matrix,
    hermitize,
    require_hermitian,
    require_projection,
)
from .compat import _built_pair, _pair_spectra, _require_compatible

BALL_CENTER = np.array([0.5, 0.0, 0.0])
BALL_RADIUS = 0.5


def _point(pt) -> np.ndarray:
    pt = _vector(pt, float, "a point")
    if pt.shape != (3,):
        raise DimensionMismatch("a point needs exactly three coordinates")
    if not np.isfinite(pt).all():
        raise DomainError("point has non-finite coordinates")
    return pt


def _index(index) -> float:
    """index as a float inside (0, 1)."""
    try:
        index = float(index)
    except (TypeError, ValueError) as exc:
        raise DomainError("index must be numeric: %s" % exc) from exc
    if not 0.0 < index < 1.0:
        raise DegenerateSpec("index %r outside (0, 1)" % index)
    return index


def _first(values, bad) -> float:
    """The first of values where bad holds."""
    return float(np.extract(bad, values)[0])


def _bloch(x, tol: Tolerances) -> np.ndarray:
    """bloch_point of a validated Hermitian x, or the (..., 3) points of a
    (..., 2, 2) stack of them; an error reports the first offender."""
    if x.shape[-2:] != (2, 2):
        raise DimensionMismatch("the chart is for 2x2 matrices")
    tr = np.real(np.trace(x, axis1=-2, axis2=-1))
    bad = np.abs(tr - 1.0) > tol.geo
    if bad.any():
        raise TraceNotOne("trace %.12f is not 1" % _first(tr, bad))
    det = np.real(np.linalg.det(x))
    bad = (det < -tol.geo) | (det > 0.25 + tol.geo)
    if bad.any():
        raise DetOutOfRange("det %.3e outside [0, 1/4]" % _first(det, bad))
    return _chart(x)


def _chart(x) -> np.ndarray:
    """(x[0,0], Re x[0,1], Im x[0,1]) over leading axes."""
    pt = np.empty(x.shape[:-2] + (3,))
    pt[..., 0], pt[..., 1], pt[..., 2] = x[..., 0, 0].real, x[..., 0, 1].real, x[..., 0, 1].imag
    return pt


def bloch_point(x, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Chart a trace-one 2x2 effect to (x[0,0], Re x[0,1], Im x[0,1])."""
    return _bloch(require_hermitian(x, tol), tol)


def bloch_matrix(pt, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return _bloch_matrices(_point(pt), tol)


def _bloch_matrices(pts, tol: Tolerances) -> np.ndarray:
    """bloch_matrix over leading axes of (..., 3) points; an error reports
    the first point outside the ball."""
    outside = np.sum((pts - BALL_CENTER) ** 2, axis=-1) > BALL_RADIUS**2 + tol.geo
    if outside.any():
        raise OutsideBall("point %r lies outside the chart ball" % (pts[outside][0].tolist(),))
    t, al = pts[..., 0], pts[..., 1] + 1j * pts[..., 2]
    return _two_by_two(t, al, np.conj(al), 1.0 - t)


def in_punctured_ball(x, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Trace-one positive 2x2 with 0 < det < 1/4, both bounds strict with
    margin; the centre (1/2)I has det exactly 1/4 and is excluded."""
    try:
        _reference_focus(x, tol)
    except DegenerateSpec:
        return False
    return True


def _reference_focus(a, tol: Tolerances):
    """a validated once as a point of the open punctured ball, and its chart
    point.  With trace one a negative eigenvalue makes det negative, so the
    det bounds cover positivity."""
    try:
        a = require_hermitian(a, tol)
        vals = np.linalg.eigvalsh(a)
        inside = (a.shape == (2, 2) and abs(float(np.real(np.trace(a))) - 1.0) <= tol.geo
                  and tol.geo < float(vals[0] * vals[1]) < 0.25 - tol.geo)
    except Exception:
        inside = False
    if not inside:
        raise DegenerateSpec("reference effect must lie in the open punctured ball")
    return a, _chart(a)


def _rank_one(p, tol: Tolerances) -> np.ndarray:
    p = require_projection(p, tol)
    if p.shape != (2, 2):
        raise DimensionMismatch("expected a 2x2 projection")
    if abs(float(np.real(np.trace(p))) - 1.0) > tol.proj:
        raise NotProjection("expected a rank-one projection")
    return p


@dataclass(frozen=True)
class PairSpec:
    """Rank-one projections and the mixing index of a dimension-2 pair."""

    pivot: np.ndarray
    target: np.ndarray
    index: float


def _validate_spec(pivot, target, index, tol: Tolerances):
    """Rank-one pivot and target, neither the target nor its complement
    within tol.proj of the pivot, and an index in (0, 1).

    The separations are only compared with tol.proj, and a Hermitian
    n x n h has ||h||_F / sqrt(n) <= ||h|| <= ||h||_F, so a Frobenius norm
    above sqrt(n) tol.proj, the common case, or within tol.proj settles a
    test without a factorization (hermitian._hnorm_within), and every
    DegenerateSpec decision is the one the exact norm gives.
    """
    pivot = _rank_one(pivot, tol)
    target = _rank_one(target, tol)
    index = _index(index)
    one = np.eye(2, dtype=complex)
    if _hnorm_within(pivot - target, tol.proj):
        raise DegenerateSpec("pivot equals the target projection")
    if _hnorm_within(pivot - (one - target), tol.proj):
        raise DegenerateSpec("pivot equals the complement of the target")
    return pivot, target, index


def pair_from_projections(pivot, target, index, tol: Tolerances = DEFAULT_TOL):
    """A = (1-index) pivot + index target, B the same with 1 - target.

    Mixtures of exactly Hermitian matrices with real weights are exactly
    Hermitian, so A and B need no hermitize."""
    pivot, target, index = _validate_spec(pivot, target, index, tol)
    a, b = _mixed_pair(index, pivot, target, np.eye(2, dtype=complex) - target)
    not_strict = DegenerateSpec("projections too close to degeneracy at this tolerance")
    return _built_pair(a, b, tol, not_strict)


def decompose_pair_m2(a, b, tol: Tolerances = DEFAULT_TOL) -> PairSpec:
    """Closed-form inverse of pair_from_projections.

    The index is the doubled eigenvalue of |a-b|; the pivot spans the top
    eigenvector of a+b (eigenvalue 2 - index), which is the bottom
    eigenvector of 1-a-b; the target is read off from a by affine
    inversion.
    """
    (a, va), (b, vb) = _effects(a, b, tol)
    if a.shape != (2, 2):
        raise DimensionMismatch("decomposition is for 2x2 effects")
    _require_strict(va, vb, tol)
    spectra = _require_compatible(_pair_spectra(a, b), tol)

    dvals = spectra.abs_diff_vals
    if float(dvals[1] - dvals[0]) > tol.cluster * max(1.0, float(dvals[1])):
        raise SpectralAmbiguity("|a - b| does not have a doubled eigenvalue")
    index = float(0.5 * (dvals[0] + dvals[1]))

    zvals, zvecs = spectra.rest
    if abs(1.0 - float(zvals[0]) - (2.0 - index)) > 10.0 * tol.cluster:
        raise PostconditionFailure("a + b has no eigenvalue at 2 - index")
    v = zvecs[:, 0]
    pivot = hermitize(np.outer(v, np.conj(v)))
    target = hermitize((a - (1.0 - index) * pivot) / index)

    ra, rb = pair_from_projections(pivot, target, index, tol)
    err = max(_hnorm_upto(ra - a, tol.geo), _hnorm_upto(rb - b, tol.geo))
    if err > tol.geo:
        raise PostconditionFailure("round-trip residual %.3e > %.3e" % (err, tol.geo))
    return PairSpec(pivot=pivot, target=target, index=index)


@dataclass(frozen=True)
class PivotalSphere:
    """Sphere with diameter from the pivot point to (1-index) pivot +
    index antipode; internally tangent to the chart ball at the pivot."""

    pivot: np.ndarray
    index: float
    center: np.ndarray
    radius: float


def pivotal_sphere(pivot, index, tol: Tolerances = DEFAULT_TOL) -> PivotalSphere:
    index = _index(index)
    return _pivotal_sphere(_bloch(_rank_one(pivot, tol), tol), index)


def _pivotal_sphere(p, index: float) -> PivotalSphere:
    antipode = 2.0 * BALL_CENTER - p
    far = (1.0 - index) * p + index * antipode
    return PivotalSphere(pivot=p, index=index, center=0.5 * (p + far), radius=0.5 * index)


def sphere_to_ball(sphere: PivotalSphere, point, tol: Tolerances = DEFAULT_TOL):
    """Point C on the pivotal sphere -> the unique R on the chart ball with
    C = (1-index) pivot + index R, plus the antipode of R."""
    point = _point(point)
    if abs(float(np.linalg.norm(point - sphere.center)) - sphere.radius) > tol.geo:
        raise NotOnSphere("point is not on the pivotal sphere")
    r = sphere.pivot + (point - sphere.pivot) / sphere.index
    return r, 2.0 * BALL_CENTER - r


def ball_to_sphere(sphere: PivotalSphere, point, tol: Tolerances = DEFAULT_TOL):
    """Point R on the chart ball boundary -> (C, D) antipodal on the
    pivotal sphere, C = (1-index) pivot + index R."""
    point = _point(point)
    if abs(float(np.linalg.norm(point - BALL_CENTER)) - BALL_RADIUS) > tol.geo:
        raise NotOnSphere("point is not on the chart ball")
    c = (1.0 - sphere.index) * sphere.pivot + sphere.index * point
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
    antipodality of A and B on the pivotal sphere."""
    pivot, target, index = _validate_spec(pivot, target, index, tol)
    sphere = _pivotal_sphere(_bloch(pivot, tol), index)

    p = sphere.pivot
    q = _bloch(target, tol)
    pp = 2.0 * BALL_CENTER - p
    qp = 2.0 * BALL_CENTER - q
    a, b = _mixed_pair(index, p, q, qp)
    points = {"P": p, "Pp": pp, "Q": q, "Qp": qp, "A": a, "B": b}

    tangency = abs(
        float(np.linalg.norm(BALL_CENTER - sphere.center)) - (BALL_RADIUS - sphere.radius)
    )
    rows = np.vstack([pp - p, q - p, qp - p, a - p, b - p])
    sv = np.linalg.svd(rows, compute_uv=False)
    coplanarity = float(sv[2] / sv[0])

    u = a - b
    v = q - qp
    parallelism = float(
        np.linalg.norm(np.cross(u / np.linalg.norm(u), v / np.linalg.norm(v)))
    )
    right_angle = abs(
        float(np.dot(a - p, b - p)) / (np.linalg.norm(a - p) * np.linalg.norm(b - p))
    )
    antipodality = float(np.linalg.norm(0.5 * (a + b) - sphere.center))

    residuals = {
        "tangency": tangency,
        "coplanarity": coplanarity,
        "parallelism": parallelism,
        "right_angle": right_angle,
        "antipodality": antipodality,
    }
    return GeometryReport(sphere=sphere, points=points, residuals=residuals)


@dataclass(frozen=True)
class SpheroidStats:
    count: int
    mean: float
    spread: float
    relative_spread: float


def spheroid_residual(a, partners, tol: Tolerances = DEFAULT_TOL) -> SpheroidStats:
    """Constancy of |X - A| + |X - A'| over chart points X of effects
    absolutely compatible with A, where A' is the reflection of A through
    the ball centre (the image of 1 - A).

    The partners are validated, charted and checked as one stack.  When
    any fails, each is checked alone, in order, as a batch of one, so the
    error is the one the first failing partner raises by itself.
    """
    partners = list(partners)
    if not partners:
        raise EmptyInput("no partner effects supplied")
    a, focus = _reference_focus(a, tol)
    mirror = 2.0 * BALL_CENTER - focus

    try:
        xs = as_matrix(partners, stack=True)
        if xs.ndim != 3:
            raise DimensionMismatch("partners do not stack into (k, n, n)")
        pts = _partner_points(a, xs, tol)
    except AbscompatError:
        for x in partners:
            _partner_points(a, as_matrix(x)[None], tol)
        raise
    sums = _vnorm(pts - focus) + _vnorm(pts - mirror)
    mean = float(np.mean(sums))
    spread = float(np.max(sums) - np.min(sums))
    return SpheroidStats(
        count=len(sums), mean=mean, spread=spread,
        relative_spread=spread / mean if mean > 0 else 0.0,
    )


def _partner_points(a, xs, tol: Tolerances) -> np.ndarray:
    """Chart points of a (k, n, n) stack of effects absolutely compatible
    with a: each must be an effect, then in the chart's domain, then
    compatible with a, and a batch of one raises what that partner fails
    first."""
    xs = require_hermitian(xs, tol, stack=True)
    _require_unit_interval(np.linalg.eigvalsh(xs), tol)
    pts = _bloch(xs, tol)
    _require_compatible(_pair_spectra(np.broadcast_to(a, xs.shape), xs), tol)
    return pts
