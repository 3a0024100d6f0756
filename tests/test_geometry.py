"""Dimension-2 chart, pivotal spheres, and the pair geometry checks."""

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.errors import (
    DegenerateSpec,
    DetOutOfRange,
    DimensionMismatch,
    EmptyInput,
    NotAbsolutelyCompatible,
    NotOnSphere,
    NotProjection,
    NotStrict,
    OutsideBall,
    SpectralAmbiguity,
    TraceNotOne,
)
from abscompat.generate import (
    derive_seed,
    random_pair_spec,
    random_rank_one_projection,
    random_spheroid_partners,
)
from abscompat.geometry import (
    BALL_CENTER,
    BALL_RADIUS,
    ball_to_sphere,
    bloch_matrix,
    bloch_point,
    decompose_pair_m2,
    geometry_report,
    pair_from_projections,
    pivotal_sphere,
    sphere_to_ball,
    spheroid_residual,
)
from abscompat.hermitian import op_norm

P0 = np.diag([0.0, 1.0]).astype(complex)
P1 = np.diag([1.0, 0.0]).astype(complex)
QHALF = 0.5 * np.ones((2, 2), dtype=complex)


def test_bloch_point_fixtures():
    assert np.allclose(bloch_point(P1), [1.0, 0.0, 0.0])
    assert np.allclose(bloch_point(0.5 * np.eye(2)), [0.5, 0.0, 0.0])
    pt = bloch_point(QHALF)
    assert np.allclose(pt, [0.5, 0.5, 0.0])
    # rank one means the boundary equation holds
    assert abs(np.sum((pt - BALL_CENTER) ** 2) - BALL_RADIUS**2) <= 1e-12


def test_bloch_point_rejections():
    with pytest.raises(TraceNotOne):
        bloch_point(np.diag([0.3, 0.3]))
    with pytest.raises(DetOutOfRange):
        bloch_point(np.diag([1.5, -0.5]))


def test_bloch_matrix_fixtures():
    assert np.allclose(bloch_matrix([0.0, 0.0, 0.0]), P0)
    assert np.allclose(bloch_matrix([0.5, 0.5, 0.0]), QHALF)
    with pytest.raises(OutsideBall, match=r"^point \[1\.0, 1\.0, 1\.0\] lies outside the chart ball$"):
        bloch_matrix([1.0, 1.0, 1.0])


def test_bloch_round_trip_and_affinity():
    gen = np.random.Generator(np.random.Philox(key=3))
    for _ in range(20):
        d = gen.standard_normal(3)
        d /= np.linalg.norm(d)
        pt = BALL_CENTER + d * BALL_RADIUS * gen.random()
        x = bloch_matrix(pt)
        assert np.allclose(bloch_point(x), pt, atol=1e-14)
    # the chart is affine
    x = bloch_matrix(BALL_CENTER + [0.1, 0.2, 0.0])
    y = bloch_matrix(BALL_CENTER - [0.3, 0.1, 0.2])
    t = 0.3
    lhs = bloch_point(t * x + (1 - t) * y)
    rhs = t * bloch_point(x) + (1 - t) * bloch_point(y)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_in_punctured_ball():
    """random_spheroid_partners draws for a reference inside the punctured
    ball and raises for one outside it."""
    random_spheroid_partners(np.array([[0.25, 0.25], [0.25, 0.75]]), 1, 0)
    # det = 1/4 exactly, det = 0, trace != 1
    for x in (0.5 * np.eye(2), P0, np.diag([0.3, 0.3])):
        with pytest.raises(DegenerateSpec, match="^reference effect must lie in the open punctured ball$"):
            random_spheroid_partners(x, 1, 0)


def test_pair_from_projections_fixture():
    a, b = pair_from_projections(P0, QHALF, 0.5)
    assert np.allclose(a, np.array([[0.25, 0.25], [0.25, 0.75]]))
    assert np.allclose(b, np.array([[0.25, -0.25], [-0.25, 0.75]]))


def test_pair_from_projections_degenerate():
    with pytest.raises(DegenerateSpec):
        pair_from_projections(P0, P0, 0.5)
    with pytest.raises(DegenerateSpec):
        pair_from_projections(P0, P1, 0.5)  # complement of the target
    with pytest.raises(DegenerateSpec):
        pair_from_projections(P0, QHALF, 1.0)
    # projections, but of rank 0 and 2
    for pivot in (np.zeros((2, 2)), np.eye(2)):
        with pytest.raises(NotProjection, match="^expected a rank-one projection$"):
            pair_from_projections(pivot, QHALF, 0.5)


def test_decompose_fixture():
    a, b = pair_from_projections(P0, QHALF, 0.5)
    spec = decompose_pair_m2(a, b)
    assert abs(spec.index - 0.5) <= 1e-12
    assert op_norm(spec.pivot - P0) <= 1e-12
    assert op_norm(spec.target - QHALF) <= 1e-12


def test_decompose_rejections():
    a = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
    with pytest.raises(NotAbsolutelyCompatible):
        decompose_pair_m2(a, a)
    with pytest.raises(NotStrict):
        decompose_pair_m2(P0, QHALF)
    # compatible at this tolerance, but |a - b| and 1 - |1 - a - b| do not pair up
    with pytest.raises(SpectralAmbiguity):
        decompose_pair_m2(np.diag([0.3, 0.6]), np.diag([0.5, 0.5]), DEFAULT_TOL.override(compat=10.0))


def test_decompose_round_trip():
    for i in range(40):
        pivot, target, index = random_pair_spec(derive_seed(19, i))
        a, b = pair_from_projections(pivot, target, index)
        spec = decompose_pair_m2(a, b)
        assert abs(spec.index - index) <= 1e-9
        assert op_norm(spec.pivot - pivot) <= 1e-9
        assert op_norm(spec.target - target) <= 1e-9


def test_decompose_uniqueness_negative_control():
    pivot, target, index = random_pair_spec(2024)
    a, b = pair_from_projections(pivot, target, index)
    bumped = index + 1e-5
    ra = (1.0 - bumped) * pivot + bumped * target
    assert op_norm(ra - a) > 10 * DEFAULT_TOL.geo


def test_pivotal_sphere_fixtures():
    s = pivotal_sphere(P0, 0.5)
    assert np.allclose(s.pivot, [0.0, 0.0, 0.0])
    assert np.allclose(s.center, [0.25, 0.0, 0.0])
    assert abs(s.radius - 0.25) <= 1e-15

    s = pivotal_sphere(P1, 0.5)
    assert np.allclose(s.center, [0.75, 0.0, 0.0])

    with pytest.raises(DegenerateSpec):
        pivotal_sphere(P0, 1.0)


def test_sphere_tangency():
    for i in range(20):
        pivot = random_rank_one_projection(derive_seed(29, i))
        gen = np.random.Generator(np.random.Philox(key=derive_seed(30, i)))
        index = 0.05 + 0.9 * gen.random()
        s = pivotal_sphere(pivot, index)
        gap = np.linalg.norm(BALL_CENTER - s.center)
        assert abs(gap - (BALL_RADIUS - s.radius)) <= DEFAULT_TOL.geo


def test_geometry_report_fixture():
    rep = geometry_report(P0, QHALF, 0.5)
    for name, value in rep.residuals.items():
        assert value <= 1e-12, name
    assert np.allclose(rep.points["A"], [0.25, 0.25, 0.0])
    assert np.allclose(rep.points["B"], [0.25, -0.25, 0.0])
    assert np.allclose(rep.points["Pp"], [1.0, 0.0, 0.0])


def test_geometry_report_random():
    for i in range(30):
        pivot, target, index = random_pair_spec(derive_seed(39, i))
        rep = geometry_report(pivot, target, index)
        for name, value in rep.residuals.items():
            assert value <= DEFAULT_TOL.geo, (name, value)


def test_geometry_json_schema():
    blob = geometry_report(P0, QHALF, 0.5).to_json()
    assert set(blob) == {"ball", "pivotal", "points", "residuals"}
    assert set(blob["points"]) == {"P", "Pp", "Q", "Qp", "A", "B"}
    assert blob["ball"]["radius"] == 0.5


def test_point_bijection():
    sphere = pivotal_sphere(P0, 0.5)
    p = sphere.pivot
    far = sphere.center + (sphere.center - p)  # antipode of the pivot on the sphere
    r, rp = sphere_to_ball(sphere, far)
    assert np.allclose(r, [1.0, 0.0, 0.0])  # the pivot's chart antipode
    # the tangency point maps to the pivot itself
    r, _ = sphere_to_ball(sphere, p)
    assert np.allclose(r, p)

    a, b = pair_from_projections(P0, QHALF, 0.5)
    r, rp = sphere_to_ball(sphere, bloch_point(a))
    assert np.allclose(r, bloch_point(QHALF), atol=1e-12)
    c, d = ball_to_sphere(sphere, r)
    assert np.allclose(c, bloch_point(a), atol=1e-12)
    assert np.allclose(d, bloch_point(b), atol=1e-12)

    with pytest.raises(NotOnSphere):
        sphere_to_ball(sphere, sphere.center)
    with pytest.raises(NotOnSphere):
        ball_to_sphere(sphere, [0.5, 0.1, 0.0])


def test_spheroid_focal_sum():
    a, _ = pair_from_projections(P0, QHALF, 0.5)
    partners = random_spheroid_partners(a, 25, 606)
    stats = spheroid_residual(a, partners)
    assert stats.count == 25
    assert stats.relative_spread <= 1e-8

    single = spheroid_residual(a, partners[:1])
    assert single.spread == 0.0

    with pytest.raises(EmptyInput):
        spheroid_residual(a, [])

    # a stack of two references takes (2, k, 2, 2) partners
    refs = np.array([a, a])
    with pytest.raises(DimensionMismatch, match=r"^partners do not stack into \(\.\.\., k, n, n\)$"):
        spheroid_residual(refs, partners[:3])
    with pytest.raises(EmptyInput, match="^no partner effects supplied$"):
        spheroid_residual(refs, np.zeros((2, 0, 2, 2)))


def test_spheroid_rejects_incompatible_partner():
    a, _ = pair_from_projections(P0, QHALF, 0.5)
    with pytest.raises(NotAbsolutelyCompatible):
        spheroid_residual(a, [np.diag([0.4, 0.6]).astype(complex)])
