"""Invalid inputs and the postconditions of built pairs.

Every public entry point either returns a NaN-free result or raises an
AbscompatError, and every postcondition the constructions share is reached
from its caller (or, where no real input trips it, from the helper) with
its class and message.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError
from abscompat.canonical import (
    CanonicalForm,
    SiteBlockMatrix,
    StrictProjectionParams,
    StrictUnitaryParams,
    canonicalize,
    conjugate_to_pivot,
    dilate_commuting_pair,
    exchanged_pivot_form,
    pair_from_params,
    strict_projection_from_params,
    strict_unitary_from_params,
)
from abscompat.cli import run
from abscompat.compat import (
    _verify_block_contents,
    five_block_decompose,
    is_abs_compatible,
    is_orthogonal,
    projection_compat_equiv,
)
from abscompat.config import Tolerances
from abscompat.errors import (
    BadMargin,
    DegenerateSpec,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    NegativeSpectrum,
    NotHermitian,
    NotStrict,
    NotStrictParams,
    ParseError,
    PostconditionFailure,
)
from abscompat.generate import (
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_commuting_strict_pair,
    random_orthogonal_pair,
    random_pair_params,
    random_pair_spec,
    random_projection,
    random_rank_one_projection,
    random_spheroid_partners,
    random_strict_projection_params,
    random_strict_unitary_params,
)
from abscompat.geometry import (
    PivotalSphere,
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
from abscompat.hermitian import is_strict
from abscompat.io import matrix_to_json, save_matrix

NAN, INF = float("nan"), float("inf")
EMPTY = np.zeros((0, 0))
HALF = 0.5 * np.eye(2)
SITE = StrictProjectionParams([0.5], [1.0])
PIVOT, TARGET, INDEX = random_pair_spec(1)
SPHERE = pivotal_sphere(PIVOT, INDEX)
A2, B2 = pair_from_projections(PIVOT, TARGET, INDEX)
EXACT = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # P^2 = P in floats
UNITARY_SITE = StrictUnitaryParams([0.5], [1.0], [1.0], [1.0])


# --- the postconditions a built pair shares, and the raises around them ---


def test_pair_from_params_postconditions():
    with pytest.raises(PostconditionFailure, match="^constructed pair is not strict at this tolerance$"):
        pair_from_params([0.3], SITE, DEFAULT_TOL.override(spec=0.2))
    with pytest.raises(PostconditionFailure, match=r"^constructed pair residual \d\.\d{3}e-1\d$"):
        pair_from_params([0.3], SITE, DEFAULT_TOL.override(compat=1e-30))


@pytest.mark.parametrize("params", [[0.5], None, ([0.5], [1.0]), StrictUnitaryParams([0.5], [1.0], [1.0], [1.0])],
                         ids=["list", "none", "tuple", "unitary-params"])
def test_pair_from_params_takes_projection_params_only(params):
    with pytest.raises(DomainError, match="^params must be StrictProjectionParams, got %s$" % type(params).__name__):
        pair_from_params([0.5], params)


def test_pair_from_params_takes_x0_of_the_shape_of_a0_or_one_row():
    """Over a (T, m) stack, x0 is (T, m), or (m,) for every pair; an x0
    with other leading axes, or with another site count, raises."""
    stack = StrictProjectionParams(np.full((3, 2), 0.5), np.ones((3, 2)))
    row = np.array([0.3, 0.4])
    a, b = pair_from_params(row, stack)
    assert all(np.array_equal(x, y) for x, y in zip((a, b), pair_from_params(np.tile(row, (3, 1)), stack)))
    with pytest.raises(DimensionMismatch, match=r"^x0 of shape \(2, 2\) does not fit .* \(3, 2\)$"):
        pair_from_params(np.full((2, 2), 0.3), stack)
    with pytest.raises(DimensionMismatch, match="^x0 has 3 sites, projection has 2$"):
        pair_from_params(np.full((2, 3), 0.3), stack)
    with pytest.raises(DimensionMismatch, match="^x0 has 6 sites, projection has 2$"):
        pair_from_params(np.full(6, 0.3), stack)


def test_pair_from_projections_postconditions():
    with pytest.raises(PostconditionFailure, match=r"^constructed pair residual \d\.\d{3}e-1\d$"):
        pair_from_projections(PIVOT, TARGET, INDEX, DEFAULT_TOL.override(compat=1e-30))
    with pytest.raises(DegenerateSpec, match="^projections too close to degeneracy at this tolerance$"):
        pair_from_projections(PIVOT, TARGET, INDEX, DEFAULT_TOL.override(spec=0.49))


def _blocks(strict):
    empty = np.zeros((0, 0), dtype=complex)
    return {"unit_a": empty, "unit_b": empty, "null_a": empty, "null_b": empty, "strict": strict}


def test_strict_block_postconditions():
    # a compatible pair's strict block always passes, so the helper is called
    # itself, with no bound on the residual: a kernel vector fails the
    # Cholesky gate and then the spectra, and HALF passes the gate and fails
    # compatibility
    with pytest.raises(PostconditionFailure, match="^strict block has spectrum touching 0 or 1$"):
        _verify_block_contents(_blocks(np.diag([0.0, 0.5])), _blocks(HALF), DEFAULT_TOL, np.inf)
    with pytest.raises(PostconditionFailure,
                       match=r"^strict block not absolutely compatible, residual 1\.000e\+00$"):
        _verify_block_contents(_blocks(HALF), _blocks(HALF), DEFAULT_TOL, np.inf)


def test_pivot_residuals():
    with pytest.raises(PostconditionFailure, match=r"^pivot conjugation residual \d\.\d{3}e-1\d$"):
        conjugate_to_pivot(EXACT, DEFAULT_TOL.override(proj=1e-30))
    cf = canonicalize(*random_abscompat_pair(4, 3))
    with pytest.raises(PostconditionFailure, match=r"^pivot exchange residual \d\.\d{3}e-1\d$"):
        exchanged_pivot_form(cf, DEFAULT_TOL.override(canon=1e-30))


def test_shape_and_length_mismatches():
    with pytest.raises(DimensionMismatch, match=r"^shapes \(2, 2\) and \(4, 4\)$"):
        projection_compat_equiv(np.eye(2), 0.5 * np.eye(4))
    with pytest.raises(DimensionMismatch, match="^decomposition is for 2x2 effects$"):
        decompose_pair_m2(*random_abscompat_pair(4, 3))
    # odd effects fail the 2x2 gate, not the even-size gate of the canonical
    # form, and operands that are not effects fail their effect check first
    with pytest.raises(DimensionMismatch, match="^decomposition is for 2x2 effects$"):
        decompose_pair_m2(np.eye(3) / 3, np.eye(3) / 3)
    with pytest.raises(NegativeSpectrum):
        decompose_pair_m2(-np.eye(3) / 3, np.eye(3) / 3)
    with pytest.raises(DimensionMismatch, match="^a0 and w must have the same number of sites$"):
        StrictProjectionParams([0.5, 0.5], [1.0])
    with pytest.raises(DimensionMismatch, match="^a0 and the phases must have the same number of sites$"):
        StrictUnitaryParams([0.5, 0.5], [1.0, 1.0], [1.0], [1.0, 1.0])
    for fn in (bloch_matrix, lambda pt: sphere_to_ball(SPHERE, pt), lambda pt: ball_to_sphere(SPHERE, pt)):
        with pytest.raises(DimensionMismatch, match="^a point needs exactly three coordinates$"):
            fn([0.5, 0.0])


@pytest.mark.parametrize("call", [
    lambda: pivotal_sphere(PIVOT, [0.5, 0.5]),
    lambda: pivotal_sphere(np.array([PIVOT] * 3), [0.5, 0.5]),
    lambda: pivotal_sphere(np.array([PIVOT] * 2), 0.5),
    lambda: pair_from_projections(PIVOT, TARGET, [0.5, 0.5]),
    lambda: geometry_report(np.array([PIVOT] * 3), np.array([TARGET] * 3), [0.5, 0.5]),
], ids=["sphere-list-index", "sphere-stack-short-index", "sphere-stack-scalar-index",
        "pair-list-index", "report-stack-short-index"])
def test_index_and_projections_over_different_shapes(call):
    with pytest.raises(DimensionMismatch, match="^index and projections stacked over shapes "):
        call()


@pytest.mark.parametrize("fn", [sphere_to_ball, ball_to_sphere])
@pytest.mark.parametrize("shape", [(3, 2), (6,), (2, 1, 3)])
def test_points_of_a_stacked_sphere_keep_their_shape(fn, shape):
    """A stacked sphere takes (..., 3) points: transposed or flat points
    are not regrouped into other coordinates."""
    sphere = pivotal_sphere(np.array([PIVOT] * 2), [0.3, 0.6])
    with pytest.raises(DimensionMismatch):
        fn(sphere, np.full(shape, 0.5))


def test_second_operand_not_strict():
    with pytest.raises(NotStrict, match="^second effect is not strict$"):
        canonicalize(HALF, np.diag([0.0, 0.5]))


# --- NaN through the strict gates, empty operands, tolerance overrides ---


@pytest.mark.parametrize("call, message", [
    (lambda: pair_from_params([NAN], SITE), "x0 values must lie strictly inside"),
    (lambda: StrictProjectionParams([NAN], [1.0]), "a0 values must lie strictly inside"),
    (lambda: StrictProjectionParams([0.5], [NAN]), "w phases must be unimodular"),
    (lambda: StrictUnitaryParams([NAN], [1.0], [1.0], [1.0]), "a0 values must lie strictly inside"),
    (lambda: StrictUnitaryParams([0.5], [1.0], [1.0], [NAN]), "w3 phases must be unimodular"),
], ids=["pair_from_params", "projection-a0", "projection-w", "unitary-a0", "unitary-w3"])
def test_nan_parameters_are_not_strict(call, message):
    with pytest.raises(NotStrictParams, match=message):
        call()


@pytest.mark.parametrize("fn", [
    bloch_matrix, lambda pt: sphere_to_ball(SPHERE, pt), lambda pt: ball_to_sphere(SPHERE, pt),
], ids=["bloch_matrix", "sphere_to_ball", "ball_to_sphere"])
def test_non_finite_points_are_domain_errors(fn):
    for pt in ([NAN, 0.0, 0.0], [0.5, INF, 0.0]):
        with pytest.raises(DomainError, match="^point has non-finite coordinates$"):
            fn(pt)


# decompose_pair_m2 takes stacks of 2x2 pairs, so its empty operands are a stack of none
@pytest.mark.parametrize("fn, empty", [(canonicalize, EMPTY), (dilate_commuting_pair, EMPTY),
                                       (decompose_pair_m2, np.zeros((0, 2, 2)))],
                         ids=["canonicalize", "dilate_commuting_pair", "decompose_pair_m2"])
def test_empty_operands_raise_before_the_spectrum_is_read(fn, empty):
    with pytest.raises(EmptyInput, match="^strictness needs nonempty effects$"):
        fn(empty, empty)


@pytest.mark.parametrize("value", [-1.0, 0.0, NAN, INF, "x", [1e-9], True, np.True_])
def test_tolerance_override_rejects_non_positive_and_non_finite(value):
    with pytest.raises(DomainError, match="must be positive and finite") as info:
        DEFAULT_TOL.override(compat=value)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
@pytest.mark.parametrize("value", [-1.0, 0.0, NAN, INF, "x", None, [1e-9], True, np.True_])
def test_tolerances_constructor_rejects_non_positive_and_non_finite(field, value):
    """A NaN tolerance would pass every `x > tol.*` gate, so the bundle
    checks itself, however it is built, and a value that is no number,
    a bool among them, fails the same check."""
    with pytest.raises(DomainError, match="^tolerance %r must be positive and finite" % field) as info:
        Tolerances(**{field: value})
    assert isinstance(info.value, ValueError)


def test_a_numpy_scalar_tolerance_is_stored_as_a_float():
    """A float32 spec is kept as a Python float, so 1 - spec keeps double
    precision: in float32 it rounds to 1.0, and an eigenvalue just below
    1 - spec would not be at 1."""
    x = np.diag([1.0 - 5e-10, 0.5])
    tol = Tolerances(spec=np.float32(1e-9))
    assert all(type(getattr(tol, f.name)) is float for f in dataclasses.fields(tol))
    assert is_strict(x, Tolerances(spec=1e-9)).strict is False
    assert is_strict(x, tol) == is_strict(x, Tolerances(spec=1e-9))


# each public generator at its smallest valid arguments, called on a seed
GENERATORS = {
    "haar_unitary": lambda seed: haar_unitary(2, seed),
    "random_commuting_strict_pair": lambda seed: random_commuting_strict_pair(2, seed),
    "random_pair_params": lambda seed: random_pair_params(2, seed),
    "random_abscompat_pair": lambda seed: random_abscompat_pair(2, seed),
    "random_strict_projection_params": lambda seed: random_strict_projection_params(1, seed),
    "random_strict_unitary_params": lambda seed: random_strict_unitary_params(1, seed),
    "random_projection": lambda seed: random_projection(3, 1, seed),
    "random_rank_one_projection": random_rank_one_projection,
    "random_pair_spec": random_pair_spec,
    "random_orthogonal_pair": lambda seed: random_orthogonal_pair(2, seed),
    "random_spheroid_partners": lambda seed: random_spheroid_partners(A2, 1, seed),
}


@pytest.mark.parametrize("draw, error, message", [
    (lambda: haar_unitary(2.5, 0), DimensionMismatch, "expected an integer, got 2.5"),
    (lambda: haar_unitary("4", 0), DimensionMismatch, "expected an integer, got '4'"),
    (lambda: random_abscompat_pair(4.0, 0), DimensionMismatch, "expected an integer, got 4.0"),
    (lambda: random_orthogonal_pair(2.5, 0), DimensionMismatch, "expected an integer, got 2.5"),
    (lambda: random_projection(4, 1.5, 0), DimensionMismatch, "expected an integer, got 1.5"),
    (lambda: random_strict_projection_params(1.5, 0), DimensionMismatch, "expected an integer, got 1.5"),
    (lambda: random_spheroid_partners(A2, 1.5, 0), DimensionMismatch, "expected an integer, got 1.5"),
    (lambda: haar_unitary(True, 0), DimensionMismatch, "expected an integer, got True"),
    (lambda: random_projection(4, True, 0), DimensionMismatch, "expected an integer, got True"),
    (lambda: random_spheroid_partners(A2, True, 0), DimensionMismatch, "expected an integer, got True"),
    (lambda: random_abscompat_pair(4, 0, "x"), BadMargin, "margin 'x' is not a number"),
    (lambda: derive_seed("x", 1), DomainError, "seed must be an integer, got 'x'"),
    (lambda: haar_unitary(2, None), DomainError, "seed must be an integer, got None"),
    (lambda: random_abscompat_pair(4, 1.5), DomainError, "seed must be an integer, got 1.5"),
    (lambda: random_abscompat_pair(4, True), DomainError, "seed must be an integer, got True"),
    (lambda: haar_unitary(0, 0), DimensionMismatch, "dimension must be positive"),
    (lambda: random_projection(4, 9, 0), DimensionMismatch, "rank 9 outside [0, 4]"),
    (lambda: random_orthogonal_pair(1, 0), DimensionMismatch, "need dimension at least 2"),
    (lambda: random_spheroid_partners(A2, 0, 0), DimensionMismatch, "count must be positive"),
    (lambda: random_strict_projection_params(0, 0), DimensionMismatch, "need at least one site"),
    *((lambda draw=draw: draw([1, 2]), DomainError, "seed must be an integer, got [1, 2]")
      for draw in GENERATORS.values()),
], ids=["haar-float-n", "haar-str-n", "pair-float-n", "orthogonal-float-n", "projection-float-rank",
        "params-float-sites", "partners-float-count", "haar-bool-n", "projection-bool-rank",
        "partners-bool-count", "pair-str-margin", "derive-str-seed", "haar-none-seed", "pair-float-seed",
        "pair-bool-seed", "haar-zero-n", "projection-rank-above-n", "orthogonal-n-below-2",
        "partners-zero-count", "params-zero-sites", *("%s-list-seed" % name for name in GENERATORS)])
def test_generator_arguments_raise_package_errors(draw, error, message):
    """Sizes, ranks, site counts and counts that are not integers, or are
    bools, or lie outside their range, raise DimensionMismatch, seeds
    that are not integers, or are bools, DomainError (a float seed is not
    truncated, a bool is a flag, and a list of seeds, which a private core
    would draw as a stack, is no seed), and a margin that is not a number
    BadMargin."""
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        draw()


RECORDS = {"none": None, "string": "abc", "tuple": ([0.5], [1.0]), "projection-params": SITE,
           "unitary-params": UNITARY_SITE, "sphere": SPHERE}
# each entry point that takes a record: (its call on the record, the record's class and argument name)
RECORD_GATES = {
    "sphere_to_ball": (lambda x: sphere_to_ball(x, SPHERE.pivot), PivotalSphere, "sphere"),
    "ball_to_sphere": (lambda x: ball_to_sphere(x, SPHERE.pivot), PivotalSphere, "sphere"),
    "exchanged_pivot_form": (exchanged_pivot_form, CanonicalForm, "cf"),
    "strict_projection_from_params": (strict_projection_from_params, StrictProjectionParams, "params"),
    "strict_unitary_from_params": (strict_unitary_from_params, StrictUnitaryParams, "params"),
}
WRONG_RECORDS = [(gate, kind) for gate, (_, cls, _) in RECORD_GATES.items()
                 for kind, record in RECORDS.items() if not isinstance(record, cls)]


@pytest.mark.parametrize("gate, kind", WRONG_RECORDS, ids=["%s-%s" % case for case in WRONG_RECORDS])
def test_record_arguments_raise_domain_error(gate, kind):
    call, cls, label = RECORD_GATES[gate]
    record = RECORDS[kind]
    message = "^%s must be %s, got %s$" % (label, cls.__name__, type(record).__name__)
    with pytest.raises(DomainError, match=message):
        call(record)


@pytest.mark.parametrize("reference, error", [
    ("abc", DomainError), (np.full((2, 2), NAN), DomainError),
    (HALF + np.triu(np.full((2, 2), 1e-6), 1), NotHermitian), (np.eye(3) / 3, DegenerateSpec),
    (HALF, DegenerateSpec),
], ids=["string", "nan", "non-hermitian", "3x3", "centre"])
def test_reference_effect_errors_keep_their_class(reference, error):
    """Only the membership test of the punctured ball raises DegenerateSpec;
    a reference that is no Hermitian matrix raises its own error."""
    with pytest.raises(error):
        spheroid_residual(reference, [B2])
    with pytest.raises(error):
        random_spheroid_partners(reference, 2, 1)


@pytest.mark.parametrize("partners, kind", [(0.5, "float"), (None, "NoneType")], ids=["number", "none"])
def test_spheroid_partners_that_are_no_iterable(partners, kind):
    with pytest.raises(DomainError, match="^partners must be an iterable of effects, got %s$" % kind):
        spheroid_residual(A2, partners)


@pytest.mark.parametrize("convert, error, message", [
    (SiteBlockMatrix, DomainError, "site blocks must be numeric"),
    (matrix_to_json, ParseError, "matrix must be numeric"),
], ids=["SiteBlockMatrix", "matrix_to_json"])
def test_converters_reject_non_numeric_input(convert, error, message):
    """The site-block record and the JSON writer raise a package error on
    input numpy cannot make complex, as the other converters do."""
    for x in ("a", [[1, "x"], [2, 3]], [[[1, 2], [3]]]):
        with pytest.raises(error, match="^" + message):
            convert(x)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_rejects_bad_tolerances(tmp_path, capsys, field, value):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(a, A2)
    save_matrix(b, B2)
    assert run(["check", str(a), str(b), "--tol-%s" % field, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "DomainError"
    assert error["message"].startswith("tolerance %r must be positive and finite" % field)


# --- the battery: a NaN-free result or an AbscompatError, nothing else ---


def _nan_free(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind not in "fc" or not np.isnan(obj).any()
    if isinstance(obj, (float, complex, np.number)):
        return not np.isnan(obj)
    if isinstance(obj, (tuple, list)):
        return all(map(_nan_free, obj))
    if isinstance(obj, dict):
        return all(map(_nan_free, obj.values()))
    if dataclasses.is_dataclass(obj):
        return _nan_free(vars(obj))
    return True


PAIRS = {
    "empty": (EMPTY, EMPTY),
    "nan": (np.full((2, 2), NAN), HALF),
    "inf": (HALF, np.diag([INF, 0.5])),
    "string": ("abc", HALF),
    "non-square": (np.zeros((2, 3)), np.zeros((2, 3))),
    "scalars": (NAN, INF),
}
PAIR_ENTRIES = [is_abs_compatible, five_block_decompose, canonicalize, is_orthogonal,
                projection_compat_equiv, dilate_commuting_pair, decompose_pair_m2]
VECTORS = {"nan": [NAN], "inf": [INF], "string": "abc", "empty": [], "nested-nan": [[NAN, 0.5]]}
POINTS = {"nan": [NAN, 0.0, 0.0], "inf": [INF, 0.0, 0.0], "string": "abc",
          "two": [0.5, 0.0], "nested-nan": [[0.5, NAN, 0.0]]}
SCALARS = {"nan": NAN, "inf": INF, "string": "abc", "zero": 0.0, "list": [0.5, 0.5]}
PARAMS = {"list": [0.5], "none": None, "string": "abc", "tuple": ([0.5], [1.0]), "dict": {"a0": [0.5], "w": [1.0]},
          "unitary-params": StrictUnitaryParams([0.5], [1.0], [1.0], [1.0])}


def _battery():
    for kind, (a, b) in PAIRS.items():
        for fn in PAIR_ENTRIES:
            yield "%s-%s" % (fn.__name__, kind), lambda fn=fn, a=a, b=b: fn(a, b)
        yield "bloch_point-" + kind, lambda a=a: bloch_point(a)
        yield "pair_from_projections-pivot-" + kind, lambda a=a: pair_from_projections(a, TARGET, INDEX)
        yield "spheroid_residual-focus-" + kind, lambda a=a: spheroid_residual(a, [B2])
        yield "spheroid_residual-partner-" + kind, lambda a=a: spheroid_residual(A2, [B2, a])
    for kind, v in VECTORS.items():
        yield "StrictProjectionParams-a0-" + kind, lambda v=v: StrictProjectionParams(v, [1.0])
        yield "StrictProjectionParams-w-" + kind, lambda v=v: StrictProjectionParams([0.5], v)
        yield "StrictUnitaryParams-a0-" + kind, lambda v=v: StrictUnitaryParams(v, [1.0], [1.0], [1.0])
        yield "StrictUnitaryParams-w2-" + kind, lambda v=v: StrictUnitaryParams([0.5], [1.0], v, [1.0])
        yield "pair_from_params-" + kind, lambda v=v: pair_from_params(v, SITE)
    for kind, params in PARAMS.items():
        yield "pair_from_params-params-" + kind, lambda params=params: pair_from_params([0.5], params)
    for gate, kind in WRONG_RECORDS:
        yield "%s-record-%s" % (gate, kind), lambda call=RECORD_GATES[gate][0], x=RECORDS[kind]: call(x)
    for name, draw in GENERATORS.items():
        yield name + "-seed-list", lambda draw=draw: draw([1, 2])
    for kind, value in {"string": "x", "none": None, "list": [1e-9]}.items():
        yield "Tolerances-" + kind, lambda value=value: Tolerances(spec=value)
    yield "Tolerances.override-unknown", lambda: DEFAULT_TOL.override(bogus=1.0)
    for kind, pt in POINTS.items():
        yield "bloch_matrix-" + kind, lambda pt=pt: bloch_matrix(pt)
        yield "sphere_to_ball-" + kind, lambda pt=pt: sphere_to_ball(SPHERE, pt)
        yield "ball_to_sphere-" + kind, lambda pt=pt: ball_to_sphere(SPHERE, pt)
    for kind, x in SCALARS.items():
        yield "pivotal_sphere-" + kind, lambda x=x: pivotal_sphere(PIVOT, x)
        yield "pair_from_projections-index-" + kind, lambda x=x: pair_from_projections(PIVOT, TARGET, x)
        yield "geometry_report-" + kind, lambda x=x: geometry_report(PIVOT, TARGET, x)


BATTERY = dict(_battery())


@pytest.mark.parametrize("case", sorted(BATTERY))
def test_invalid_input_battery(case):
    try:
        out = BATTERY[case]()
    except AbscompatError:
        return
    assert _nan_free(out), "%s returned NaN" % case
