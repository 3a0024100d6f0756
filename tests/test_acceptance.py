"""Acceptance gate: the nine headline properties at full scale.

Each criterion runs an ``abscompat.properties`` registry entry with its own
trial count, base seed and size set, asserts its own bounds on the worst
residuals, and prints one PASS/FAIL line (visible with pytest -s).
"""

import time

import numpy as np
import pytest

from abscompat import DEFAULT_TOL
from abscompat.errors import NotAbsolutelyCompatible, NotStrict
from abscompat.generate import _strict_effects, derive_seed
from abscompat.geometry import decompose_pair_m2
from abscompat.properties import REGISTRY, Property, run

BASE = 0xACCE97

# criterion number -> the registry entry it runs
ENTRIES = {1: "compat", 2: "canonical", 3: "m2", 4: "compat", 5: "equivalences",
           6: "fiveblock", 7: "params", 8: "geometry", 9: "dilation"}


def _line(num, slug, out, ok, detail):
    ok = ok and not out.failures
    if out.failures:
        detail += "; first failure %r" % (out.failures[0],)
    print("criterion %d %s: %s (%s)" % (num, slug, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d %s: %s" % (num, slug, detail)


def test_criterion_1_definition_identity():
    start = time.monotonic()
    out = run(REGISTRY[ENTRIES[1]], 1000, BASE, sizes=(2, 4, 8, 16))
    elapsed = time.monotonic() - start
    worst = out.worst["pair_residual"]
    _line(1, "definition-identity", out, worst <= 1e-8 and elapsed <= 30.0,
          "1000 pairs, worst residual %.3e, %.1fs" % (worst, elapsed))


def test_criterion_2_canonical_round_trip():
    out = run(REGISTRY[ENTRIES[2]], 300, BASE + 1, sizes=(2, 4, 8))
    rec, x0 = out.worst["reconstruction"], out.worst["x0_multiset"]
    _line(2, "canonical-round-trip", out, rec <= 1e-7 and x0 <= 1e-9,
          "300 pairs, reconstruction %.3e, x0 multiset %.3e" % (rec, x0))


def test_criterion_3_m2_characterization():
    out = run(REGISTRY[ENTRIES[3]], 500, BASE + 2, sizes=(2,))
    worst = max(out.worst[k] for k in ("index_error", "pivot_error", "target_error"))
    strict_eff = _strict_effects(2, derive_seed(BASE + 2, 9001), 0.1)
    with pytest.raises(NotAbsolutelyCompatible):
        decompose_pair_m2(strict_eff, strict_eff)
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NotStrict):
        decompose_pair_m2(p, np.eye(2) - p)
    _line(3, "m2-characterization", out, worst <= 1e-9,
          "500 specs, worst recovery error %.3e, 2 negative controls" % worst)


def _generic_as_orthogonal(seed, n):
    """The compat draw with its generic pair in the orthogonal pair's place."""
    x = REGISTRY["compat"].draw(seed, n)
    return dict(x, oa=x["a"], ob=x["b"])


def test_criterion_4_orthogonality_equivalence():
    out = run(REGISTRY[ENTRIES[4]], 500, BASE + 3, sizes=(2, 4, 8))
    keys = ("orthogonal_product", "orthogonal_residual", "sum_excess", "pair_residual")
    worst = max(out.worst[k] for k in keys)
    # negative control: a generic compatible pair has a + b above 1, so
    # every trial must fail on the product and the sum, and only there
    generic = run(Property(_generic_as_orthogonal, REGISTRY["compat"].check, (2, 4, 8)),
                  500, BASE + 4)
    caught = sum(set(f.get("violations", ())) == {"orthogonal_product", "sum_excess"}
                 for f in generic.failures)
    _line(4, "orthogonality-equivalence", out, worst <= DEFAULT_TOL.compat and caught == 500,
          "500 orthogonal + 500 generic pairs, worst residual %.3e, %d of 500 generic "
          "pairs caught" % (worst, caught))


def test_criterion_5_projection_criterion():
    out = run(REGISTRY[ENTRIES[5]], 500, BASE + 5, sizes=(2, 4, 8))
    wrong = out.worst["criterion_commuting"] + out.worst["criterion_generic"]
    _line(5, "projection-criterion", out, wrong == 0.0,
          "500 commuting + 500 generic draws, %d failed trials" % len(out.failures))


def test_criterion_6_five_block_postconditions():
    out = run(REGISTRY[ENTRIES[6]], 300, BASE + 7, sizes=(2, 4))
    worst, rank_error = out.worst["off_block_mass"], out.worst["strict_rank"]
    _line(6, "five-block-postconditions", out, worst <= 1e-8 and rank_error == 0.0,
          "300 assembled pairs, worst off-block mass %.3e, strict rank error %d"
          % (worst, rank_error))


def test_criterion_7_strict_parametrizations():
    out = run(REGISTRY[ENTRIES[7]], 500, BASE + 8, sizes=(1, 2, 3))
    worst = max(out.worst[k] for k in ("unitarity", "idempotence", "pivot_conjugation"))
    # the inverse maps: parameters read back from a strict projection and
    # a strict unitary, and the row projections of the unitary
    inverse = max(out.worst[k] for k in ("projection_params", "unitary_params", "row_projections"))
    _line(7, "strict-parametrizations", out, worst <= 1e-9 and inverse <= 1e-9,
          "500 draws, worst residual %.3e, worst inverse-map residual %.3e" % (worst, inverse))


def test_criterion_8_geometry_suite():
    out = run(REGISTRY[ENTRIES[8]], 500, BASE + 10, sizes=(2,))
    worst, spread = out.worst["report"], out.worst["spheroid_spread"]
    _line(8, "geometry-suite", out, worst <= 1e-9 and spread <= 1e-8,
          "500 specs worst residual %.3e, spheroid spread %.3e over 8 partners each"
          % (worst, spread))


def test_criterion_9_jordan_block_identity():
    out = run(REGISTRY[ENTRIES[9]], 200, BASE + 12, sizes=(1, 2, 3, 4))
    worst = out.worst["jordan_block"]
    _line(9, "jordan-block-identity", out, worst <= 1e-10,
          "200 dilations, worst deviation %.3e" % worst)
