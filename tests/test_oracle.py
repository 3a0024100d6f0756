"""High-precision oracle: canonicalize and its certificates, the strict
blocks five-block returns and the Cholesky gate on their strictness, the
Sylvester bound on the compatibility residual and the site-wise
postcondition of pair_from_params checked against 50-digit arithmetic
(mpmath) at n <= 8.

Every float input converts to mpmath exactly, so the oracle's values are
those of the very matrices the library saw, to about 1e-50: the exact
reconstruction residual of the returned form, the exact x0 of the pair,
its exact compatibility residual and its exact spectra.
"""

import json
import math

import numpy as np
import pytest

from abscompat import DEFAULT_TOL, AbscompatError, canonical, cli, compat
from abscompat.canonical import (
    SiteBlockMatrix, StrictProjectionParams, _site_pairs, canonicalize, pair_from_params,
)
from abscompat.compat import five_block_decompose
from abscompat.generate import derive_seed, haar_unitary, random_abscompat_pair
from abscompat.errors import PostconditionFailure
from abscompat.hermitian import _ROUNDING, _hermitian_pair, dagger, hermitize, identity_like
from abscompat.io import load_matrix, save_matrix
from abscompat.properties import REGISTRY
from conftest import _sylvester_certificate, _two_call_residual

mpmath = pytest.importorskip("mpmath")
mp = mpmath.MPContext()
mp.dps = 50


def _mat(x):
    """The float matrix x as an mpmath matrix, entry for entry exact."""
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in np.asarray(x)])


def _eigvals(h):
    """The ascending eigenvalues of the Hermitian mpmath matrix h."""
    return sorted(mp.eigh(h, eigvals_only=True))


def _norm(h):
    """The operator norm of the Hermitian h, its largest |eigenvalue|."""
    return max(abs(v) for v in _eigvals(h))


def _abs(h):
    vals, vecs = mp.eigh(h)
    return vecs * mp.diag([abs(v) for v in vals]) * vecs.H


def _compat_residual(a, b):
    one = mp.eye(a.rows)
    return _norm(_abs(a - b) + _abs(one - a - b) - one)


def _site_pair(cf):
    """Both effects of the form's sites, embedded, from its float
    parameters: site k at coordinates 2k and 2k+1."""
    n = 2 * len(cf.x0)
    sa, sb = mp.zeros(n, n), mp.zeros(n, n)
    for k, (x0, a0, w) in enumerate(zip(cf.x0, cf.a0, cf.w)):
        x0, a0, w = mp.mpf(float(x0)), mp.mpf(float(a0)), mp.mpc(complex(w))
        s0 = mp.sqrt(1 - a0 * a0)
        p = mp.matrix([[a0 * a0, w * a0 * s0], [mp.conj(w) * a0 * s0, 1 - a0 * a0]])
        for i in range(2):
            for j in range(2):
                pivot = (1 - x0) if i == j == 1 else 0
                sa[2 * k + i, 2 * k + j] = pivot + x0 * p[i, j]
                sb[2 * k + i, 2 * k + j] = pivot + x0 * ((i == j) - p[i, j])
    return sa, sb


def _site_eigenvalues(cf):
    """The eigenvalues lam and 1 - lam of every site of both effects:
    lam (1 - lam) = x0 a0^2 (1 - x0) for a and x0 (1 - a0^2)(1 - x0)
    for b."""
    out = ([], [])
    for x0, a0 in zip(cf.x0, cf.a0):
        x0, sq = mp.mpf(float(x0)), mp.mpf(float(a0)) ** 2
        for side, p in zip(out, (x0 * sq * (1 - x0), x0 * (1 - sq) * (1 - x0))):
            lam = (1 - mp.sqrt(1 - 4 * p)) / 2
            side.extend((lam, 1 - lam))
    return [sorted(side) for side in out]


def _perturbed(a, b, scale, seed):
    """a and b each moved by a Hermitian matrix of Frobenius norm scale."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for x in (a, b):
        e = hermitize(gen.normal(size=x.shape) + 1j * gen.normal(size=x.shape))
        out.append(x + scale / np.linalg.norm(e) * e)
    return out


def _drawn(n, seed):
    """x0 and the pair of the canonical property's draw."""
    x = REGISTRY["canonical"].draw([seed], n)
    return np.sort(x["x0"][0]), x["a"][0], x["b"][0]


# (n, scale, whether the Sylvester bound from canonicalize's eigh of 1-a-b
# certifies the pair): every moved pair is still compatible within
# tol.compat, so canonicalize returns its form on either side
CASES = [(n, scale, True) for n in (2, 4, 6) for scale in (0.0, 1e-11)]
CASES += [(2, 2e-9, True), (4, 2e-9, False), (6, 2e-9, True)]
CASES += [(n, 3e-9, False) for n in (2, 4, 6)]


@pytest.mark.parametrize("n, scale, certified", CASES, ids=["n%d-%g" % case[:2] for case in CASES])
def test_canonicalize_against_the_oracle(n, scale, certified):
    """The reported reconstruction residual, a Frobenius norm, is at least
    the exact one and at most sqrt(n) times it, each up to the rounding
    allowance; x0 is the drawn one and the exact one of the
    pair; the Sylvester bound from the eigh of 1-a-b that canonicalize
    takes, less its rounding allowance, is at least the exact residual,
    and each exact eigenvalue is within the Weyl margin of a site
    eigenvalue.  The moved pairs put the bound on both sides of
    tol.compat."""
    x0, a, b = _drawn(n, derive_seed(41, n))
    if scale:
        a, b = _perturbed(a, b, scale, derive_seed(42, n))
    cf = canonicalize(a, b)
    allowance = _ROUNDING * n
    ma, mb = _mat(a), _mat(b)

    ra, rb = (_mat(cf.u0) * s * _mat(cf.u0).H for s in _site_pair(cf))
    exact = max(_norm(ra - ma), _norm(rb - mb))
    assert exact - allowance <= cf.residual <= math.sqrt(n) * exact + allowance, (cf.residual, exact)
    assert exact <= DEFAULT_TOL.canon

    if not scale:
        assert np.max(np.abs(cf.x0 - x0)) <= DEFAULT_TOL.spec
        lam = _eigvals(mp.eye(n) - ma - mb)
        assert max(abs(mp.mpf(float(v)) - (1 - lam[-1 - k])) for k, v in enumerate(cf.x0)) <= allowance

    a, b = compat._canonical_order(hermitize(a), hermitize(b))
    zvals, zvecs = np.linalg.eigh(identity_like(a) - a - b)
    bound = float(compat._sylvester_bounds(a, b, zvals, zvecs, np.inf)[0])
    residual = _compat_residual(ma, mb)
    assert bound - allowance >= residual, (bound, residual)
    assert residual <= DEFAULT_TOL.compat
    assert bool(compat._sylvester_bounds(a, b, zvals, zvecs, DEFAULT_TOL.compat)[1]) == certified, bound
    margin = float(canonical._weyl_margin(cf, DEFAULT_TOL))
    for vals, sites in zip((_eigvals(ma), _eigvals(mb)), _site_eigenvalues(cf)):
        assert max(abs(v - s) for v, s in zip(vals, sites)) <= margin - allowance


# drawn pairs moved so that check's residual comes from each of its three
# sources: the Sylvester bound, the Frobenius norm of the excess within
# tol.compat, and the exact norm above it
RESIDUAL_SCALES = (0.0, 1e-11, 3e-9, 3e-8)


def test_reported_residuals_are_never_below_the_oracle(tmp_path):
    """Within tol.compat, check's JSON residual is never below the
    50-digit residual of the pair it read: it is the Sylvester bound, bit
    for bit, where that certifies the pair, and not below it even less the
    rounding allowance, and a Frobenius norm where it does not.  Above
    tol.compat it is the exact norm, the two-eigh residual byte for byte,
    within the rounding allowance of the 50-digit one.  CanonicalForm.residual, less the allowance, is never below the
    50-digit reconstruction residual, and under a tol.canon below that
    residual canonicalize raises with its exact norm.  The pairs put the
    residual on both sides of tol.compat and the reconstruction on both
    sides of tol.canon."""
    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "check.json")]
    sources = set()
    for n in (2, 4, 6):
        allowance = _ROUNDING * n
        for scale in RESIDUAL_SCALES:
            _, a, b = _drawn(n, derive_seed(48, n))
            if scale:
                a, b = _perturbed(a, b, scale, derive_seed(49, n))
            for path, x in zip(paths, (a, b)):
                save_matrix(path, x)
            code = cli.run(["check", *paths[:2], "--out", paths[2]])
            with open(paths[2], encoding="utf-8") as fh:
                got = json.load(fh)["residual"]
            a, b = _hermitian_pair(*map(load_matrix, paths[:2]), DEFAULT_TOL)
            ma, mb = _mat(a), _mat(b)
            exact = _compat_residual(ma, mb)
            bound, certified = _sylvester_certificate(a, b, DEFAULT_TOL)
            if got > DEFAULT_TOL.compat:
                assert code == cli.EXIT_INCOMPATIBLE and not certified
                assert got == _two_call_residual(a, b) and abs(got - exact) <= allowance, (n, scale, got, exact)
                sources.add("exact")
                continue
            assert code == cli.EXIT_OK and got >= exact, (n, scale, got, exact)
            if certified:
                assert got == bound and got - allowance >= exact, (n, scale, got, bound, exact)
            sources.add("bound" if certified else "frobenius")

            cf = canonicalize(a, b)
            ra, rb = (_mat(cf.u0) * s * _mat(cf.u0).H for s in _site_pair(cf))
            rebuilt = max(_norm(ra - ma), _norm(rb - mb))
            assert cf.residual >= rebuilt - allowance, (n, scale, cf.residual, rebuilt)
            ra, rb = cf.reconstruct()
            computed = float(np.abs(np.linalg.eigvalsh(np.stack([ra - a, rb - b]))).max())
            assert abs(computed - rebuilt) <= allowance
            tight = DEFAULT_TOL.override(canon=0.5 * computed)
            with pytest.raises(PostconditionFailure) as exc:
                canonicalize(a, b, tight)
            assert str(exc.value) == "reconstruction residual %.3e > %.3e" % (computed, tight.canon)
    assert sources == {"bound", "frobenius", "exact"}


# an a-unit, b-unit, a-null and b-null slot
SLOTS = [(1.0, 0.5), (0.3, 1.0), (0.0, 0.7), (0.6, 0.0)]


def _assembled(k, slots, move, scale, seed, strict=None):
    """A strict k x k pair, or the pair strict, beside diagonal slots,
    under a Haar conjugation, with b moved by a Hermitian of Frobenius
    norm scale: inside the strict block (move "strict"), which moves the
    residual, or coupling the strict coordinates to the slots
    ("coupling"), which tilts the blocks and moves no eigenvalue of b at
    0 or 1 to first order."""
    sa, sb = strict or random_abscompat_pair(k, derive_seed(seed, 1))
    n = k + len(slots)
    a, b = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    a[:k, :k], b[:k, :k] = sa, sb
    a[k:, k:], b[k:, k:] = np.diag([s[0] for s in slots]), np.diag([s[1] for s in slots])
    gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, 3)))
    c = np.zeros_like(b)
    cols = slice(0, k) if move == "strict" else slice(k, n)
    c[:k, cols] = gen.normal(size=(k, k if move == "strict" else n - k)) * (1.0 + 1j)
    c = hermitize(c) if move == "strict" else c + dagger(c)
    b += scale / np.linalg.norm(c) * c
    u = haar_unitary(n, derive_seed(seed, 2))
    return hermitize(u @ a @ dagger(u)), hermitize(u @ b @ dagger(u))


MOVES = [("strict", 0.0)] + [(move, scale) for move in ("strict", "coupling") for scale in (1e-11, 2.5e-9)]


def _near_cut(offset, side):
    """A strict-by-construction 4x4 pair whose side has a smallest
    eigenvalue tol.spec + offset * _ROUNDING * 4, below the cut for a
    negative offset: two sites, at x0 = 0.5 with lam (1 - lam) =
    x0 a0^2 (1 - x0) for a and x0 (1 - a0^2)(1 - x0) for b, and at
    x0 = 0.3."""
    lam = DEFAULT_TOL.spec + offset * _ROUNDING * 4
    sq = 4.0 * lam * (1.0 - lam)
    a0 = [math.sqrt(sq if side == "a" else 1.0 - sq), 0.6]
    sites = _site_pairs(np.array([0.5, 0.3]), np.array(a0), np.ones(2, dtype=complex))
    return tuple(SiteBlockMatrix(x).embed() for x in sites)


# the slots where the other effect is 0 or 1, beside a near-cut eigenvalue of side a or b
NEAR_CUT_SLOTS = {"a": [(0.0, 0.7), (0.3, 1.0)], "b": [(0.7, 0.0), (1.0, 0.3)]}


def _recorded(monkeypatch, name) -> list:
    """The values compat's function name returns from here on."""
    fn, seen = getattr(compat, name), []
    monkeypatch.setattr(compat, name, lambda *args: seen.append(fn(*args)) or seen[-1])
    return seen


def test_five_block_results_against_the_oracle(monkeypatch):
    """Whatever five_block_decompose returns has strict blocks that are
    strict and compatible at 50 digits: their exact spectra clear the
    cut, which the Cholesky gate (compat._certified_strict) certifies
    without a spectrum, and their exact residual is within tol.compat and
    below the bound from the whole pair's residual and the off-block
    norms (compat._strict_bound); a pair it cannot decompose raises.  The
    pairs are exact and moved assembled pairs, and strict pairs with an
    eigenvalue on either side of the cut beside slots, so the gate both
    certifies strict blocks and leaves them to their eigvalsh, and the
    bound both settles them and leaves them to their own residual."""
    verdicts, bounds = _recorded(monkeypatch, "_certified_strict"), _recorded(monkeypatch, "_strict_bound")
    pairs = [_assembled(k, slots, move, scale, derive_seed(60 + k, seed + 10 * len(slots)))
             for k, slots in ((2, SLOTS[:2]), (2, SLOTS), (4, SLOTS[2:])) for move, scale in MOVES
             for seed in range(2)]
    pairs += [_assembled(4, NEAR_CUT_SLOTS[side], "strict", 0.0, derive_seed(64, seed), _near_cut(offset, side))
              for offset in (-0.5, 0.5, 2.0) for side in "ab" for seed in range(2)]
    raised = 0
    for a, b in pairs:
        try:
            fb = five_block_decompose(a, b)
        except AbscompatError:
            raised += 1
            continue
        sa, sb = _mat(fb.blocks_a["strict"]), _mat(fb.blocks_b["strict"])
        for x in (sa, sb):
            vals = _eigvals(x)
            assert DEFAULT_TOL.spec < vals[0] and vals[-1] < 1 - DEFAULT_TOL.spec, vals
        exact = _compat_residual(sa, sb)
        assert exact <= DEFAULT_TOL.compat and exact <= bounds[-1], (exact, bounds[-1])
    assert set(verdicts) == {True, False} and raised
    assert {bool(bound <= DEFAULT_TOL.compat) for bound in bounds} == {True, False}


def test_coupled_pairs_decompose_by_the_whole_pair_certificate():
    """b coupling the strict block to the slots (Frobenius 2.5e-9) tilts
    the blocks: the whole pair's residual, about 1e-9, is itself past
    what certifies the operands as effects, so these compatible pairs
    are validated by their spectra.  They still decompose with the slots'
    ranks, the residual their certificate took is not below the 50-digit
    residual of the whole pair, and their strict blocks' exact residuals
    stay near 1e-15."""
    for k, slots in ((2, SLOTS), (4, SLOTS[2:])):
        for seed in range(2):
            a, b = _assembled(k, slots, "coupling", 2.5e-9, derive_seed(60 + k, seed + 10 * len(slots)))
            residual, ((_, fb),) = compat._five_blocks(*_hermitian_pair(a, b, DEFAULT_TOL), DEFAULT_TOL)
            assert residual + _ROUNDING * a.shape[-1] > DEFAULT_TOL.spec
            assert residual >= _compat_residual(_mat(a), _mat(b))
            assert fb.ranks()["strict"] == k
            strict = _compat_residual(_mat(fb.blocks_a["strict"]), _mat(fb.blocks_b["strict"]))
            assert strict <= 1e-13


def _sylvester(a, b):
    """The bound compat._pair_spectra takes from one eigh of 1-a-b, and
    whether it certifies the pair."""
    zvals, zvecs = np.linalg.eigh(np.eye(len(a)) - a - b)
    bound, certified = compat._sylvester_bounds(a, b, zvals, zvecs, DEFAULT_TOL.compat)
    return float(bound), bool(certified)


def _two_product_bound(a, b, zvals, zvecs, bound):
    """The Sylvester bound with Z/4 = herm(ab) - c- formed as two full
    n x n products, c- composed from every column of the eigh, each side
    made Hermitian on its own: the form the negative columns replaced."""
    allowance = _ROUNDING * a.shape[-1]
    minus = hermitize((zvecs * np.maximum(-zvals, 0.0)[..., None, :]) @ dagger(zvecs))
    z_norm = 4.0 * np.linalg.norm(hermitize(a @ b) - minus, axis=(-2, -1)) + allowance
    gap = 1.0 - np.abs(zvals).max(axis=-1) - allowance
    certified = z_norm <= bound * gap
    return z_norm / np.where(certified, gap, 1.0), certified


@pytest.mark.parametrize("n", [2, 4, 6, 32, 96])
def test_sylvester_bound_moves_by_roundings_only(n):
    """c- from the negative columns alone, with one hermitize, certifies
    the pairs the two-product form certifies, on drawn pairs moved to
    both sides of tol.compat and under a tolerance 100 times tighter, and
    moves the bound by a few n eps, far inside the rounding allowance.
    At n <= 6 the bound, less that allowance, is never below the 50-digit
    residual wherever it certifies."""
    x = REGISTRY["canonical"].draw([derive_seed(46, i) for i in range(8)], n)
    sides = set()
    for scale in (0.0, 1e-11, 1e-9, 3e-9, 3e-8):
        a, b = (hermitize(v) for v in _perturbed(x["a"], x["b"], scale, derive_seed(47, n)))
        zvals, zvecs = np.linalg.eigh(identity_like(a) - a - b)
        for bound in (1e-2 * DEFAULT_TOL.compat, DEFAULT_TOL.compat):
            got, certified = compat._sylvester_bounds(a, b, zvals, zvecs, bound)
            want, reference = _two_product_bound(a, b, zvals, zvecs, bound)
            assert certified.tolist() == reference.tolist(), (scale, bound)
            assert np.all(np.abs(got - want)[certified] <= 50 * n * np.finfo(float).eps), (scale, bound)
            sides |= set(certified.tolist())
        for i in np.nonzero(certified)[0] if n <= 6 else ():
            assert got[i] - _ROUNDING * n >= _compat_residual(_mat(a[i]), _mat(b[i])), (scale, i)
    assert sides == {True, False}


def test_sylvester_bound_against_the_oracle():
    """The Sylvester bound, less its rounding allowance, is at least the
    exact residual wherever it certifies a pair: drawn compatible pairs,
    pairs moved so that the exact residual lies on both sides of
    tol.compat, and 2x2 pairs with mu near 0 moved off the diagonal.
    Pairs with mu = 0, a shared kernel or a = b = 1 on a vector, are
    left to the two-eigh residual, which passes them."""
    sides = set()
    for n in (2, 4, 6):
        for scale in (0.0, 1e-11, 1e-9, 3e-8):
            _, a, b = _drawn(n, derive_seed(43, n))
            if scale:
                a, b = _perturbed(a, b, scale, derive_seed(44, n))
            a, b = hermitize(a), hermitize(b)
            bound, certified = _sylvester(a, b)
            exact = _compat_residual(_mat(a), _mat(b))
            if certified:
                assert bound - _ROUNDING * n >= exact, (n, scale, bound, exact)
            assert certified == (scale < 1e-8), (n, scale, bound, exact)
            sides.add(bool(exact <= DEFAULT_TOL.compat))
    assert sides == {True, False}
    # mu = 1 - top is small, and the exact residual is about 1.4 ||Z||_F:
    # only the division by mu keeps the bound above it
    settled = set()
    for top in (0.98, 0.995):
        for move in (1e-11, 1e-10):
            a, b = np.diag([1.0, 0.0]).astype(complex), np.array([[top, move], [move, 0.5]], dtype=complex)
            bound, certified = _sylvester(a, b)
            exact = _compat_residual(_mat(a), _mat(b))
            assert not certified or bound - _ROUNDING * 2 >= exact, (top, move, bound, exact)
            settled.add(certified)
    assert settled == {True, False}
    for k, slots in ((2, [(0.0, 0.0)]), (2, [(1.0, 1.0), (0.3, 1.0)]), (4, [(1.0, 1.0), (0.0, 0.0)])):
        a, b = _assembled(k, slots, "strict", 0.0, derive_seed(45, k + len(slots)))
        assert not _sylvester(a, b)[1]
        assert compat._pair_spectra(a, b, DEFAULT_TOL.compat)[0] <= DEFAULT_TOL.compat
        assert _compat_residual(_mat(a), _mat(b)) <= DEFAULT_TOL.compat


# per-site (x0, a0) at m <= 3: sites whose Sylvester bound is within
# tol.compat, and sites with a small x0, whose gap mu = x0 lifts the bound
# above it, so that pair_from_params takes those sites' own residuals
PARAMS = [([0.3], [0.6]), ([0.2, 0.7], [0.5, 0.3]), ([0.45, 0.6, 0.8], [0.2, 0.9, 0.55]),
          ([1e-5], [0.5]), ([0.4, 3e-6, 0.7], [0.3, 0.6, 0.8]), ([2e-7, 0.5], [0.7, 0.4])]


def test_site_wise_postcondition_against_the_oracle():
    """pair_from_params checks its pair on its 2x2 sites.  The largest of
    the sites' Sylvester bounds, less the rounding allowance delta(2), is
    at least the exact residual of the embedded pair it returns, and its
    pass/raise decision is the one that exact residual gives, under
    tolerances that put the bound on both sides of tol.compat.  The raise
    side takes tol.compat = 1e-30, below the exact residual and every
    nonzero computed one: a tolerance within the rounding of the residual
    is decided by that rounding."""
    sides = set()
    for x0, a0 in PARAMS:
        x0, a0 = np.array(x0), np.array(a0)
        params = StrictProjectionParams(a0, np.exp(1j * np.arange(1, len(a0) + 1)))
        a, b = pair_from_params(x0, params)
        sa, sb = _site_pairs(x0, params.a0, params.w)
        zvals, zvecs = np.linalg.eigh(np.eye(2) - sa - sb)
        certified = float(np.max(compat._sylvester_bounds(sa, sb, zvals, zvecs, np.inf)[0]))
        exact = _compat_residual(_mat(a), _mat(b))
        assert certified - _ROUNDING * 2 >= exact, (x0, a0, certified, exact)
        for bound in (DEFAULT_TOL.compat, 2.0 * certified, 0.5 * certified, 1e-30):
            tol = DEFAULT_TOL.override(compat=bound)
            try:
                pair_from_params(x0, params, tol)
                passed = True
            except PostconditionFailure:
                passed = False
            assert passed == (exact <= bound), (x0, a0, bound, certified, exact)
            sides.add(bool(certified <= bound))
    assert sides == {True, False}
