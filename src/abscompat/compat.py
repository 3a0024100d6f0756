"""Absolute compatibility of effects and the five-block decomposition.

Two effects a, b are absolutely compatible when |a-b| + |1-a-b| = 1.
For such a pair the space splits into five mutually orthogonal blocks:
one where a is the identity, one where b is, one where a vanishes, one
where b vanishes, and a strict remainder.

A check is settled by the cheapest certificate that settles it, and a
factorization runs only when the certificate is inconclusive: a small
compatibility residual proves both operands are effects
(_certified_effects), a Sylvester bound from the one eigh of 1-a-b proves
the residual is small (_sylvester_bounds), and a Frobenius norm within
a bound proves the operator norm is too (hermitian._hnorm_upto).  Every
reported residual is a certified upper bound within its tolerance and
the exact norm above it.  So is_abs_compatible factorizes 1-a-b alone,
and a-b only for a pair the bound leaves open; canonical.canonicalize
takes its form from the eigh of 1-a-b that bound comes from, which
_pair_spectra hands back.  Five-block certifies and decomposes the
pair from that same eigh, as Halmos' decomposition of two projections
it gives (_five_blocks), and takes one more eigh on each side of the
first where its blocks settle.

is_abs_compatible and projection_compat_equiv take stacks of pairs and
run each in one pass: a stack raises at the first check that any pair
fails, with the message of the first such pair in C order
(hermitian._require), so one failing pair raises what it raises alone.
The cores take same-shape pairs whose entries are within 1 + tol.spec,
as hermitian._hermitian_pair returns them, and check neither.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatch,
    NotAbsolutelyCompatible,
    PostconditionFailure,
)
from .hermitian import (
    _ROUNDING,
    _compose,
    _effects,
    _fnorm,
    _hermitian_pair,
    _hnorm_upto,
    _levels,
    _over_sites,
    _per_matrix,
    _projection,
    _require,
    _require_unit_interval,
    _span,
    _strict_rows,
    dagger,
    hermitize,
    identity_like,
    op_norm,
    require_hermitian,
)
from .io import matrix_to_json

BLOCK_NAMES = ("unit_a", "unit_b", "strict", "null_a", "null_b")


@dataclass(frozen=True)
class CompatReport:
    """The residual and the verdict of one pair, or arrays of them over
    the leading axes of a stack of pairs; bool() holds when every pair
    is compatible.  A residual within the tolerance is a certified upper
    bound on the exact one, and a residual above it is the exact one."""

    residual: float
    compatible: bool
    tolerance: float

    def __bool__(self) -> bool:
        return bool(np.all(self.compatible))


def _canonical_order(a, b):
    """(a, b) of one shape swapped, pair by pair over leading axes, so that
    the first of each pair has the smaller bytes: each pair's C-order
    bytes compared at their first difference, as bytes objects compare."""
    shape = (math.prod(a.shape[:-2]), a.shape[-1] ** 2)
    xa, xb = (np.ascontiguousarray(x).reshape(shape).view(np.uint8) for x in (a, b))
    differ = xa != xb
    if not differ.any():
        return a, b
    at = (np.arange(len(differ)), differ.argmax(axis=1))
    swap = differ[at] & (xb[at] < xa[at])
    if not swap.any():
        return a, b
    if swap.all():
        return b, a
    swap = np.reshape(swap, a.shape[:-2] + (1, 1))
    return np.where(swap, b, a), np.where(swap, a, b)


def _pair_spectra(a, b, bound):
    """(r, (zvals, zvecs)): r = || |a-b| + |1-a-b| - 1 ||, for a residual
    that is compared with bound, and the eigh of 1-a-b of the pair in its
    canonical order, which r is bounded from.  A value of r within the
    bound is a certified upper bound on the exact residual, and a value
    above it is the exact residual.  r is first bounded from the eigh of
    1-a-b (_sylvester_bounds), and only a pair that bound leaves open
    takes the eigh of a-b and its residual Frobenius-first (_hnorm_upto).
    This is the one place that factorizes 1-a-b: callers that need its
    spectrum, as five-block and canonicalize do, take the eigh returned.

    a and b may be stacks of pairs of one shape; r is then an array.
    Each pair is put in a canonical order before any floating-point work,
    so r and the eigh are symmetric in (a, b) to the last bit.  The two
    halves are composed apart, each on its own, so one pair's products
    are plain 2-D products.  A Sylvester bound is never below the exact
    residual and a Frobenius-first value never below the computed one,
    and a value within the bound is one the two-eigh computation puts
    within it too (_sylvester_bounds).
    """
    a, b = _canonical_order(a, b)
    one = identity_like(a)
    zvals, zvecs = np.linalg.eigh(one - a - b)
    residual, certified = _sylvester_bounds(a, b, zvals, zvecs, bound)
    if not np.all(certified):
        at = ~certified
        dvals, dvecs = np.linalg.eigh(a[at] - b[at])
        excess = _compose(np.abs(dvals), dvecs) + _compose(np.abs(zvals[at]), zvecs[at]) - one
        residual[at] = _hnorm_upto(excess, bound)
    return _per_matrix(residual), (zvals, zvecs)


def _sylvester_bounds(a, b, zvals, zvecs, bound):
    """(s, certified) for each pair of n x n Hermitian (a, b), arrays over
    leading axes, from the eigh (zvals, zvecs) of 1-a-b alone: certified
    masks the pairs whose Sylvester bound s on the compatibility residual
    is within bound; s is no bound where certified is False.

    With c = 1-a-b, d = a-b, X = 1 - |c| and mu = 1 - ||c||, the residual
    is r = || |d| - X ||.  Exactly,

        X^2 - d^2 = 1 - 2|c| + c^2 - d^2 = 2c - 2|c| + 2(ab + ba)
                  = 2(ab + ba) - 4c-,

    with c- the negative part of c, so Z = X^2 - d^2 needs only
    products: Z/4 = herm(ab - V- diag(-zvals-) V-*), with V- the
    eigenvectors of the negative eigenvalues zvals-, the first columns of
    the ascending eigh.  Sylvester step: Y = X - |d| solves
    XY + Y|d| = Z, and in eigenbases of X >= mu and |d| >= 0 its
    entries are those of Z over x_i + t_j >= mu, so
    r <= ||Y||_F <= ||Z||_F / mu when mu > 0 (Bhatia, Matrix Analysis,
    1997, VII.2).  On a compatible pair
    |d| = X, so Z = 0: the canonical form has |a-b| = x0 and
    |1-a-b| = 1 - x0 on every site, and mu is the least x0.

    From computed to exact.  The computed eigh is exact for c + E, with
    E its backward error (p(n) u ||c||, LAPACK Users' Guide, section 4.7)
    plus the rounding of 1-a-b, and the computed V diag(zvals-) V* is
    (c + E)- up to the departure of V from a unitary, about n u.  The
    Hilbert-Schmidt continuity of x -> |x| (|| |S| - |T| ||_F <=
    ||S - T||_F for Hermitian S, T; Bhatia, Matrix Analysis, ch. X)
    carries over to x- = (|x| - x)/2, so ||(c + E)- - c-||_F <= ||E||_F,
    and by Weyl's inequality mu >= 1 - max|zvals| - ||E||.  The product ab + ba
    rounds by about n u ||a|| ||b||, where ||a + b|| = ||1 - c|| <= 2
    and ||d||^2 <= ||X^2|| + ||Z|| <= 1 + ||Z||, so each of ||a||, ||b||
    is below about 2 wherever ||Z|| is small.  delta(n) = _ROUNDING n =
    2e3 n u covers each of these errors, as in _certified_effects; so with
    Z and mu as computed,

        r <= (||Z||_F + delta(n)) / (mu - delta(n)) = s,

    the bound returned, whose own few relative roundings are far inside
    delta(n); measured, the computed ||Z||_F stays below 6 n eps on
    exactly compatible pairs for n from 2 to 256.  s exceeds r by at
    least about delta(n) / mu >= delta(n), more than the rounding of the
    residual from two eigh (below 2.3 n eps, measured for n from 2 to
    256), so a pair it certifies is one that residual passes too.  A
    pair with mu near 0, such as one with a = b = 1 on a vector, gets no
    bound within reach and stays open.
    """
    allowance = _ROUNDING * a.shape[-1]
    # zvals ascend, so c- lives on the first k columns, those where some
    # pair has a negative eigenvalue, each weighted by max(-zval, 0)
    k = np.count_nonzero((zvals < 0.0).any(axis=tuple(range(zvals.ndim - 1))))
    neg, minus = np.maximum(-zvals[..., :k], 0.0), zvecs[..., :k]
    z_norm = 4.0 * _fnorm(hermitize(a @ b - (minus * neg[..., None, :]) @ dagger(minus))) + allowance
    gap = 1.0 - np.abs(zvals).max(axis=-1, initial=0.0) - allowance
    certified = z_norm <= bound * gap
    return np.asarray(z_norm / np.where(certified, gap, 1.0)), certified


def _require_compatible(residual, tol: Tolerances) -> None:
    """Raises unless every residual is within tol.compat; an error reports
    the first that is not."""
    _require(residual <= tol.compat, NotAbsolutelyCompatible, "residual %.3e > %.3e", residual, tol.compat)


def _built_pair(a, b, tol: Tolerances, not_strict, sites: bool = False):
    """(a, b), a pair a construction built, or stacks of such pairs, once
    both are strict (one eigvalsh of the stack [a, b]) and their residual
    is within tol.compat; otherwise raises not_strict, an (error, message)
    pair, or PostconditionFailure("constructed pair residual ...").

    With sites=True, a and b are the (..., m, 2, 2) site blocks of pairs
    with exact zeros off their sites, and each pair is checked on its
    sites: its spectra are the union of its sites', and |a-b| and
    |1-a-b| are taken site by site, so its residual is the largest of its
    sites' (hermitian._over_sites).  Each site's Sylvester bound covers
    that site's rounding with delta(2) (_sylvester_bounds), and a site it
    leaves open takes its own exact residual, so the whole check makes
    2x2 factorizations only.
    """
    va, vb = np.linalg.eigvalsh(np.stack([a, b]))
    _require(_strict_rows(va, tol) & _strict_rows(vb, tol), *not_strict)
    residual = _over_sites(_pair_spectra(a, b, tol.compat)[0], sites)
    _require(residual <= tol.compat, PostconditionFailure, "constructed pair residual %.3e", residual)
    return a, b


def _certified_effects(a, b, residual, tol: Tolerances):
    """None when residual, _pair_spectra's for Hermitian a and b, or stacks
    of them, of one shape and with no entry beyond 1 + tol.spec, as
    hermitian._hermitian_pair returns them, certifies both as effects,
    and the spectra (va, vb) of _effects otherwise, which raises what it
    raises, in its order, when they are not effects.

    A small residual proves both operands are effects.  With c = 1-a-b,
    d = a-b, their positive and negative parts c+, c-, d+, d- and
    2e = 1 - |c| - |d|, exactly

        a = c- + d+ + e,   1 - a = c+ + d- - e,
        b = c- + d- + e,   1 - b = c+ + d+ - e,

    with ||e|| = r/2 for the residual r, so both spectra lie in
    [-r/2, 1 + r/2].  The computed parts V L+ V* and V L- V* are positive
    whatever the computed eigenvectors V are, so rounding enters only
    through the backward errors of the two eigh and the final eigvalsh
    (p(n) u ||x||, LAPACK Users' Guide, section 4.7) and the rounding of
    the sums and products (about n u ||x||), every ||x|| being at most
    about 3.  delta(n) = 1e3 n eps = 2e3 n u covers these for p(n) up to
    about 200 n; measured, numpy's eigh stays below 3 n u, and exactly
    compatible pairs have computed residuals below 2.3 n eps, for n from
    2 to 256.  So r + delta(n) <= tol.spec puts both spectra inside
    [-tol.spec/2, 1 + tol.spec/2], where the validating eigvalsh accepts,
    and that eigvalsh is skipped.

    Otherwise, on a larger residual, _effects decides.  A stack is
    certified when every pair of it is, and validated whole otherwise.
    A Frobenius-first residual is never below the computed one, so what
    it certifies the computed residual certifies too.  A Sylvester bound
    r is never below the exact residual of the pair, the rounding of
    both eigh included (_sylvester_bounds), so the exact spectra lie in
    [-r/2, 1 + r/2] and only the final eigvalsh's rounding is left for
    delta(n): r + delta(n) <= tol.spec still certifies both operands.
    """
    if np.all(residual + _ROUNDING * a.shape[-1] <= tol.spec):
        return None
    return _effects(a, b, tol)


def is_abs_compatible(a, b, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Residual ||  |a-b| + |1-a-b| - 1  ||_op and the pass/fail flag, of
    one pair or of each pair of two (..., n, n) stacks; within tol.compat
    the residual is a certified upper bound, above it the exact norm.

    The report is symmetric in (a, b) by construction: arguments are put
    in a canonical order before any floating-point work.  A residual
    within tol.spec, less a rounding allowance, certifies both operands
    as effects (_certified_effects); otherwise each is validated by its
    spectrum.  A stack raises at the first check that any pair fails,
    with the message of the first such pair in C order
    (hermitian._require); so a stack with one invalid pair raises what
    that pair raises alone.
    """
    a, b = _hermitian_pair(a, b, tol, stack=True)
    res = _pair_spectra(a, b, tol.compat)[0]
    _certified_effects(a, b, res, tol)
    return CompatReport(res, res <= tol.compat, tol.compat)


def is_orthogonal(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    a, b = _hermitian_pair(a, b, tol)
    _effects(a, b, tol)
    return op_norm(a @ b) <= tol.compat


def projection_compat_equiv(p, a, tol: Tolerances = DEFAULT_TOL):
    """(lhs, rhs) of the criterion: p absolutely compatible with a  <=>  pa = ap,
    for one pair or as arrays over two (..., n, n) stacks."""
    p = _projection(p, tol)
    a = require_hermitian(a, tol, stack=True)
    _require_unit_interval(np.linalg.eigvalsh(a), tol)
    if p.shape != a.shape:
        raise DimensionMismatch("shapes %r and %r" % (p.shape, a.shape))
    # a projection is an effect; i[p, a] is Hermitian with the norm of [p, a]
    lhs = _pair_spectra(p, a, tol.compat)[0] <= tol.compat
    rhs = _hnorm_upto(1j * (p @ a - a @ p), tol.compat) <= tol.compat
    return lhs, rhs


@dataclass(frozen=True)
class FiveBlockDecomposition:
    """The five blocks of a compatible pair, as bases and compressions.

    ``bases[name]`` holds orthonormal columns spanning each block;
    ``blocks_a[name]`` is the compression of a to that block (and the same
    for b).  Ranks may be zero; those blocks are 0x0.  ``projections()``
    builds the orthogonal projection onto each block from its basis on
    each call, as ``to_json`` does; five_block_decompose builds none.
    """

    bases: dict
    blocks_a: dict
    blocks_b: dict

    def projections(self) -> dict:
        return {name: _span(self.bases[name]) for name in BLOCK_NAMES}

    def ranks(self) -> dict:
        return {name: self.bases[name].shape[-1] for name in BLOCK_NAMES}

    def to_json(self) -> dict:
        return {
            "projections": {k: matrix_to_json(v) for k, v in self.projections().items()},
            "blocks": {
                "a": {k: matrix_to_json(v) for k, v in self.blocks_a.items()},
                "b": {k: matrix_to_json(v) for k, v in self.blocks_b.items()},
            },
        }


def five_block_decompose(a, b, tol: Tolerances = DEFAULT_TOL) -> FiveBlockDecomposition:
    """Split an absolutely compatible pair into its five blocks.

    Overlaps land in the earliest eligible block of unit_a, unit_b, null_a,
    null_b.  With c = 1-a-b, the blocks are Halmos' decomposition of
    Q = 1(c < 0) and P = (1-|c|)^-1 (a - c-): unit_a where both hold,
    unit_b where only Q does, null_b where only P does, null_a where
    neither does, and the strict block for the rest (_five_blocks).
    """
    a, b = _hermitian_pair(a, b, tol)
    _, ((_, blocks),) = _five_blocks(a, b, tol)
    return blocks


def _five_blocks(a, b, tol: Tolerances):
    """five_block_decompose of Hermitian a and b, or of each pair of two
    (..., n, n) stacks, of one shape and with no entry beyond 1 + tol.spec
    (hermitian._hermitian_pair): (the compatibility residual its
    certificate took, one (at, FiveBlockDecomposition) per pattern of
    block ranks, where at holds index arrays into the leading axes,
    Ellipsis for one pair, and the record's arrays are stacked in the
    order of at).

    One eigh of c = 1-a-b on the whole stack certifies every pair first
    (_certified_effects), so a pair raises the effect checks, then
    tol.compat, before any block check, and then gives the blocks.  With
    d = a-b, X = 1 - |c| and 2e = X - |d|, exactly a = c- + d+ + e, and
    where X is invertible P = X^-1/2 (a - c-) X^-1/2 is a projection
    commuting with X exactly when e = 0: if e = 0, |d| = X, so
    d+ = X 1(d > 0) and P = 1(d > 0); conversely b - c- = X - X^1/2 P X^1/2
    makes d = X^1/2 (2P - 1) X^1/2, so such a P gives |d| = X.  Then
    a = c- + XP and b = c- + X(1-P), and Q = 1(c < 0) commutes with X and
    P, so on the intersections of Q and P (Halmos, Two subspaces, Trans.
    AMS 144, 1969) a = 1 on Q^P, unit_a; b = 1 on Q^P', unit_b; b = 0 on
    Q'^P, null_b; a = 0 on Q'^P', null_a.  On an eigenspace of X at x0,
    a = (1-x0) Q + x0 P, the paper's form with pivot Q, and the generic
    part of (Q, P) is a sum of planes at angles t in (0, pi/2), where a
    has trace 1 and determinant x0 (1-x0) sin^2 t, and b the same with
    cos^2 t: the strict block.  Where |c| = 1 (at the _levels cut), P is
    not defined but a = b = c-, so those vectors go straight to unit_a
    (c = -1) or null_a (c = 1), the earlier eligible block.  Where c = 0,
    |d| = 1, a = P and b = 1 - a, so on the Q side Q^P = unit_a and
    Q^P' = unit_b are again the earlier blocks: the Q side takes every
    eigenvector with c <= tol.spec, where b = 1 - c or a = 1 - c is at 1.

    One eigh of P compressed to each side (_halmos_vectors) gives vectors
    spanning its two intersections and its half of the generic part, and
    each is put in the first of unit_a, unit_b, null_a, null_b whose
    operand's Rayleigh quotient is at its level, or in the strict block.
    On an intersection that operand's quotient is exactly 1 or 0, and a
    vector whose partner is at a level too is eligible for both blocks
    and passes the earlier test first, on either side; a generic vector's
    quotients lie between the strict block's extreme eigenvalues, which
    its check keeps off both cuts.  So the overlap order holds.  Pairs
    with the same side counts are compressed as one stack, and those with
    the same ranks checked as one (_require_reduced,
    _verify_block_contents).
    """
    n = a.shape[-1]
    residual, (zvals, zvecs) = _pair_spectra(a, b, tol.compat)
    _certified_effects(a, b, residual, tol)
    _require_compatible(residual, tol)
    # per pair, how many eigenvalues of c are at -1, on the Q side (a prefix) and at 1 (a suffix)
    sides = [_levels(-zvals, tol)[0], zvals <= tol.spec, _levels(zvals, tol)[0]]
    out = []
    for at, (units, q, nulls) in _patterns(np.stack([np.count_nonzero(m, axis=-1) for m in sides], axis=-1)):
        v, lam, ga, gb = zvecs[at], zvals[at], a[at], b[at]
        halves = [_halmos_vectors(ga, v[..., s], lam[..., s]) for s in (slice(units, q), slice(q, n - nulls))]
        w = np.concatenate([v[..., :units], *halves, v[..., n - nulls:]], axis=-1)
        aw, bw = ga @ w, gb @ w
        (unit_a, null_a), (unit_b, null_b) = (_levels(np.vecdot(w, x, axis=-2).real, tol) for x in (aw, bw))
        # each vector's block, as an index into BLOCK_NAMES
        labels = np.select([unit_a, unit_b, null_a, null_b], [0, 1, 3, 4], 2)
        labels[..., :units], labels[..., n - nulls:] = 0, 3
        ranks = np.stack([np.count_nonzero(labels == k, axis=-1) for k in range(len(BLOCK_NAMES))], axis=-1)
        for inner, widths in _patterns(ranks):
            by_block = np.argsort(labels[inner], axis=-1, kind="stable")[..., None, :]
            where = _within(at, inner)
            bases, blocks_a, blocks_b, mats, frob = _reduced_blocks(
                *(np.take_along_axis(x[inner], by_block, axis=-1) for x in (w, aw, bw)), widths)
            _require_reduced(mats, frob, tol)
            _verify_block_contents(blocks_a, blocks_b, tol, _strict_bound(np.asarray(residual)[where], frob, n, tol))
            out.append((where, FiveBlockDecomposition(bases, blocks_a, blocks_b)))
    return residual, out


def _patterns(counts) -> list:
    """(at, pattern) for each distinct row of counts, one row per element
    over the leading axes: at picks the elements with that row as index
    arrays, or is Ellipsis when counts is the one row of a lone element."""
    if counts.ndim == 1:
        return [(Ellipsis, tuple(counts.tolist()))]
    rows, which = np.unique(counts.reshape(-1, counts.shape[-1]), axis=0, return_inverse=True)
    which = which.reshape(counts.shape[:-1])
    return [(np.nonzero(which == i), tuple(row.tolist())) for i, row in enumerate(rows)]


def _within(outer, inner):
    """The elements inner picks from those outer picked."""
    return inner if outer is Ellipsis else tuple(ix[inner] for ix in outer)


def _halmos_vectors(a, v, lam):
    """v times the eigenvectors of P = X^-1/2 (v*av - diag(c-)) X^-1/2,
    X = 1 - |lam|, for columns v of the eigh of c = 1-a-b with eigenvalues
    lam, none at -1 or 1; v itself, with no factorization, when it has
    no column."""
    if not v.shape[-1]:
        return v
    scale = 1.0 / np.sqrt(1.0 - np.abs(lam))
    minus = identity_like(v) * np.maximum(-lam, 0.0)[..., None, :]
    p = (hermitize(dagger(v) @ a @ v) - minus) * (scale[..., :, None] * scale[..., None, :])
    return v @ np.linalg.eigh(p)[1]


def _reduced_blocks(v, av, bv, widths):
    """(bases, blocks_a, blocks_b, mats, frob) from the five blocks'
    columns v side by side, widths[k] of them for BLOCK_NAMES[k], and
    av = a v, bv = b v: the compressions of a and b to each block, and
    what _require_reduced checks, V*V - I and the off-block parts of V*aV
    and V*bV, with their Frobenius norms (eps, delta_a, delta_b)."""
    owner = np.repeat(np.arange(len(widths)), widths)
    on_block = owner[:, None] == owner[None, :]
    gram = dagger(v) @ v - identity_like(v)
    ms = [hermitize(dagger(v) @ x) for x in (av, bv)]
    mats = [gram] + [np.where(on_block, 0.0, m) for m in ms]
    # owner repeats each block's label over its width: block k owns edges[k]:edges[k + 1]
    edges = np.cumsum([0, *widths])
    bases, blocks_a, blocks_b = ({name: x[..., lo:hi, lo:hi].copy() if square else x[..., lo:hi]
                                  for name, lo, hi in zip(BLOCK_NAMES, edges[:-1], edges[1:])}
                                 for x, square in ((v, False), (ms[0], True), (ms[1], True)))
    return bases, blocks_a, blocks_b, mats, np.array([_fnorm(x) for x in mats])


def _require_reduced(mats, frob, tol: Tolerances) -> None:
    """Raises unless the blocks of _reduced_blocks reduce both operands;
    for stacks, pair by pair.

    With V the bases side by side, eps = ||V*V - I|| and delta the
    off-block mass of V*xV, x = a, b: ||V||^2 <= 1 + eps, the projections
    V_k V_k* sum to VV* with ||VV* - I|| = eps, each is idempotent and
    any two are orthogonal up to (1 + eps) eps, and each commutes with x,
    and the blocks rebuild x, up to (1 + eps) (delta + 2 eps ||x||), with
    ||x|| <= 1 + tol.spec for a certified effect.  So the two checks below
    enforce all five postconditions at tol.proj and tol.block.  They take
    the Frobenius norms frob first, never below the operator norms, and
    only a pair those do not settle takes the exact norms.
    """
    eps, bounds = _reduction_bounds(frob, tol)
    open_ = np.logical_not(((1.0 + eps) * eps <= tol.proj) & np.all(bounds <= tol.block, axis=0))
    if np.any(open_):
        norms = frob.copy()
        exact = np.linalg.eigvalsh(np.stack([x[open_] for x in mats]))
        norms[:, open_] = np.abs(exact).max(axis=-1)
        eps, bounds = _reduction_bounds(norms, tol)
    _require((1.0 + eps) * eps <= tol.proj, PostconditionFailure,
             "five-block bases are not orthonormal, ||V*V - I|| = %.3e", eps)
    for label, bound in zip("ab", bounds):
        _require(bound <= tol.block, PostconditionFailure,
                 "blocks do not reduce %s: off-block bound %.3e", label, bound)


def _reduction_bounds(norms, tol):
    """eps and the two off-block bounds of _require_reduced from the norms
    of V*V - I and of the off-block parts of V*aV and V*bV."""
    eps = norms[0]
    return eps, (1.0 + eps) * (norms[1:] + 2.0 * eps * (1.0 + tol.spec))


def _verify_block_contents(blocks_a, blocks_b, tol: Tolerances, bound) -> None:
    """The unit and null blocks are 1 and 0, and the strict blocks, unless
    0x0, strict and absolutely compatible, for each pair of stacked
    blocks: their residual is taken unless bound, an upper bound on it
    (_strict_bound), is within tol.compat for every pair, and their
    spectra unless the Cholesky gate certifies them (_certified_strict)."""
    outer = ("unit_a", blocks_a, 1.0), ("unit_b", blocks_b, 1.0), ("null_a", blocks_a, 0.0), ("null_b", blocks_b, 0.0)
    for name, blocks, target in outer:
        dev = _hnorm_upto(blocks[name] - target * identity_like(blocks[name]), tol.block)
        _require(dev <= tol.block, PostconditionFailure, "restriction to %s is not %r", name, target)
    sa, sb = blocks_a["strict"], blocks_b["strict"]
    if sa.shape[-1] and not _certified_strict(sa, sb, tol):
        va, vb = np.linalg.eigvalsh(np.stack([sa, sb]))
        _require(_strict_rows(va, tol) & _strict_rows(vb, tol), PostconditionFailure,
                 "strict block has spectrum touching 0 or 1")
    if sa.shape[-1] and not np.all(bound <= tol.compat):
        residual = _pair_spectra(sa, sb, tol.compat)[0]
        _require(residual <= tol.compat, PostconditionFailure,
                 "strict block not absolutely compatible, residual %.3e", residual)


def _strict_bound(residual, frob, n: int, tol: Tolerances):
    """An upper bound on the compatibility residual of the strict block of
    each pair of n x n effects, from the residual that certified the
    whole pair and frob = (eps, delta_a, delta_b) of _reduced_blocks.

    With f(x, y) = |x-y| + |1-x-y| - 1, || |S| - |T| ||_F <= ||S - T||_F
    for Hermitian S, T (Kato 1973; Bhatia, Matrix Analysis, ch. X) gives
    ||f(x, y) - f(x', y')||_F <= 2 (||x - x'||_F + ||y - y'||_F).  With
    V = UP, U unitary, ||P - I||_F <= ||P^2 - I||_F = eps, so V*xV is
    within eps (2 + eps) (1 + tol.spec) of U*xU for an effect x, and
    f(U*aU, U*bU) = U* f(a, b) U; dropping the off-block parts moves f by
    at most 2 (delta_a + delta_b) and leaves f(sa, sb) on the strict
    block.  delta(n) = _ROUNDING n covers the rounding of the products
    and of a residual taken exactly, as in _certified_effects.
    """
    eps, delta_a, delta_b = frob
    return residual + 2.0 * (delta_a + delta_b) + 4.0 * eps * (2.0 + eps) * (1.0 + tol.spec) + _ROUNDING * n


def _certified_strict(sa, sb, tol: Tolerances) -> bool:
    """Whether every pair of k x k strict blocks (sa, sb) is certified
    strict: one Cholesky of the stack sa - t, (1 - t) - sa, sb - t and
    (1 - t) - sb, t = tol.spec + _ROUNDING k, runs to completion.

    A Cholesky of a Hermitian H that completes in floating point is exact
    for H + E with ||E|| <= g(k+1) tr(H), g(m) about m u (Demmel, LAPACK
    Working Note 14, 1989; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Thm 10.5), and tr(H) <= k (1 + tol.spec) here.  So
    every eigenvalue of sa and sb clears the cut by _ROUNDING k -
    g(k+1) k (1 + tol.spec), above 900 k u for k up to 256, far more than
    the rounding of the eigvalsh it spares (below 3 k u measured, as in
    _certified_effects), which would find both strict too.
    """
    low = tol.spec + _ROUNDING * sa.shape[-1]
    h = np.stack([sa, -sa, sb, -sb])
    diag = np.einsum("...ii->...i", h)
    diag += np.reshape([-low, 1.0 - low, -low, 1.0 - low], (4,) + (1,) * (sa.ndim - 1))
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True
