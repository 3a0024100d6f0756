"""Absolute compatibility of effects and the five-block decomposition.

Two effects a, b are absolutely compatible when |a-b| + |1-a-b| = 1.
For such a pair the space splits into five mutually orthogonal blocks:
one where a is the identity, one where b is, one where a vanishes, one
where b vanishes, and a strict remainder.

A check is settled by the cheapest certificate that settles it, and a
factorization runs only when the certificate is inconclusive: a small
compatibility residual proves both operands are effects
(_certified_pair), a Sylvester bound from the one eigh of 1-a-b proves
the residual is small (_sylvester_bounds), and a Frobenius norm within
a bound proves the operator norm is too (hermitian._hnorm_upto).  So a
residual that is only compared with tol.compat factorizes 1-a-b alone,
and a-b only for a pair the bound leaves open; canonical.canonicalize
takes the same bound from the eigh of 1-a-b its form comes from.
Five-block certifies its strict block from what it already holds: the
spectra the block interlaces clear the strictness cut
(_strict_by_interlacing), and the whole pair's residual plus its
off-block norms bound the block's residual (_strict_block_bound).  That
bound needs the whole pair's residual only from above, so _five_blocks
always takes the Sylvester bound, and a five-block call makes 4 eigh
and no eigvalsh, where taking the pair's exact residual and factorizing
the strict block again for its own would make 7 and 4.

is_abs_compatible and projection_compat_equiv take stacks of pairs and
run each in one pass: a stack raises at the first check that any pair
fails, with the message of the first such pair in C order
(hermitian._require), so one failing pair raises what it raises alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    _effect,
    _effects,
    _fnorm,
    _hermitian_pair,
    _hnorm,
    _hnorm_upto,
    _levels,
    _over_sites,
    _per_matrix,
    _projection,
    _require,
    _span,
    _strict_rows,
    dagger,
    hermitize,
    identity_like,
    op_norm,
)
from .io import matrix_to_json

BLOCK_NAMES = ("unit_a", "unit_b", "strict", "null_a", "null_b")


@dataclass(frozen=True)
class CompatReport:
    """The residual and the verdict of one pair, or arrays of them over
    the leading axes of a stack of pairs; bool() holds when every pair
    is compatible."""

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


def _pair_spectra(a, b, bound=None):
    """|| |a-b| + |1-a-b| - 1 ||, from one eigh of 1-a-b and one of a-b,
    exact where there is no bound.  A residual that is only compared with
    a bound is first bounded from the eigh of 1-a-b alone
    (_sylvester_bounds), and only a pair that bound leaves open takes the
    eigh of a-b and its residual Frobenius-first (_hnorm_upto), exact
    where it exceeds the bound.  No matrix is factorized twice.

    a and b may be stacks of pairs of one shape; the residual is then an
    array.  Each pair is put in a canonical order before any
    floating-point work, so the residual is symmetric in (a, b) to the
    last bit.  The two halves are composed apart, each on its own, so one
    pair's products are plain 2-D products.  With a bound, a Sylvester
    bound is never below the exact residual and a Frobenius-first value
    never below the computed one, and a value within the bound is one the
    two-eigh computation puts within it too (_sylvester_bounds).
    """
    a, b = _canonical_order(a, b)
    one = identity_like(a)
    zvals, zvecs = np.linalg.eigh(one - a - b)
    if bound is None:
        residual, at = np.empty(a.shape[:-2]), ...  # every pair is open
    else:
        residual, certified = _sylvester_bounds(a, b, zvals, zvecs, bound)
        if np.all(certified):
            return _per_matrix(residual)
        at = ~certified
    dvals, dvecs = np.linalg.eigh(a[at] - b[at])
    excess = _compose(np.abs(dvals), dvecs) + _compose(np.abs(zvals[at]), zvecs[at]) - one
    residual[at] = _hnorm(excess) if bound is None else _hnorm_upto(excess, bound)
    return _per_matrix(residual)


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
    products.  Sylvester step: Y = X - |d| solves XY + Y|d| = Z, and in
    eigenbases of X >= mu and |d| >= 0 its entries are those of Z over
    x_i + t_j >= mu, so r <= ||Y||_F <= ||Z||_F / mu when mu > 0
    (Bhatia, Matrix Analysis, 1997, VII.2).  On a compatible pair
    |d| = X, so Z = 0: the canonical form has |a-b| = x0 and
    |1-a-b| = 1 - x0 on every site, and mu is the least x0.

    From computed to exact.  The computed eigh is exact for c + E, with
    E its backward error (p(n) u ||c||, LAPACK Users' Guide, section 4.7)
    plus the rounding of 1-a-b, and the computed V diag(zvals-) V* is
    (c + E)- up to the departure of V from a unitary, about n u.  The
    Hilbert-Schmidt continuity of x -> |x| (|| |S| - |T| ||_F <=
    ||S - T||_F for Hermitian S and T, as in _strict_block_bound) carries
    over to x- = (|x| - x)/2, so ||(c + E)- - c-||_F <= ||E||_F, and by
    Weyl's inequality mu >= 1 - max|zvals| - ||E||.  The product ab + ba
    rounds by about n u ||a|| ||b||, where ||a + b|| = ||1 - c|| <= 2
    and ||d||^2 <= ||X^2|| + ||Z|| <= 1 + ||Z||, so each of ||a||, ||b||
    is below about 2 wherever ||Z|| is small.  delta(n) = _ROUNDING n =
    2e3 n u covers each of these errors, as in _certified_pair; so with
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
    z_norm = 4.0 * _fnorm(hermitize(a @ b) - _compose(np.maximum(-zvals, 0.0), zvecs)) + allowance
    gap = 1.0 - np.abs(zvals).max(axis=-1, initial=0.0) - allowance
    certified = z_norm <= bound * gap
    return np.asarray(z_norm / np.where(certified, gap, 1.0)), certified


def _require_compatible(residual, tol: Tolerances) -> None:
    """Raises unless every residual is within tol.compat; an error reports
    the first that is not."""
    _require(residual <= tol.compat, NotAbsolutelyCompatible, "residual %.3e > %.3e", residual, tol.compat)


def _built_pair(a, b, tol: Tolerances, not_strict, incompatible="constructed pair residual %.3e",
                sites: bool = False):
    """(a, b), a pair a construction built, or stacks of such pairs, once
    both are strict (one eigvalsh of the stack [a, b]) and their residual
    is within tol.compat; otherwise raises not_strict, an (error, message)
    pair, or PostconditionFailure(incompatible % residual).

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
    residual = _over_sites(_pair_spectra(a, b, tol.compat), sites)
    _require(residual <= tol.compat, PostconditionFailure, incompatible, residual)
    return a, b


def _certified_pair(a, b, tol: Tolerances, compared: bool = False):
    """(_pair_spectra(a, b), vals) for Hermitian a and b, or stacks of
    them, where vals is None when the residual certifies both as effects
    and the spectra (va, vb) of _effects otherwise; raises what _effects
    raises, in its order, when they are not effects.  With compared=True,
    for a caller that only compares the residual with tol.compat, the
    residual is the Sylvester bound from the eigh of 1-a-b alone where
    that is within tol.compat, and Frobenius-first elsewhere
    (_pair_spectra).

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

    Otherwise (a larger residual; an entry above 1 + tol.spec, which no
    effect has and which could overflow a - b; a shape mismatch) _effects
    decides.  A stack is certified when every pair of it is, and
    validated whole otherwise.
    A Frobenius-first residual is never below the computed one, so what
    it certifies the computed residual certifies too.  A Sylvester bound
    r is never below the exact residual of the pair, the rounding of
    both eigh included (_sylvester_bounds), so the exact spectra lie in
    [-r/2, 1 + r/2] and only the final eigvalsh's rounding is left for
    delta(n): r + delta(n) <= tol.spec still certifies both operands.
    """
    bound = tol.compat if compared else None
    residual = None
    if a.shape == b.shape and _bounded(a, b, tol):
        residual = _pair_spectra(a, b, bound)
        if np.all(residual + _ROUNDING * a.shape[-1] <= tol.spec):
            return residual, None
    vals = _effects(a, b, tol)
    return residual if residual is not None else _pair_spectra(a, b, bound), vals


def _bounded(a, b, tol: Tolerances) -> bool:
    """Whether no entry of a or b exceeds 1 + tol.spec in modulus, as none
    of an effect does; past it, a - b could overflow."""
    return max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)) <= 1.0 + tol.spec


def is_abs_compatible(a, b, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Residual ||  |a-b| + |1-a-b| - 1  ||_op and the pass/fail flag, of
    one pair or of each pair of two (..., n, n) stacks.

    The report is symmetric in (a, b) by construction: arguments are put
    in a canonical order before any floating-point work.  A residual
    within tol.spec, less a rounding allowance, certifies both operands
    as effects (_certified_pair); otherwise each is validated by its
    spectrum.  A stack raises at the first check that any pair fails,
    with the message of the first such pair in C order
    (hermitian._require); so a stack with one invalid pair raises what
    that pair raises alone.
    """
    res = _certified_pair(*_hermitian_pair(a, b, tol, stack=True), tol)[0]
    return CompatReport(res, res <= tol.compat, tol.compat)


def is_orthogonal(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    a, b = _hermitian_pair(a, b, tol)
    _effects(a, b, tol)
    return op_norm(a @ b) <= tol.compat


def projection_compat_equiv(p, a, tol: Tolerances = DEFAULT_TOL):
    """(lhs, rhs) of the criterion: p absolutely compatible with a  <=>  pa = ap,
    for one pair or as arrays over two (..., n, n) stacks."""
    p = _projection(p, tol, stack=True)
    a = _effect(a, tol, stack=True)[0]
    if p.shape != a.shape:
        raise DimensionMismatch("shapes %r and %r" % (p.shape, a.shape))
    # a projection is an effect; i[p, a] is Hermitian with the norm of [p, a]
    lhs = _pair_spectra(p, a, tol.compat) <= tol.compat
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
        return {name: self.bases[name].shape[1] for name in BLOCK_NAMES}

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
    null_b.  For a compatible pair the eigenspaces of a at 1 and at 0
    reduce b, so one eigh of a cuts the space into unit_a, the kernel K
    of a, and the rest R; one eigh of b compressed to K splits it into
    its b = 1 part (unit_b) and null_a; one eigh of b compressed to R
    splits it into its b = 1 part (unit_b), its b = 0 part (null_b) and
    the strict block.  _reduced_blocks checks the reduction claim.  The
    pair runs through _five_blocks as a batch of one, which takes the
    residual it only bounds from the eigh of 1-a-b alone
    (_sylvester_bounds).
    """
    a, b = _hermitian_pair(a, b, tol)
    _, ((_, bases, blocks_a, blocks_b),) = _five_blocks(a, b, tol)
    return FiveBlockDecomposition(bases, blocks_a, blocks_b)


class _Blocks(NamedTuple):
    """The bases and blocks of the pairs of a stack that share one pattern
    of block ranks, stacked in the order of at."""

    at: object  # index arrays into the leading axes; Ellipsis for one pair
    bases: dict
    blocks_a: dict
    blocks_b: dict


def _five_blocks(a, b, tol: Tolerances):
    """five_block_decompose of Hermitian a and b, or of each pair of two
    (..., n, n) stacks: (the compatibility residual its certificate took,
    one _Blocks per pattern of block ranks).  That residual is the
    Sylvester bound where that settles the pair (_certified_pair with
    compared=True), never below the exact residual, which is all the
    strict-block bound needs.

    The certificate and the eigh of a run on the whole stack.  eigh sorts
    each spectrum in ascending order, so the kernel of a is a prefix of
    its eigenvectors, its eigenspace at 1 a suffix and the rest between
    them; the pairs with the same counts slice the same columns, and
    each such group takes one eigh of b on the kernel and one on the
    rest.  Those spectra ascend too, so the pairs of a group are grouped
    again by their counts at 1 and 0, which fix the columns of every
    block, and each of those groups checks its blocks as one stack.
    Every postcondition holds for every pair; a stack raises at the
    first check some pair of it fails.

    The strict block of a pair is strict when the spectra it interlaces
    clear the cut (_strict_by_interlacing) and compatible when
    _strict_block_bound is within tol.compat; only the pairs that these
    certificates leave open take _built_pair on their strict blocks.
    """
    residual, _ = _certified_pair(a, b, tol, compared=True)
    _require_compatible(residual, tol)
    n = a.shape[-1]
    vals, vecs = np.linalg.eigh(a)
    whole = np.asarray(residual)
    out = []
    for at, (units, zeros) in _patterns(_level_counts(vals, tol)):
        v, ga, gb = vecs[at], a[at], b[at]
        kernel, kvals = _eigh_on(gb, v[..., :zeros])
        rest, rvals = _eigh_on(gb, v[..., zeros:n - units])
        counts = np.concatenate([_level_counts(kvals, tol)[..., :1], _level_counts(rvals, tol)], axis=-1)
        for inner, (unit_k, unit_r, zero_r) in _patterns(counts):
            where = _within(at, inner)
            k, r = kernel[inner], rest[inner]
            top = r.shape[-1] - unit_r
            bases = {
                "unit_a": v[inner][..., n - units:],
                "unit_b": np.concatenate([k[..., zeros - unit_k:], r[..., top:]], axis=-1),
                "strict": r[..., zero_r:top],
                "null_a": k[..., :zeros - unit_k],
                "null_b": r[..., :zero_r],
            }
            blocks_a, blocks_b, frob = _reduced_blocks(ga[inner], gb[inner], bases, tol)
            strict = _strict_by_interlacing(vals[where][..., zeros:n - units], rvals[inner][..., zero_r:top],
                                            n, tol)
            settled = strict & (_strict_block_bound(whole[where], frob, n, tol) <= tol.compat)
            _verify_block_contents(blocks_a, blocks_b, tol, settled)
            out.append(_Blocks(where, bases, blocks_a, blocks_b))
    return residual, out


def _level_counts(vals, tol: Tolerances) -> np.ndarray:
    """How many eigenvalues of each ascending spectrum are at 1, a suffix,
    and at 0, a prefix (_levels), over the leading axes."""
    return np.stack([np.count_nonzero(m, axis=-1) for m in _levels(vals, tol)], axis=-1)


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


def _eigh_on(x, w):
    """eigh of x compressed to the columns of w: (w times the eigenvectors,
    the eigenvalues)."""
    vals, vecs = np.linalg.eigh(hermitize(dagger(w) @ x @ w))
    return w @ vecs, vals


def _reduced_blocks(a, b, bases, tol):
    """The compressions of a and b to the five blocks, once the blocks are
    checked to reduce both; for stacks, pair by pair.

    Let V be the bases side by side, eps = ||V*V - I|| and, for x = a, b,
    delta the off-block mass of V*xV.  Then ||V||^2 <= 1 + eps and:
      - the projections V_k V_k* sum to VV*, and ||VV* - I|| = eps;
      - each is idempotent and any two are orthogonal up to (1 + eps) eps;
      - each commutes with x, and the blocks rebuild x, up to
        (1 + eps) (delta + 2 eps ||x||), where ||x|| <= 1 + tol.spec for a
        validated or certified effect.
    So the two checks below enforce the sum, idempotence, orthogonality,
    commutation and reconstruction postconditions at tol.proj and
    tol.block.  Both bounds grow with eps and delta, so they are first
    taken with Frobenius norms, which are never below the operator norms;
    only a pair they do not settle takes them exactly.  Returns the
    compressions of a, of b and the Frobenius norms (eps, delta_a,
    delta_b), over leading axes.
    """
    v = np.concatenate(list(bases.values()), axis=-1)
    widths = [w.shape[-1] for w in bases.values()]
    owner = np.repeat(np.arange(len(bases)), widths)
    on_block = owner[:, None] == owner[None, :]
    gram = dagger(v) @ v - identity_like(v)
    ms = [hermitize(dagger(v) @ x @ v) for x in (a, b)]
    mats = [gram] + [np.where(on_block, 0.0, m) for m in ms]
    frob = norms = np.array([_fnorm(x) for x in mats])
    eps, bounds = _reduction_bounds(norms, tol)
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
    # owner repeats each block's label over its width: block k owns edges[k]:edges[k + 1]
    edges = np.cumsum([0] + widths)
    blocks_a, blocks_b = ({name: m[..., s:e, s:e].copy() for name, s, e in zip(bases, edges[:-1], edges[1:])}
                          for m in ms)
    return blocks_a, blocks_b, frob


def _reduction_bounds(norms, tol):
    """eps and the two off-block bounds of _reduced_blocks from the norms
    of V*V - I and of the off-block parts of V*aV and V*bV."""
    eps = norms[0]
    return eps, (1.0 + eps) * (norms[1:] + 2.0 * eps * (1.0 + tol.spec))


def _strict_by_interlacing(rest_a, middle_b, n: int, tol: Tolerances):
    """Whether the strict block of each pair of n x n effects is certified
    strict: a's eigenvalues on the rest, rest_a, and b's on the strict
    block, middle_b, all clear the _levels cut by _ROUNDING n.

    The strict basis is W Q, with W the computed eigenvectors of a on the
    rest and Q orthonormal eigenvectors of W*bW.  W*aW is diag(rest_a)
    and Q*(W*bW)Q is diag(middle_b), each up to the backward error of its
    eigh (p(n) u ||x||, LAPACK Users' Guide, section 4.7) and the
    rounding of the products (about n u ||x||), with ||x|| <= 1 + tol.spec
    for an effect.  By Cauchy interlacing the spectrum of Q* diag(rest_a) Q
    lies between the extremes of rest_a, and by Weyl's inequality the
    eigenvalues that _built_pair's eigvalsh computes for the compressions
    of a and b lie within those errors of rest_a's range and of
    middle_b.  _ROUNDING n = 2e3 n u covers them, as in _certified_pair,
    so when every value clears the cut by it, that eigvalsh would find
    both compressions strict.
    """
    return _strict_rows(np.concatenate([rest_a, middle_b], axis=-1), tol, _ROUNDING * n)


def _strict_block_bound(residual, frob, n: int, tol: Tolerances):
    """A bound on the compatibility residual of the strict block of each
    pair of n x n effects, from the residual of the whole pair and the
    Frobenius norms frob = (eps, delta_a, delta_b) of V*V - I and of the
    off-block parts of V*aV and V*bV that _reduced_blocks takes.

    Write f(x, y) = |x-y| + |1-x-y| - 1.  For Hermitian S and T,
    || |S| - |T| ||_F <= ||S - T||_F, the Hilbert-Schmidt form of the
    continuity of S -> |S| (Kato 1973; Bhatia, Matrix Analysis, ch. X),
    which carries no log factor: in eigenbases of S and T the entries of
    |S| - |T| are (|s_i| - |t_j|) c_ij and those of S - T are
    (s_i - t_j) c_ij.  So ||f(x, y) - f(x', y')||_F <= 2 (||x - x'||_F
    + ||y - y'||_F), and:
      - V = UP with U unitary and P = (V*V)^(1/2), so ||P - I||_F <= eps
        and ||V*xV - U*xU||_F <= eps (2 + eps) ||x||, with
        ||x|| <= 1 + tol.spec for an effect; f(U*aU, U*bU) = U* f(a, b) U
        has the norm r of the whole pair's residual;
      - dropping the off-block parts moves f by at most 2 (delta_a +
        delta_b) and leaves a block diagonal pair, whose f has the strict
        block's f as one diagonal block.
    So the strict block's residual is at most
        r + 2 (delta_a + delta_b) + 4 eps (2 + eps) (1 + tol.spec),
    and _ROUNDING n covers the rounding of the two computed residuals and
    of the compressions, about n u each, as in _certified_pair.
    _five_blocks, its one caller, takes r from above, as the Sylvester
    bound.
    """
    eps, delta_a, delta_b = frob
    return (residual + 2.0 * (delta_a + delta_b) + 4.0 * eps * (2.0 + eps) * (1.0 + tol.spec)
            + _ROUNDING * n)


def _verify_block_contents(blocks_a, blocks_b, tol, settled=np.False_):
    """The unit and null blocks are 1 and 0, and the strict blocks, unless
    they are 0x0, are strict and absolutely compatible, for each pair of
    stacked blocks; _built_pair checks the strict blocks of the pairs
    that settled, a mask over leading axes, leaves open."""
    checks = (
        ("unit_a", blocks_a, 1.0),
        ("unit_b", blocks_b, 1.0),
        ("null_a", blocks_a, 0.0),
        ("null_b", blocks_b, 0.0),
    )
    for name, side, target in checks:
        blk = side[name]
        _require(_hnorm_upto(blk - target * identity_like(blk), tol.block) <= tol.block, PostconditionFailure,
                 "restriction to %s is not %r", name, target)
    if blocks_a["strict"].shape[-1] and not np.all(settled):
        _built_pair(blocks_a["strict"][~settled], blocks_b["strict"][~settled], tol,
                    (PostconditionFailure, "strict block has spectrum touching 0 or 1"),
                    "strict block not absolutely compatible, residual %.3e")
