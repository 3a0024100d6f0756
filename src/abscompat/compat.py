"""Absolute compatibility of effects and the five-block decomposition.

Two effects a, b are absolutely compatible when |a-b| + |1-a-b| = 1.
For such a pair the space splits into five mutually orthogonal blocks:
one where a is the identity, one where b is, one where a vanishes, one
where b vanishes, and a strict remainder.

A check is settled by the cheapest certificate that settles it, and a
factorization runs only when the certificate is inconclusive: a small
compatibility residual proves both operands are effects
(_certified_pair), and a Frobenius norm within a bound proves the
operator norm is too (hermitian._hnorm_upto).
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
    _effects,
    _factor_each,
    _fnorm,
    _hermitian_pair,
    _hnorm,
    _hnorm_upto,
    _strictness,
    dagger,
    hermitize,
    identity_like,
    op_norm,
    require_effect,
    require_projection,
)
from .io import matrix_to_json

BLOCK_NAMES = ("unit_a", "unit_b", "strict", "null_a", "null_b")


@dataclass(frozen=True)
class CompatReport:
    residual: float
    compatible: bool
    tolerance: float

    def __bool__(self) -> bool:
        return self.compatible


class _PairSpectra(NamedTuple):
    """The compatibility residual of a pair and the factorizations behind
    it; for a stack of pairs, each field is stacked over the same axes."""

    residual: float  # an array for a stack of pairs
    abs_diff: np.ndarray  # |a - b|
    abs_diff_vals: np.ndarray  # spectrum of |a - b|, ascending
    rest: tuple  # eigh of 1 - a - b


def _canonical_order(a, b):
    """(a, b) of one shape swapped, pair by pair over leading axes, so that
    the first of each pair has the smaller bytes."""
    shape = (math.prod(a.shape[:-2]),) + a.shape[-2:]
    swap = [y.tobytes() < x.tobytes() for x, y in zip(a.reshape(shape), b.reshape(shape))]
    if not any(swap):
        return a, b
    if all(swap):
        return b, a
    swap = np.reshape(swap, a.shape[:-2] + (1, 1))
    return np.where(swap, b, a), np.where(swap, a, b)


def _pair_spectra(a, b) -> _PairSpectra:
    """|| |a-b| + |1-a-b| - 1 || from one eigh of the stack [a-b, 1-a-b]
    (_factor_each).

    a and b may be stacks of pairs of one shape; the residual is then an
    array.  Each pair is put in a canonical order before any
    floating-point work, so the residual is symmetric in (a, b) to the
    last bit.  The two halves are composed apart, each on its own, so one
    pair's products are plain 2-D products.
    """
    a, b = _canonical_order(a, b)
    one = identity_like(a)
    (dvals, dvecs), (zvals, zvecs) = _factor_each(np.linalg.eigh, a - b, one - a - b)
    abs_diff = _compose(np.abs(dvals), dvecs)
    residual = _hnorm(abs_diff + _compose(np.abs(zvals), zvecs) - one)
    return _PairSpectra(residual, abs_diff, np.sort(np.abs(dvals), axis=-1), (zvals, zvecs))


def _require_compatible(spectra: _PairSpectra, tol: Tolerances) -> _PairSpectra:
    """spectra, once every residual in it is within tol.compat; an error
    reports the largest."""
    worst = np.max(spectra.residual)
    if worst > tol.compat:
        raise NotAbsolutelyCompatible("residual %.3e > %.3e" % (worst, tol.compat))
    return spectra


def _certified_pair(a, b, tol: Tolerances):
    """(a, b, _pair_spectra(a, b)) for two effects a and b; raises what
    _effects raises, in its order, when they are not effects.

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
    effect has and which could overflow a - b; a shape mismatch; a
    non-Hermitian b) _effects decides, exactly as before.
    """
    a, b = _hermitian_pair(a, b, tol)
    spectra = None
    bounded = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)) <= 1.0 + tol.spec
    if a.shape == b.shape and bounded:
        spectra = _pair_spectra(a, b)
        if spectra.residual + _ROUNDING * a.shape[0] <= tol.spec:
            return a, b, spectra
    _effects(a, b, tol)
    return a, b, spectra if spectra is not None else _pair_spectra(a, b)


def is_abs_compatible(a, b, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Residual ||  |a-b| + |1-a-b| - 1  ||_op and the pass/fail flag.

    The report is symmetric in (a, b) by construction: arguments are put
    in a canonical order before any floating-point work.  A residual
    within tol.spec, less a rounding allowance, certifies both operands
    as effects (_certified_pair); otherwise each is validated by its
    spectrum.
    """
    res = _certified_pair(a, b, tol)[2].residual
    return CompatReport(res, res <= tol.compat, tol.compat)


def is_orthogonal(a, b, tol: Tolerances = DEFAULT_TOL) -> bool:
    (a, _), (b, _) = _effects(a, b, tol)
    return op_norm(a @ b) <= tol.compat


def projection_compat_equiv(p, a, tol: Tolerances = DEFAULT_TOL):
    """(lhs, rhs) of the criterion: p absolutely compatible with a  <=>  pa = ap."""
    p = require_projection(p, tol)
    a = require_effect(a, tol)
    if p.shape != a.shape:
        raise DimensionMismatch("shapes %r and %r" % (p.shape, a.shape))
    # a projection is an effect; i[p, a] is Hermitian with the norm of [p, a]
    lhs = _pair_spectra(p, a).residual <= tol.compat
    rhs = _hnorm_upto(1j * (p @ a - a @ p), tol.compat) <= tol.compat
    return lhs, rhs


@dataclass(frozen=True)
class FiveBlockDecomposition:
    """Projections onto the five blocks plus the compressed restrictions.

    ``bases[name]`` holds orthonormal columns spanning each block;
    ``blocks_a[name]`` is the compression of a to that block (and the same
    for b).  Ranks may be zero; those blocks are 0x0.
    """

    unit_a: np.ndarray
    unit_b: np.ndarray
    strict: np.ndarray
    null_a: np.ndarray
    null_b: np.ndarray
    bases: dict
    blocks_a: dict
    blocks_b: dict

    def projections(self) -> dict:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

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
    the strict block.  _reduced_blocks checks the reduction claim.
    """
    a, b, spectra = _certified_pair(a, b, tol)
    _require_compatible(spectra, tol)

    vals, vecs = np.linalg.eigh(a)
    one_a, zero_a = _levels(vals, tol)
    kernel, kvals = _eigh_on(b, vecs[:, zero_a])
    rest, rvals = _eigh_on(b, vecs[:, ~(one_a | zero_a)])
    one_k, _ = _levels(kvals, tol)
    one_r, zero_r = _levels(rvals, tol)
    bases = {
        "unit_a": vecs[:, one_a],
        "unit_b": np.hstack([kernel[:, one_k], rest[:, one_r]]),
        "strict": rest[:, ~(one_r | zero_r)],
        "null_a": kernel[:, ~one_k],
        "null_b": rest[:, zero_r],
    }

    blocks_a, blocks_b = _reduced_blocks(a, b, bases, tol)
    _verify_block_contents(blocks_a, blocks_b, tol)
    projs = {name: hermitize(v @ dagger(v)) for name, v in bases.items()}
    return FiveBlockDecomposition(**projs, bases=bases, blocks_a=blocks_a, blocks_b=blocks_b)


def _levels(vals, tol):
    """Masks of the eigenvalues at 1 and, of the others, at 0, within tol.spec."""
    one = vals >= 1.0 - tol.spec
    return one, ~one & (vals <= tol.spec)


def _eigh_on(x, w):
    """eigh of x compressed to the columns of w: (w times the eigenvectors,
    the eigenvalues)."""
    vals, vecs = np.linalg.eigh(hermitize(dagger(w) @ x @ w))
    return w @ vecs, vals


def _reduced_blocks(a, b, bases, tol):
    """The compressions of a and b to the five blocks, once the blocks are
    checked to reduce both.

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
    only when that does not settle them are they taken exactly.
    """
    v = np.hstack(list(bases.values()))
    owner = np.repeat(np.arange(len(bases)), [w.shape[1] for w in bases.values()])
    on_block = owner[:, None] == owner[None, :]
    gram = dagger(v) @ v - identity_like(v)
    ms = [hermitize(dagger(v) @ x @ v) for x in (a, b)]
    offs = [np.where(on_block, 0.0, m) for m in ms]
    for norm in (_fnorm, _hnorm):
        eps = norm(gram)
        bounds = [(1.0 + eps) * (norm(off) + 2.0 * eps * (1.0 + tol.spec)) for off in offs]
        if (1.0 + eps) * eps <= tol.proj and max(bounds) <= tol.block:
            break
    if (1.0 + eps) * eps > tol.proj:
        raise PostconditionFailure("five-block bases are not orthonormal, ||V*V - I|| = %.3e" % eps)
    for label, bound in zip("ab", bounds):
        if bound > tol.block:
            raise PostconditionFailure("blocks do not reduce %s: off-block bound %.3e" % (label, bound))
    return [{name: m[np.ix_(owner == k, owner == k)] for k, name in enumerate(bases)} for m in ms]


def _verify_block_contents(blocks_a, blocks_b, tol):
    checks = (
        ("unit_a", blocks_a, 1.0),
        ("unit_b", blocks_b, 1.0),
        ("null_a", blocks_a, 0.0),
        ("null_b", blocks_b, 0.0),
    )
    for name, side, target in checks:
        blk = side[name]
        if _hnorm_upto(blk - target * identity_like(blk), tol.block) > tol.block:
            raise PostconditionFailure("restriction to %s is not %r" % (name, target))
    sa, sb = blocks_a["strict"], blocks_b["strict"]
    va, vb = _factor_each(np.linalg.eigvalsh, sa, sb)
    if not (_strictness(va, tol) and _strictness(vb, tol)):
        raise PostconditionFailure("strict block has spectrum touching 0 or 1")
    inner = _pair_spectra(sa, sb).residual
    if inner > tol.compat:
        raise PostconditionFailure("strict block not absolutely compatible, residual %.3e" % inner)
