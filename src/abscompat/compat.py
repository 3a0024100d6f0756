"""Absolute compatibility of effects and the five-block decomposition.

Two effects a, b are absolutely compatible when |a-b| + |1-a-b| = 1.
For such a pair the space splits into five mutually orthogonal blocks:
one where a is the identity, one where b is, one where a vanishes, one
where b vanishes, and a strict remainder.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionMismatch, NotAbsolutelyCompatible, PostconditionFailure
from .hermitian import (
    _compose,
    _effects,
    _hnorm,
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
    """The compatibility residual of a pair and the factorizations behind it."""

    residual: float
    abs_diff: np.ndarray  # |a - b|
    abs_diff_vals: np.ndarray  # spectrum of |a - b|, ascending
    rest: tuple  # eigh of 1 - a - b


def _pair_spectra(a, b) -> _PairSpectra:
    """|| |a-b| + |1-a-b| - 1 || from one eigh each of a - b and 1 - a - b.

    The operands are put in a canonical order before any floating-point
    work, so the residual is symmetric in (a, b) to the last bit.
    """
    if b.tobytes() < a.tobytes():
        a, b = b, a
    one = identity_like(a)
    dvals, dvecs = np.linalg.eigh(a - b)
    zvals, zvecs = rest = np.linalg.eigh(one - a - b)
    abs_diff = _compose(np.abs(dvals), dvecs)
    residual = _hnorm(abs_diff + _compose(np.abs(zvals), zvecs) - one)
    return _PairSpectra(residual, abs_diff, np.sort(np.abs(dvals)), rest)


def _require_compatible(a, b, tol: Tolerances) -> _PairSpectra:
    spectra = _pair_spectra(a, b)
    if spectra.residual > tol.compat:
        raise NotAbsolutelyCompatible("residual %.3e > %.3e" % (spectra.residual, tol.compat))
    return spectra


def is_abs_compatible(a, b, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Residual ||  |a-b| + |1-a-b| - 1  ||_op and the pass/fail flag.

    The report is symmetric in (a, b) by construction: arguments are put
    in a canonical order before any floating-point work.
    """
    (a, _), (b, _) = _effects(a, b, tol)
    res = _pair_spectra(a, b).residual
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
    rhs = _hnorm(1j * (p @ a - a @ p)) <= tol.compat
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
    null_b.  Each is cut out of the complement W of the earlier ones by one
    eigh of W* x W: for x >= 0 the kernel of x inside ran W is W ker(W* x W),
    and the unit eigenspace of an effect x is the kernel of 1 - x >= 0.
    The rest is the strict block.
    """
    (a, va), (b, vb) = _effects(a, b, tol)
    _require_compatible(a, b, tol)

    bases = dict.fromkeys(BLOCK_NAMES)
    rest = identity_like(a)
    for name, x, at_one in (("unit_a", a, True), ("unit_b", b, True),
                            ("null_a", a, False), ("null_b", b, False)):
        vals, vecs = np.linalg.eigh(hermitize(dagger(rest) @ x @ rest))
        hit = vals >= 1.0 - tol.spec if at_one else vals <= tol.spec
        bases[name], rest = rest @ vecs[:, hit], rest @ vecs[:, ~hit]
    bases["strict"] = rest

    blocks_a, blocks_b = _reduced_blocks(a, b, va, vb, bases, tol)
    _verify_block_contents(blocks_a, blocks_b, tol)
    projs = {name: hermitize(v @ dagger(v)) for name, v in bases.items()}
    return FiveBlockDecomposition(**projs, bases=bases, blocks_a=blocks_a, blocks_b=blocks_b)


def _reduced_blocks(a, b, va, vb, bases, tol):
    """The compressions of a and b to the five blocks, once the blocks are
    checked to reduce both.

    Let V be the bases side by side, eps = ||V*V - I|| and, for x = a, b,
    delta the off-block mass of V*xV.  Then ||V||^2 <= 1 + eps and:
      - the projections V_k V_k* sum to VV*, and ||VV* - I|| = eps;
      - each is idempotent and any two are orthogonal up to (1 + eps) eps;
      - each commutes with x, and the blocks rebuild x, up to
        (1 + eps) (delta + 2 eps ||x||).
    So the two checks below enforce the sum, idempotence, orthogonality,
    commutation and reconstruction postconditions at tol.proj and
    tol.block.
    """
    v = np.hstack(list(bases.values()))
    eps = _hnorm(dagger(v) @ v - identity_like(v))
    if (1.0 + eps) * eps > tol.proj:
        raise PostconditionFailure("five-block bases are not orthonormal, ||V*V - I|| = %.3e" % eps)
    owner = np.repeat(np.arange(len(bases)), [w.shape[1] for w in bases.values()])
    on_block = owner[:, None] == owner[None, :]
    blocks = []
    for label, x, vals in (("a", a, va), ("b", b, vb)):
        m = hermitize(dagger(v) @ x @ v)
        off = _hnorm(np.where(on_block, 0.0, m))
        bound = (1.0 + eps) * (off + 2.0 * eps * float(np.max(np.abs(vals), initial=0.0)))
        if bound > tol.block:
            raise PostconditionFailure("blocks do not reduce %s: off-block bound %.3e" % (label, bound))
        blocks.append({name: m[np.ix_(owner == k, owner == k)] for k, name in enumerate(bases)})
    return blocks


def _verify_block_contents(blocks_a, blocks_b, tol):
    checks = (
        ("unit_a", blocks_a, 1.0),
        ("unit_b", blocks_b, 1.0),
        ("null_a", blocks_a, 0.0),
        ("null_b", blocks_b, 0.0),
    )
    for name, side, target in checks:
        blk = side[name]
        if _hnorm(blk - target * identity_like(blk)) > tol.block:
            raise PostconditionFailure("restriction to %s is not %r" % (name, target))
    sa, sb = blocks_a["strict"], blocks_b["strict"]
    if not (_strictness(np.linalg.eigvalsh(sa), tol) and _strictness(np.linalg.eigvalsh(sb), tol)):
        raise PostconditionFailure("strict block has spectrum touching 0 or 1")
    inner = _pair_spectra(sa, sb).residual
    if inner > tol.compat:
        raise PostconditionFailure("strict block not absolutely compatible, residual %.3e" % inner)
