"""A log of the numpy.linalg calls a test makes, for the tests that count
factorizations or compare their arguments and results; the two-eigh
compatibility residual that the tests take as the computed exact one,
the Sylvester bound that is reported in its place on a pair the bound
certifies, and the operator norm of a Hermitian matrix."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from abscompat import compat
from abscompat.hermitian import dagger, hermitize, identity_like

LINALG = ("eigh", "eigvalsh", "svd", "qr", "det", "norm")


@dataclass
class Call:
    """One call: name is "norm2" for the spectral norm of matrices, which
    is an svd; arg is a copy of the first argument."""

    name: str
    arg: np.ndarray
    result: object = None


class LinalgLog(list):
    """The calls since the log started or was last cleared, in order."""

    def of(self, *names) -> list:
        return [call for call in self if call.name in names]

    def counts(self, *names) -> dict:
        return {name: len(self.of(name)) for name in names}

    def matrices(self, *names) -> int:
        """How many matrices the calls of names took, over leading axes."""
        return sum(math.prod(call.arg.shape[:-2]) for call in self.of(*names))


@pytest.fixture
def linalg_log(monkeypatch) -> LinalgLog:
    """Logs each call of the LINALG functions, as it is made."""
    log = LinalgLog()
    for name in LINALG:
        def spy(x, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            order = args[0] if args else kwargs.get("ord")
            call = Call("norm2" if _name == "norm" and order == 2 and np.ndim(x) >= 2 else _name, np.array(x))
            log.append(call)
            call.result = _fn(x, *args, **kwargs)
            return call.result
        monkeypatch.setattr(np.linalg, name, spy)
    return log


def _two_call_residual(a, b):
    """The compatibility residual of one pair from one eigh of a-b and one
    of 1-a-b, each taken alone, and one eigvalsh of the excess: the
    computed exact residual, which compat._pair_spectra reports, bit for
    bit, wherever it exceeds the bound."""
    if b.tobytes() < a.tobytes():
        a, b = b, a
    one = np.eye(len(a), dtype=complex)
    dvals, dvecs = np.linalg.eigh(a - b)
    zvals, zvecs = np.linalg.eigh(one - a - b)
    abs_diff = hermitize((dvecs * np.abs(dvals)) @ dagger(dvecs))
    rest = hermitize((zvecs * np.abs(zvals)) @ dagger(zvecs))
    return float(np.max(np.abs(np.linalg.eigvalsh(abs_diff + rest - one))))


def _sylvester_certificate(a, b, tol):
    """The Sylvester bound on the compatibility residual of the Hermitian
    pair (a, b), in its canonical order, from its eigh of 1-a-b, and
    whether that bound certifies the pair within tol.compat: the residual
    compat._pair_spectra reports, bit for bit, where it does."""
    a, b = compat._canonical_order(a, b)
    zvals, zvecs = np.linalg.eigh(identity_like(a) - a - b)
    bound, certified = compat._sylvester_bounds(a, b, zvals, zvecs, tol.compat)
    return float(bound), bool(certified)


def _eig_norm(h):
    """The operator norm of the Hermitian h, or of each matrix of a stack
    of them: its largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
