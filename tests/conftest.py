"""A log of the numpy.linalg calls a test makes, for the tests that count
factorizations or compare their arguments and results."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

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
