"""Numerical tolerances shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle for all validators and checks.

    All values are absolute unless a caller states otherwise; operators at the
    sizes the tests cover (n <= 16 throughout, single pairs up to n = 128,
    double precision) leave several digits of headroom over every default.
    Every value must be a positive finite number: a NaN would pass every
    `x > tol.*` gate.  spec must also be below 1/2, so that no eigenvalue
    is within spec of both 0 and 1.
    """

    herm: float = 1e-10      # max-norm asymmetry allowed in a Hermitian input
    spec: float = 1e-9       # slack on spectral membership tests (0/1 boundaries)
    proj: float = 1e-10      # operator-norm slack on idempotence / projection sums
    unit: float = 1e-10      # operator-norm slack on U*U = I
    cluster: float = 1e-8    # eigenvalues closer than cluster*max(1,|H|) share a block
    compat: float = 1e-8     # residual threshold for absolute compatibility
    block: float = 1e-8      # off-block mass allowed in the five-block decomposition
    canon: float = 1e-7      # reconstruction residual allowed for canonical forms
    geo: float = 1e-9        # slack for Poincare-sphere geometry checks

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                inside = 0.0 < value < float("inf")
            except (TypeError, ValueError):  # not a number
                inside = False
            if not inside:
                raise DomainError(f"tolerance {field.name!r} must be positive and finite, got {value}")
        if not self.spec < 0.5:
            raise DomainError(f"tolerance 'spec' must be below 0.5, got {self.spec}")

    def override(self, **kwargs: float) -> "Tolerances":
        unknown = sorted(set(kwargs) - {field.name for field in fields(self)})
        if unknown:
            raise DomainError("unknown tolerance %s" % ", ".join(map(repr, unknown)))
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT_TOL = Tolerances()
