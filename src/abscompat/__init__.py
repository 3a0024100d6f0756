"""Absolutely compatible pairs of positive contractions.

Checks the defining norm identity, decomposes strict pairs into a
canonical site-block form under a conjugating unitary, splits general
pairs into five invariant blocks, and maps the dimension-2 case onto
pivotal spheres inside the Poincare chart ball.

``import abscompat`` loads no submodule and no numpy: each public name
below loads its module on first use and is read from that module on every
access, so a rebinding of the module's name shows through the package.
"""

import sys as _sys
from importlib import import_module as _import_module

_EXPORTS = {
    "config": ("DEFAULT_TOL", "Tolerances"),
    "errors": (
        "AbscompatError", "BadMargin", "DegenerateSpec", "DetOutOfRange", "DimensionMismatch",
        "DomainError", "EmptyInput", "NegativeSpectrum", "NotAbsolutelyCompatible",
        "NotCommuting", "NotHermitian", "NotOnSphere", "NotProjection", "NotStrict",
        "NotStrictParams", "NotStrictProjection", "NotStrictUnitary", "NotUnitary",
        "OddDimension", "OutsideBall", "PairingFailure", "ParseError", "PostconditionFailure",
        "SpectralAmbiguity", "SumExceedsOne", "TraceNotOne", "UnknownSuite",
    ),
    "hermitian": (
        "dagger", "hermitize", "is_strict", "jordan_product", "op_norm", "require_hermitian",
    ),
    "compat": (
        "CompatReport", "FiveBlockDecomposition", "five_block_decompose", "is_abs_compatible",
        "is_orthogonal", "projection_compat_equiv",
    ),
    "canonical": (
        "CanonicalForm", "ExchangedPivotForm", "PIVOT_0", "PIVOT_1", "SiteBlockMatrix",
        "StrictProjectionParams", "StrictUnitaryParams", "canonicalize", "conjugate_to_pivot",
        "dilate_commuting_pair", "exchanged_pivot_form", "is_strict_projection",
        "is_strict_unitary", "pair_from_params", "params_from_strict_projection",
        "params_from_strict_unitary", "projection_pair_from_unitary",
        "strict_projection_from_params", "strict_unitary_from_params",
    ),
    "geometry": (
        "BALL_CENTER", "BALL_RADIUS", "GeometryReport", "PairSpec", "PivotalSphere",
        "SpheroidStats", "ball_to_sphere", "bloch_matrix", "bloch_point", "decompose_pair_m2",
        "geometry_report", "pair_from_projections", "pivotal_sphere",
        "sphere_to_ball", "spheroid_residual",
    ),
    "generate": (
        "derive_seed", "haar_unitary", "random_abscompat_pair", "random_commuting_strict_pair",
        "random_orthogonal_pair", "random_pair_params", "random_pair_spec", "random_projection",
        "random_rank_one_projection", "random_spheroid_partners", "random_strict_projection_params",
        "random_strict_unitary_params",
    ),
    "io": ("load_matrix", "matrix_from_json", "matrix_to_json", "save_matrix"),
}
_MODULE_OF = {name: __name__ + "." + module
              for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its submodule; a submodule of the table, imported."""
    module = _MODULE_OF.get(name)
    if module is not None:
        try:  # a loaded submodule skips the import machinery
            return getattr(_sys.modules[module], name)
        except (KeyError, AttributeError):  # not loaded, or still loading in another thread
            return getattr(_import_module(module), name)
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
