"""The package namespace: what ``import abscompat`` loads and what it exports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abscompat
import abscompat.compat

SRC = Path(abscompat.__file__).resolve().parent.parent

# the public names of abscompat, each with the submodule that defines it
EXPORTS = {
    "config": ["DEFAULT_TOL", "Tolerances"],
    "errors": [
        "AbscompatError", "BadMargin", "DegenerateSpec", "DetOutOfRange", "DimensionMismatch",
        "DomainError", "EmptyInput", "NegativeSpectrum", "NotAbsolutelyCompatible",
        "NotCommuting", "NotHermitian", "NotOnSphere", "NotProjection", "NotStrict",
        "NotStrictParams", "NotStrictProjection", "NotStrictUnitary", "NotUnitary",
        "OddDimension", "OutsideBall", "PairingFailure", "ParseError", "PostconditionFailure",
        "SpectralAmbiguity", "SumExceedsOne", "TraceNotOne", "UnknownSuite",
    ],
    "hermitian": [
        "dagger", "hermitize", "is_strict", "jordan_product", "op_norm", "require_hermitian",
    ],
    "compat": [
        "CompatReport", "FiveBlockDecomposition", "five_block_decompose", "is_abs_compatible",
        "is_orthogonal", "projection_compat_equiv",
    ],
    "canonical": [
        "CanonicalForm", "ExchangedPivotForm", "PIVOT_0", "PIVOT_1", "SiteBlockMatrix",
        "StrictProjectionParams", "StrictUnitaryParams", "canonicalize", "conjugate_to_pivot",
        "dilate_commuting_pair", "exchanged_pivot_form", "is_strict_projection",
        "is_strict_unitary", "pair_from_params", "params_from_strict_projection",
        "params_from_strict_unitary", "projection_pair_from_unitary",
        "strict_projection_from_params", "strict_unitary_from_params",
    ],
    "geometry": [
        "BALL_CENTER", "BALL_RADIUS", "GeometryReport", "PairSpec", "PivotalSphere",
        "SpheroidStats", "ball_to_sphere", "bloch_matrix", "bloch_point", "decompose_pair_m2",
        "geometry_report", "pair_from_projections", "pivotal_sphere",
        "sphere_to_ball", "spheroid_residual",
    ],
    "generate": [
        "derive_seed", "haar_unitary", "random_abscompat_pair", "random_commuting_strict_pair",
        "random_orthogonal_pair", "random_pair_params", "random_pair_spec", "random_projection",
        "random_rank_one_projection", "random_spheroid_partners", "random_strict_projection_params",
        "random_strict_unitary_params",
    ],
    "io": ["load_matrix", "matrix_from_json", "matrix_to_json", "save_matrix"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _loaded_after(code):
    """The abscompat modules, and whether numpy is loaded, after ``code``
    runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import sys, json\n%s\nprint(json.dumps([sorted(m for m in sys.modules "
             "if m.startswith('abscompat')), 'numpy' in sys.modules]))" % code)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import abscompat") == [["abscompat"], False]


def test_config_and_errors_load_without_numpy():
    modules, numpy = _loaded_after("from abscompat import DEFAULT_TOL, AbscompatError")
    assert modules == ["abscompat", "abscompat.config", "abscompat.errors"]
    assert not numpy


def test_a_name_loads_only_its_module_chain():
    modules, numpy = _loaded_after("import abscompat; abscompat.is_abs_compatible")
    assert modules == ["abscompat", "abscompat.compat", "abscompat.config",
                       "abscompat.errors", "abscompat.hermitian", "abscompat.io"]
    assert numpy


def test_the_cli_loads_numpy_random_only_to_draw(tmp_path):
    """import abscompat.cli leaves numpy.random unloaded, as the check and
    decompose commands never draw; gen pair loads it and still writes
    its pair."""
    probe = ("import json, sys, abscompat.cli\n"
             "before = 'numpy.random' in sys.modules\n"
             "code = abscompat.cli.run(['gen', 'pair', '--n', '4', '--out', sys.argv[1]])\n"
             "print(json.dumps([before, code, 'numpy.random' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "p")], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *meta, verdict = proc.stdout.splitlines()
    assert json.loads(verdict) == [False, 0, True]
    assert json.loads("\n".join(meta))["files"] == [str(tmp_path / "p_a.json"), str(tmp_path / "p_b.json")]
    assert all((tmp_path / name).is_file() for name in ("p_a.json", "p_b.json"))


def test_exports_are_the_eager_namespace():
    assert len(NAMES) == 91
    assert sorted(abscompat.__all__) == sorted([*EXPORTS, *(name for _, name in NAMES)])
    listed = set(dir(abscompat))
    for module, name in NAMES:
        defining = importlib.import_module("abscompat." + module)
        assert getattr(abscompat, name) is getattr(defining, name), name
        assert name in listed, name


def test_submodules_resolve_as_attributes():
    for module in EXPORTS:
        assert getattr(abscompat, module) is importlib.import_module("abscompat." + module)


def test_star_import_binds_every_export_and_submodule():
    ns = {}
    exec("from abscompat import *", ns)
    assert sorted(ns.keys() - {"__builtins__"}) == sorted(abscompat.__all__)
    for module, name in NAMES:
        assert ns[name] is getattr(importlib.import_module("abscompat." + module), name)
    for module in EXPORTS:
        assert ns[module] is importlib.import_module("abscompat." + module)


def test_private_helpers_are_not_public():
    assert not hasattr(abscompat, "importlib")
    assert not hasattr(abscompat, "sys")


def test_unknown_names_fail_as_before():
    with pytest.raises(AttributeError) as info:
        abscompat.nope
    assert str(info.value) == "module 'abscompat' has no attribute 'nope'"
    with pytest.raises(ImportError):
        exec("from abscompat import nope", {})


def test_a_rebound_module_name_shows_through_the_package(monkeypatch):
    original = abscompat.compat.is_abs_compatible

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(abscompat.compat, "is_abs_compatible", patched)
    assert abscompat.is_abs_compatible is patched
    monkeypatch.undo()
    assert abscompat.is_abs_compatible is original


def test_a_loaded_submodule_is_read_without_the_import_machinery(monkeypatch):
    hermitian = importlib.import_module("abscompat.hermitian")
    imported = []

    def import_module(name, package=None):
        imported.append(name)
        return hermitian

    monkeypatch.setattr(abscompat, "_import_module", import_module)
    assert abscompat.op_norm is hermitian.op_norm
    assert imported == []
    # a submodule still loading (in sys.modules, name not yet bound) goes
    # through the import machinery, which waits for it to finish
    monkeypatch.setitem(sys.modules, "abscompat.hermitian", type(sys)("abscompat.hermitian"))
    assert abscompat.op_norm is hermitian.op_norm
    assert imported == ["abscompat.hermitian"]
