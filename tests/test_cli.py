"""Exit codes, file schemas, and determinism of the command-line layer."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abscompat
from abscompat import cli
from abscompat.canonical import is_strict_projection, strict_projection_from_params
from abscompat.cli import run
from abscompat.compat import is_abs_compatible
from abscompat.generate import (
    haar_unitary, random_abscompat_pair, random_commuting_strict_pair, random_projection,
    random_strict_projection_params,
)
from abscompat.io import load_matrix, save_matrix
from abscompat.properties import REGISTRY

ROOT = Path(__file__).resolve().parent.parent
# pytest's filterwarnings does not reach a child process; this does
STRICT_WARNINGS = {"PYTHONWARNINGS": "error::RuntimeWarning"}

FIX_A = np.array([[0.25, 0.25], [0.25, 0.75]], dtype=complex)
FIX_B = np.array([[0.25, -0.25], [-0.25, 0.75]], dtype=complex)


@pytest.fixture
def fixture_files(tmp_path):
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    save_matrix(pa, FIX_A)
    save_matrix(pb, FIX_B)
    return str(pa), str(pb)


def test_check_fixture(fixture_files, tmp_path, capsys):
    pa, pb = fixture_files
    assert run(["check", pa, pb]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["compatible"] is True
    assert report["residual"] <= 1e-12


def test_check_incompatible(tmp_path):
    p = tmp_path / "half.json"
    save_matrix(p, 0.5 * np.eye(2, dtype=complex))
    assert run(["check", str(p), str(p)]) == 2


def test_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "entries": "nope"}')
    assert run(["check", str(bad), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00garbage",
    b'{"n": 1, "entries": [[[1' + b"0" * 400 + b', 0.0]]]}',
], ids=["not-utf8", "over-range-int"])
def test_check_unreadable_input_is_a_parse_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run(["check", str(bad), str(bad)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParseError"


def test_check_missing_args():
    assert run(["check"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "check" in capsys.readouterr().out


def test_decompose_fixture(fixture_files, tmp_path):
    pa, pb = fixture_files
    out = tmp_path / "cf.json"
    blocks = tmp_path / "blocks.json"
    assert run(["decompose", pa, pb, "--out", str(out), "--blocks", str(blocks)]) == 0
    cf = json.loads(out.read_text())
    assert cf["m"] == 1
    assert abs(cf["x0"][0] - 0.5) <= 1e-12
    assert cf["residual"] <= 1e-7
    fb = json.loads(blocks.read_text())
    assert set(fb["projections"]) == {"unit_a", "unit_b", "strict", "null_a", "null_b"}


def test_decompose_not_compatible(tmp_path):
    p = tmp_path / "e.json"
    save_matrix(p, np.diag([0.4, 0.6]).astype(complex))
    assert run(["decompose", str(p), str(p)]) == 2


def test_decompose_not_strict(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    save_matrix(p, np.diag([1.0, 0.0]).astype(complex))
    save_matrix(q, np.diag([0.0, 1.0]).astype(complex))
    assert run(["decompose", str(p), str(q)]) == 3


def test_gen_pair_then_check(tmp_path, capsys):
    prefix = str(tmp_path / "t")
    assert run(["gen", "pair", "--n", "4", "--seed", "1", "--out", prefix]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["seed"] == 1
    a = load_matrix(prefix + "_a.json")
    b = load_matrix(prefix + "_b.json")
    assert is_abs_compatible(a, b).compatible
    assert run(["check", prefix + "_a.json", prefix + "_b.json"]) == 0


def test_gen_and_decompose_same_seed_same_bytes(tmp_path):
    """Two processes with the same seed write byte-identical pair, blocks
    and canonical-form files."""
    src = Path(abscompat.__file__).resolve().parent.parent
    env = {**os.environ, **STRICT_WARNINGS, "PYTHONPATH": str(src)}
    outputs = []
    for k in (1, 2):
        d = tmp_path / str(k)
        d.mkdir()
        for argv in (["gen", "pair", "--n", "8", "--seed", "3", "--out", "g"],
                     ["decompose", "g_a.json", "g_b.json", "--blocks", "blocks.json",
                      "--out", "canon.json"]):
            proc = subprocess.run([sys.executable, "-m", "abscompat", *argv], cwd=d, env=env,
                                  capture_output=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
        outputs.append([(d / f).read_bytes()
                        for f in ("g_a.json", "g_b.json", "blocks.json", "canon.json")])
    assert outputs[0] == outputs[1]


def test_gen_strict_projection(tmp_path, capsys):
    prefix = str(tmp_path / "p")
    assert run(["gen", "projection", "--strict", "--sites", "3", "--out", prefix]) == 0
    capsys.readouterr()
    p = load_matrix(prefix + "_p.json")
    assert p.shape == (6, 6)
    assert is_strict_projection(p)


def test_gen_odd_dimension(tmp_path, capsys):
    assert run(["gen", "pair", "--n", "3", "--out", str(tmp_path / "x")]) == 1
    assert "OddDimension" in capsys.readouterr().err


def test_gen_takes_no_tolerances(tmp_path):
    """gen checks nothing against a tolerance, so a --tol-* flag is a
    usage error, not a silently ignored override."""
    assert run(["gen", "pair", "--tol-compat", "1e-6", "--out", str(tmp_path / "x")]) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["0.5", "0.6"])
def test_spec_of_half_or_more_exits_1(tmp_path, capsys, spec):
    """At spec >= 0.5 an eigenvalue could be within spec of both 0 and 1,
    so such a tolerance is a usage error."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, x in zip((a, b), random_abscompat_pair(4, 3)):
        save_matrix(path, x)
    assert run(["check", str(a), str(b), "--tol-spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "DomainError"
    assert error["message"] == "tolerance 'spec' must be below 0.5, got %s" % spec


def test_gen_commuting_and_unitary(tmp_path, capsys):
    prefix = str(tmp_path / "c")
    assert run(["gen", "commuting", "--n", "3", "--seed", "4", "--out", prefix]) == 0
    assert run(["gen", "unitary", "--n", "4", "--seed", "4", "--out", prefix]) == 0
    capsys.readouterr()
    u = load_matrix(prefix + "_u.json")
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


GEN_CASES = [
    (["pair", "--n", "6", "--seed", "5", "--margin", "0.2"],
     lambda: dict(zip("ab", random_abscompat_pair(6, 5, 0.2))), {"kind": "pair", "n": 6, "seed": 5}),
    (["commuting", "--n", "3", "--seed", "4", "--margin", "0.1"],
     lambda: dict(zip("ab", random_commuting_strict_pair(3, 4, 0.1))), {"kind": "commuting", "n": 3, "seed": 4}),
    (["unitary", "--n", "5", "--seed", "6"], lambda: {"u": haar_unitary(5, 6)},
     {"kind": "unitary", "n": 5, "seed": 6}),
    (["projection", "--n", "6", "--seed", "8"], lambda: {"p": random_projection(6, 3, 8)},
     {"kind": "projection", "n": 6, "strict": False, "seed": 8}),
    (["projection", "--n", "5", "--rank", "2", "--seed", "8"], lambda: {"p": random_projection(5, 2, 8)},
     {"kind": "projection", "n": 5, "strict": False, "seed": 8}),
    (["projection", "--strict", "--sites", "3", "--seed", "9", "--margin", "0.2"],
     lambda: {"p": strict_projection_from_params(random_strict_projection_params(3, 9, 0.2)).embed()},
     {"kind": "projection", "n": 6, "strict": True, "seed": 9}),
]


@pytest.mark.parametrize("argv, draw, meta", GEN_CASES,
                         ids=["pair", "commuting", "unitary", "projection", "rank", "strict"])
def test_gen_writes_the_library_draw(tmp_path, capsys, argv, draw, meta):
    """Each kind writes save_matrix of the library call with the same
    arguments, one file per matrix, and a meta line whose keys come in
    the order kind, n, [strict,] seed, files."""
    prefix = str(tmp_path / "g")
    assert run(["gen", *argv, "--out", prefix]) == 0
    want = draw()
    files = ["%s_%s.json" % (prefix, name) for name in want]
    out = json.loads(capsys.readouterr().out)
    assert list(out.items()) == list({**meta, "files": files}.items())
    (tmp_path / "want").mkdir()
    for path, (name, x) in zip(files, want.items()):
        save_matrix(tmp_path / "want" / name, x)
        assert Path(path).read_bytes() == (tmp_path / "want" / name).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([Path(f).name for f in files] + ["want"])


def test_geometry_fixture_flags(tmp_path):
    out = tmp_path / "geo.json"
    code = run([
        "geometry", "--pivot", "0,0,0", "--target", "0.5,0.5,0",
        "--index", "0.5", "--out", str(out),
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert max(blob["residuals"].values()) <= 1e-12
    assert blob["pivotal"]["center"] == [0.25, 0.0, 0.0]


def test_geometry_from_files(fixture_files, tmp_path):
    pa, pb = fixture_files
    out = tmp_path / "geo.json"
    assert run(["geometry", "--a", pa, "--b", pb, "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert abs(blob["pivotal"]["index"] - 0.5) <= 1e-9


def test_geometry_csv_samples(tmp_path):
    out = tmp_path / "geo.csv"
    code = run([
        "geometry", "--pivot", "0,0,0", "--target", "0.5,0.5,0", "--index", "0.5",
        "--sample", "64", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,x,y,z"
    samples = [ln for ln in lines if ln.startswith("sample_")]
    assert len(samples) == 64


def test_geometry_not_strict(tmp_path):
    p = tmp_path / "p.json"
    save_matrix(p, np.diag([1.0, 0.0]).astype(complex))
    assert run(["geometry", "--a", str(p), "--b", str(p)]) == 3


def test_geometry_missing_spec():
    assert run(["geometry", "--pivot", "0,0,0"]) == 1


def test_fuzz_suites_pass(tmp_path):
    for suite in REGISTRY:
        out = tmp_path / (suite + ".json")
        assert run(["fuzz", suite, "--trials", "6", "--seed", "5", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["passed"] == 6 and blob["failed"] == 0
        assert blob["worst_residual"]


def test_fuzz_unknown_suite(capsys):
    assert run(["fuzz", "bogus"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UnknownSuite"
    assert error["message"] == "suite 'bogus' not among %s" % sorted(REGISTRY)


def test_cli_import_does_not_load_the_registry():
    """Only fuzz reads the property registry, so importing the CLI, as every
    check, decompose and gen process does, leaves abscompat.properties
    unloaded."""
    src = Path(abscompat.__file__).resolve().parent.parent
    env = {**os.environ, **STRICT_WARNINGS, "PYTHONPATH": str(src)}
    code = "import sys, abscompat.cli; print('abscompat.properties' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fuzz_deterministic_bytes(tmp_path):
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for suite in REGISTRY:
        run(["fuzz", suite, "--trials", "3", "--seed", "77", "--out", str(o1)])
        run(["fuzz", suite, "--trials", "3", "--seed", "77", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes(), suite


def test_every_property_has_an_acceptance_criterion():
    from test_acceptance import ENTRIES

    assert set(ENTRIES.values()) == set(REGISTRY)


def test_fuzz_failure_bundle(tmp_path):
    out = tmp_path / "r.json"
    bundle = tmp_path / "boom.fail.json"
    code = run([
        "fuzz", "compat", "--trials", "3", "--seed", "9",
        "--tol-compat", "1e-17", "--out", str(out), "--fail-out", str(bundle),
    ])
    assert code == 4
    blob = json.loads(bundle.read_text())
    assert blob["suite"] == "compat"
    # the bundle replays: the recorded instance reproduces the violation
    from abscompat.config import DEFAULT_TOL
    from abscompat.io import matrix_from_json

    a = matrix_from_json(blob["matrices"]["a"])
    b = matrix_from_json(blob["matrices"]["b"])
    rep = is_abs_compatible(a, b, DEFAULT_TOL.override(compat=1e-17))
    assert not rep.compatible


def test_an_override_does_not_outlive_its_call(tmp_path, monkeypatch):
    """run parses with one parser per process, so a --tol-compat of one
    fuzz call must not reach the next call, which sees the default, and a
    command patched after the parser was built still runs."""
    out, bundle = tmp_path / "r.json", tmp_path / "f.json"
    argv = ["fuzz", "compat", "--trials", "3", "--seed", "9", "--out", str(out), "--fail-out", str(bundle)]
    assert run(argv + ["--tol-compat", "1e-17"]) == 4
    assert json.loads(out.read_text())["failed"] == 3
    assert run(argv) == 0
    assert json.loads(out.read_text())["failed"] == 0
    assert cli._parser() is cli._parser() and cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert run(["check", "a.json", "b.json"]) == 7


@pytest.mark.parametrize("argv, a, b, error", [
    (["geometry", "--a", "A", "--b", "B", "--tol-compat", "10"],
     np.diag([0.3, 0.6]), np.diag([0.5, 0.5]), "SpectralAmbiguity"),
    (["decompose", "A", "B", "--tol-compat", "2"],
     0.5 * np.eye(2), 0.5 * np.eye(2), "PairingFailure"),
    (["decompose", "A", "B", "--tol-canon", "1e-30"],
     *random_abscompat_pair(4, 3), "PostconditionFailure"),
    (["geometry", "--a", "A", "--b", "B", "--tol-geo", "1e-30"],
     *random_abscompat_pair(2, 3), "PostconditionFailure"),
], ids=["spectral-ambiguity", "pairing-failure", "postcondition-failure", "round-trip-failure"])
def test_structural_failures_exit_4(tmp_path, capsys, argv, a, b, error):
    files = {"A": tmp_path / "a.json", "B": tmp_path / "b.json"}
    save_matrix(files["A"], a)
    save_matrix(files["B"], b)
    assert run([str(files.get(arg, arg)) for arg in argv]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == error


def _assert_help(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: abscompat")
    assert "check" in proc.stdout


def test_console_script_help():
    """The declared ``abscompat`` entry point and ``python -m abscompat``
    start the CLI and exit 0.

    The entry point is read from ``pyproject.toml`` and called in a child
    interpreter the way an installed console-script wrapper calls it, so the
    check needs no install; an installed script on PATH is run as well.
    """
    src = Path(abscompat.__file__).resolve().parent.parent
    env = {**os.environ, **STRICT_WARNINGS, "PYTHONPATH": str(src)}
    _assert_help([sys.executable, "-m", "abscompat", "--help"], env)

    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["abscompat"]
    mod, func = target.split(":")
    code = (
        "import sys, importlib; "
        f"sys.exit(getattr(importlib.import_module({mod!r}), {func!r})())"
    )
    _assert_help([sys.executable, "-c", code, "--help"], env)

    script = shutil.which("abscompat")
    if script is not None:
        _assert_help([script, "--help"], {**os.environ, **STRICT_WARNINGS})
