"""Command-line surface over JSON matrix files.

Subcommands: check (compatibility report), decompose (canonical form,
optionally the five-block decomposition), gen (seeded instances),
geometry (Poincare-sphere report for 2x2 pairs), fuzz (the property
suites of ``properties.REGISTRY``).

Exit codes: 0 success, 1 usage or parse problem, 2 not absolutely
compatible, 3 strictness violation, 4 structural failure.
"""

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .canonical import canonicalize, strict_projection_from_params
from .compat import five_block_decompose, is_abs_compatible
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError, NotAbsolutelyCompatible, NotStrict, NotStrictParams, NotStrictProjection,
    NotStrictUnitary, PairingFailure, ParseError, PostconditionFailure, SpectralAmbiguity,
    UnknownSuite,
)
from .generate import (
    haar_unitary, random_abscompat_pair, random_commuting_strict_pair, random_projection,
    random_strict_projection_params,
)
from .geometry import bloch_matrix, decompose_pair_m2, geometry_report
from .io import dump_json, json_text, load_matrix, matrix_to_json, save_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPATIBLE = 2
EXIT_NOT_STRICT = 3
EXIT_STRUCTURAL = 4

_ERROR_EXITS = (
    ((NotAbsolutelyCompatible,), EXIT_INCOMPATIBLE),
    ((NotStrict, NotStrictParams, NotStrictUnitary, NotStrictProjection), EXIT_NOT_STRICT),
    ((PairingFailure, PostconditionFailure, SpectralAmbiguity), EXIT_STRUCTURAL),
)


def exit_code_for(exc: AbscompatError) -> int:
    for kinds, code in _ERROR_EXITS:
        if isinstance(exc, kinds):
            return code
    return EXIT_USAGE


_TOL_FIELDS = tuple(field.name for field in dataclasses.fields(Tolerances))


def _tol_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    for name in _TOL_FIELDS:
        p.add_argument("--tol-%s" % name, type=float, default=None, metavar="X",
                       help="override the %s tolerance" % name)
    return p


def _tolerances(args) -> Tolerances:
    return DEFAULT_TOL.override(**{name: getattr(args, "tol_%s" % name) for name in _TOL_FIELDS})


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload) -> None:
    _write_text(args, json_text(payload))


def cmd_check(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    report = is_abs_compatible(a, b, tol)
    _emit(args, {
        "n": int(a.shape[0]),
        "residual": report.residual,
        "compatible": report.compatible,
        "tolerance": report.tolerance,
    })
    return EXIT_OK if report.compatible else EXIT_INCOMPATIBLE


def cmd_decompose(args) -> int:
    tol = _tolerances(args)
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    cf = canonicalize(a, b, tol)
    payload = cf.to_json()
    payload["residual"] = cf.residual
    if args.blocks:
        dump_json(args.blocks, five_block_decompose(a, b, tol).to_json())
    _emit(args, payload)
    return EXIT_OK


def cmd_gen(args) -> int:
    prefix = args.out or "gen"
    meta = {"kind": args.kind, "n": args.n}
    if args.kind in ("pair", "commuting"):
        draw = random_abscompat_pair if args.kind == "pair" else random_commuting_strict_pair
        mats = dict(zip("ab", draw(args.n, args.seed, args.margin)))
    elif args.kind == "unitary":
        mats = {"u": haar_unitary(args.n, args.seed)}
    else:
        if args.strict:
            params = random_strict_projection_params(args.sites, args.seed, args.margin)
            p = strict_projection_from_params(params).embed()
        else:
            rank = args.rank if args.rank is not None else args.n // 2
            p = random_projection(args.n, rank, args.seed)
        mats = {"p": p}
        meta.update(n=int(p.shape[0]), strict=bool(args.strict))
    meta["seed"] = args.seed
    meta["files"] = ["%s_%s.json" % (prefix, name) for name in mats]
    for path, x in zip(meta["files"], mats.values()):
        save_matrix(path, x)
    sys.stdout.write(json_text(meta))
    return EXIT_OK


def _parse_point(text: str, label: str) -> np.ndarray:
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError("%s must be X,Y,Z" % label) from exc
    if len(parts) != 3:
        raise ParseError("%s must have exactly three coordinates" % label)
    return np.asarray(parts)


def _sphere_samples(sphere, count: int) -> np.ndarray:
    # Fibonacci lattice on the pivotal sphere, deterministic
    i = np.arange(count, dtype=float) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    dirs = np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
    )
    return sphere.center + sphere.radius * dirs


def cmd_geometry(args) -> int:
    if args.sample < 0:
        raise ParseError("--sample must be at least 0")
    tol = _tolerances(args)
    if args.a and args.b:
        spec = decompose_pair_m2(load_matrix(args.a), load_matrix(args.b), tol)
        pivot, target, index = spec.pivot, spec.target, spec.index
    elif args.pivot and args.target and args.index is not None:
        pivot = bloch_matrix(_parse_point(args.pivot, "--pivot"), tol)
        target = bloch_matrix(_parse_point(args.target, "--target"), tol)
        index = args.index
    else:
        raise ParseError("geometry needs --a/--b files or --pivot/--target/--index")
    report = geometry_report(pivot, target, index, tol)
    samples = _sphere_samples(report.sphere, args.sample) if args.sample > 0 else None
    if args.format == "csv":
        rows = list(report.points.items())
        if samples is not None:
            rows += [("sample_%d" % k, pt) for k, pt in enumerate(samples)]
        lines = ["name,x,y,z"] + ["%s,%r,%r,%r" % (name, *map(float, pt)) for name, pt in rows]
        _write_text(args, "\n".join(lines) + "\n")
    else:
        payload = report.to_json()
        if samples is not None:
            payload["samples"] = [pt.tolist() for pt in samples]
        _emit(args, payload)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    # imported here, so that the other subcommands do not compile it
    from .properties import REGISTRY, run as run_property

    tol = _tolerances(args)
    if args.suite not in REGISTRY:
        raise UnknownSuite("suite %r not among %s" % (args.suite, sorted(REGISTRY)))
    if args.trials < 1:
        raise ParseError("--trials must be at least 1")
    out = run_property(REGISTRY[args.suite], args.trials, args.seed, tol)
    if out.failures:
        matrices = {name: matrix_to_json(x) for name, x in (out.first_inputs or {}).items()
                    if isinstance(x, np.ndarray) and x.ndim == 2}
        bundle = dict(out.failures[0], suite=args.suite, matrices=matrices)
        dump_json(args.fail_out or (args.suite + ".fail.json"), bundle)
    _emit(args, {
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "passed": args.trials - len(out.failures),
        "failed": len(out.failures),
        "worst_residual": out.worst,
        "failures": out.failures[:10],
    })
    return EXIT_OK if not out.failures else EXIT_STRUCTURAL


def build_parser() -> argparse.ArgumentParser:
    tolp = _tol_parent()
    parser = argparse.ArgumentParser(
        prog="abscompat",
        description="Absolutely compatible pairs of effects: checks, canonical "
                    "forms, and Poincare-sphere geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[tolp], help="compatibility report for two effects")
    p.add_argument("a", help="matrix JSON file")
    p.add_argument("b", help="matrix JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("decompose", parents=[tolp],
                       help="canonical form of a strict compatible pair")
    p.add_argument("a", help="matrix JSON file")
    p.add_argument("b", help="matrix JSON file")
    p.add_argument("--blocks", metavar="PATH",
                   help="also write the five-block split of the strict pair that decompose accepts")
    p.add_argument("--out", help="write the canonical form here instead of stdout")

    p = sub.add_parser("gen", help="write seeded random instances")
    p.add_argument("kind", choices=("pair", "commuting", "unitary", "projection"))
    p.add_argument("--n", type=int, default=4, help="matrix dimension")
    p.add_argument("--sites", type=int, default=2, help="site count for --strict projections")
    p.add_argument("--rank", type=int, default=None, help="projection rank (default n/2)")
    p.add_argument("--strict", action="store_true", help="strict site-block projection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--out", metavar="PREFIX", help="output path prefix (default 'gen')")

    p = sub.add_parser("geometry", parents=[tolp],
                       help="Poincare-sphere report for a dimension-2 pair")
    p.add_argument("--a", help="matrix JSON file (with --b)")
    p.add_argument("--b", help="matrix JSON file (with --a)")
    p.add_argument("--pivot", metavar="X,Y,Z", help="pivot point on the chart ball")
    p.add_argument("--target", metavar="X,Y,Z", help="target point on the chart ball")
    p.add_argument("--index", type=float, help="mixing index in (0, 1)")
    p.add_argument("--sample", type=int, default=0, help="sphere sample point count")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("fuzz", parents=[tolp], help="run a property suite over seeded trials")
    p.add_argument("suite", help="a property of abscompat.properties.REGISTRY, such as compat")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fail-out", help="failure bundle path (default <suite>.fail.json)")
    p.add_argument("--out")

    return parser


# run parses with one parser per process; build_parser() makes a fresh one
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # looked up per call, so the cached parser runs the module's
        # cmd_<command> as it is now, a wrapped or patched one included
        return globals()["cmd_" + args.command](args)
    except AbscompatError as exc:
        sys.stderr.write(json_text({"error": type(exc).__name__, "message": str(exc)}))
        return exit_code_for(exc)
    except OSError as exc:
        sys.stderr.write(json_text({"error": "OSError", "message": str(exc)}))
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
