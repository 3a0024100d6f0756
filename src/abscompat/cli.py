"""Command-line surface over JSON matrix files.

Subcommands: check (compatibility report), decompose (canonical form,
optionally the five-block decomposition), gen (seeded instances),
geometry (Poincare-sphere report for 2x2 pairs), fuzz (property suites).

Exit codes: 0 success, 1 usage or parse problem, 2 not absolutely
compatible, 3 strictness violation, 4 structural failure.
"""

import argparse
import json
import sys

import numpy as np

from .canonical import (
    canonicalize,
    exchanged_pivot_form,
    pair_from_params,
    strict_projection_from_params,
)
from .compat import five_block_decompose, is_abs_compatible, projection_compat_equiv
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    AbscompatError,
    NotAbsolutelyCompatible,
    NotStrict,
    NotStrictParams,
    NotStrictProjection,
    NotStrictUnitary,
    PairingFailure,
    ParseError,
    PostconditionFailure,
    SpectralAmbiguity,
    UnknownSuite,
)
from .generate import (
    derive_seed,
    haar_unitary,
    random_abscompat_pair,
    random_commuting_projection_effect,
    random_commuting_strict_pair,
    random_orthogonal_pair,
    random_pair_params,
    random_pair_spec,
    random_projection,
    random_spheroid_partners,
    random_strict_effect,
    random_strict_projection_params,
)
from .geometry import (
    ball_to_sphere,
    bloch_matrix,
    bloch_point,
    decompose_pair_m2,
    geometry_report,
    pair_from_projections,
    sphere_to_ball,
    spheroid_residual,
)
from .hermitian import dagger, hermitize, op_norm
from .io import dump_json, load_matrix, matrix_to_json, save_matrix

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


_TOL_FIELDS = ("herm", "spec", "proj", "unit", "cluster", "compat", "block", "canon", "geo")


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
    _write_text(args, json.dumps(payload, indent=2) + "\n")


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
    seed = args.seed
    if args.kind == "pair":
        a, b = random_abscompat_pair(args.n, seed, args.margin)
        files = [prefix + "_a.json", prefix + "_b.json"]
        save_matrix(files[0], a)
        save_matrix(files[1], b)
        meta = {"kind": "pair", "n": args.n}
    elif args.kind == "commuting":
        a, b = random_commuting_strict_pair(args.n, seed, args.margin)
        files = [prefix + "_a.json", prefix + "_b.json"]
        save_matrix(files[0], a)
        save_matrix(files[1], b)
        meta = {"kind": "commuting", "n": args.n}
    elif args.kind == "unitary":
        u = haar_unitary(args.n, seed)
        files = [prefix + "_u.json"]
        save_matrix(files[0], u)
        meta = {"kind": "unitary", "n": args.n}
    else:
        if args.strict:
            params = random_strict_projection_params(args.sites, seed, args.margin)
            p = strict_projection_from_params(params).embed()
        else:
            rank = args.rank if args.rank is not None else args.n // 2
            p = random_projection(args.n, rank, seed)
        files = [prefix + "_p.json"]
        save_matrix(files[0], p)
        meta = {"kind": "projection", "n": int(p.shape[0]), "strict": bool(args.strict)}
    meta["seed"] = seed
    meta["files"] = files
    sys.stdout.write(json.dumps(meta, indent=2) + "\n")
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
        lines = ["name,x,y,z"]
        for name, pt in report.points.items():
            lines.append("%s,%r,%r,%r" % (name, float(pt[0]), float(pt[1]), float(pt[2])))
        if samples is not None:
            for k, pt in enumerate(samples):
                lines.append("sample_%d,%r,%r,%r" % (k, float(pt[0]), float(pt[1]), float(pt[2])))
        _write_text(args, "\n".join(lines) + "\n")
    else:
        payload = report.to_json()
        if samples is not None:
            payload["samples"] = [pt.tolist() for pt in samples]
        _emit(args, payload)
    return EXIT_OK


def _suite_compat(seed, tol, record):
    n = (2, 4, 8)[seed % 3]
    a, b = random_abscompat_pair(n, derive_seed(seed, 1), 0.1)
    record["a"], record["b"] = matrix_to_json(a), matrix_to_json(b)
    fwd = is_abs_compatible(a, b, tol)
    rev = is_abs_compatible(b, a, tol)
    oa, ob = random_orthogonal_pair(n, derive_seed(seed, 2), 0.1)
    ortho = is_abs_compatible(oa, ob, tol)
    sum_excess = max(0.0, float(np.linalg.eigvalsh(oa + ob)[-1]) - 1.0)
    five_block_decompose(oa, ob, tol)
    return {
        "pair_residual": (fwd.residual, tol.compat),
        "symmetry": (abs(fwd.residual - rev.residual), 0.0),
        "orthogonal_product": (op_norm(oa @ ob), tol.compat),
        "orthogonal_residual": (ortho.residual, tol.compat),
        "sum_excess": (sum_excess, tol.spec),
    }


def _suite_canonical(seed, tol, record):
    n = (2, 4, 8)[seed % 3]
    x0, params, u = random_pair_params(n, derive_seed(seed, 1), 0.1)
    base_a, base_b = pair_from_params(x0, params, tol)
    a = hermitize(u @ base_a @ dagger(u))
    b = hermitize(u @ base_b @ dagger(u))
    record["a"], record["b"] = matrix_to_json(a), matrix_to_json(b)
    cf = canonicalize(a, b, tol)
    ra, rb = cf.reconstruct()
    recon = max(op_norm(ra - a), op_norm(rb - b))
    x0_diff = float(np.max(np.abs(np.sort(x0) - cf.x0)))
    ex = exchanged_pivot_form(cf, tol)
    ea, eb = ex.reconstruct()
    ex_res = max(op_norm(ea - ra), op_norm(eb - rb))
    return {
        "reconstruction": (recon, tol.canon),
        "x0_multiset": (x0_diff, 1e-9),
        "pivot_exchange": (ex_res, tol.canon),
    }


def _suite_m2(seed, tol, record):
    pivot, target, index = random_pair_spec(derive_seed(seed, 1))
    a, b = pair_from_projections(pivot, target, index, tol)
    record["a"], record["b"] = matrix_to_json(a), matrix_to_json(b)
    spec = decompose_pair_m2(a, b, tol)
    ra, rb = pair_from_projections(spec.pivot, spec.target, spec.index, tol)
    return {
        "index_error": (abs(spec.index - index), 1e-9),
        "pivot_error": (op_norm(spec.pivot - pivot), 1e-9),
        "target_error": (op_norm(spec.target - target), 1e-9),
        "roundtrip": (max(op_norm(ra - a), op_norm(rb - b)), 1e-9),
    }


def _suite_geometry(seed, tol, record):
    pivot, target, index = random_pair_spec(derive_seed(seed, 1))
    a, b = pair_from_projections(pivot, target, index, tol)
    record["a"], record["b"] = matrix_to_json(a), matrix_to_json(b)
    report = geometry_report(pivot, target, index, tol)
    worst = max(report.residuals.values())
    c_pt = bloch_point(a, tol)
    r_pt, _ = sphere_to_ball(report.sphere, c_pt, tol)
    bij = float(np.linalg.norm(r_pt - bloch_point(target, tol)))
    c2, d2 = ball_to_sphere(report.sphere, r_pt, tol)
    inv = max(
        float(np.linalg.norm(c2 - c_pt)),
        float(np.linalg.norm(d2 - bloch_point(b, tol))),
    )
    partners = random_spheroid_partners(a, 8, derive_seed(seed, 2), tol)
    stats = spheroid_residual(a, partners, tol)
    return {
        "report": (worst, tol.geo),
        "bijection": (bij, tol.geo),
        "bijection_inverse": (inv, tol.geo),
        "spheroid_spread": (stats.relative_spread, 1e-8),
    }


def _suite_equivalences(seed, tol, record):
    n = (2, 4, 8)[seed % 3]
    oa, ob = random_orthogonal_pair(n, derive_seed(seed, 1), 0.1)
    record["a"], record["b"] = matrix_to_json(oa), matrix_to_json(ob)
    fwd = is_abs_compatible(oa, ob, tol)
    p, a = random_commuting_projection_effect(n, derive_seed(seed, 2), 0.1)
    lhs, rhs = projection_compat_equiv(p, a, tol)
    p2 = random_projection(n, 1 + seed % (n - 1), derive_seed(seed, 3))
    a2 = random_strict_effect(n, derive_seed(seed, 4), 0.1)
    lhs2, rhs2 = projection_compat_equiv(p2, a2, tol)
    return {
        "orthogonal_compatible": (fwd.residual, tol.compat),
        "orthogonal_product": (op_norm(oa @ ob), tol.compat),
        "criterion_commuting": (0.0 if lhs == rhs else 1.0, 0.0),
        "criterion_generic": (0.0 if lhs2 == rhs2 else 1.0, 0.0),
    }


SUITES = {
    "compat": _suite_compat,
    "canonical": _suite_canonical,
    "m2": _suite_m2,
    "geometry": _suite_geometry,
    "equivalences": _suite_equivalences,
}


def cmd_fuzz(args) -> int:
    tol = _tolerances(args)
    if args.suite not in SUITES:
        raise UnknownSuite("suite %r not among %s" % (args.suite, sorted(SUITES)))
    if args.trials < 1:
        raise ParseError("--trials must be at least 1")
    fn = SUITES[args.suite]
    worst = {}
    failures = []
    bundle = None
    for i in range(args.trials):
        s = derive_seed(args.seed, i)
        record = {}
        entry = None
        try:
            results = fn(s, tol, record)
            for name, (residual, _) in results.items():
                if name not in worst or residual > worst[name]:
                    worst[name] = residual
            bad = {k: r for k, (r, lim) in results.items() if r > lim}
            if bad:
                entry = {"trial": i, "seed": s, "violations": bad}
        except AbscompatError as exc:
            entry = {"trial": i, "seed": s, "error": "%s: %s" % (type(exc).__name__, exc)}
        if entry is not None:
            failures.append(entry)
            if bundle is None:
                bundle = dict(entry)
                bundle["suite"] = args.suite
                bundle["matrices"] = record
    if bundle is not None:
        dump_json(args.fail_out or (args.suite + ".fail.json"), bundle)
    _emit(args, {
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "passed": args.trials - len(failures),
        "failed": len(failures),
        "worst_residual": worst,
        "failures": failures[:10],
    })
    return EXIT_OK if not failures else EXIT_STRUCTURAL


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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", parents=[tolp],
                       help="canonical form of a strict compatible pair")
    p.add_argument("a", help="matrix JSON file")
    p.add_argument("b", help="matrix JSON file")
    p.add_argument("--blocks", metavar="PATH", help="also write the five-block decomposition")
    p.add_argument("--out", help="write the canonical form here instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gen", parents=[tolp], help="write seeded random instances")
    p.add_argument("kind", choices=("pair", "commuting", "unitary", "projection"))
    p.add_argument("--n", type=int, default=4, help="matrix dimension")
    p.add_argument("--sites", type=int, default=2, help="site count for --strict projections")
    p.add_argument("--rank", type=int, default=None, help="projection rank (default n/2)")
    p.add_argument("--strict", action="store_true", help="strict site-block projection")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--out", metavar="PREFIX", help="output path prefix (default 'gen')")
    p.set_defaults(func=cmd_gen)

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
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("fuzz", parents=[tolp], help="run a property suite over seeded trials")
    p.add_argument("suite", help="one of %s" % ", ".join(sorted(SUITES)))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fail-out", help="failure bundle path (default <suite>.fail.json)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except AbscompatError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return exit_code_for(exc)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "OSError", "message": str(exc)}) + "\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
