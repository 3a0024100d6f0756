"""The benchmark's three workloads.

Each workload is closed-loop from one process, one operation at a time.
``setup(seed)`` makes the inputs from the seed, warms up and returns a
digest of the generated inputs (compared across set-ups for
determinism).  ``op(i)`` does the timed work of op ``i`` and returns its
outcome; ``check(out)`` verifies the outcome outside the timed region and
returns its headroom (worst residual over its bound) or raises
``CheckFailed``.  Op ``i`` uses input ``i % cycle``, so a run covers the
same inputs whatever its length, and ``cycle`` ops are the window over
which a traced run counts calls.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np

# Library functions are looked up on the package at call time, so that
# the tracer's rebinding of ``abscompat.<name>`` reaches these calls.
import abscompat as ac
from abscompat import DEFAULT_TOL, cli

CHILD_TIMEOUT_S = 60.0
SPARE_INDEX = 10**6  # seed index for inputs outside every cycle
FUZZ_TRIALS = 100  # the CLI's default --trials, what `abscompat fuzz <suite>` runs
PROBE_N = 128  # the generator's first failing size (ROADMAP D1)


class CheckFailed(Exception):
    """An op's output missed its check."""


def elapsed_ms(t0: int, t1: int) -> float:
    return (t1 - t0) / 1e6


def _run_cli(argv):
    """cli.run in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([str(a) for a in argv])
    return code, buf.getvalue()


# Bounds of the fuzz suites' properties as cli.py states them.  A zero
# bound is an exact property; the suite's own failure count covers it.
FUZZ_BOUNDS = {
    "compat": {"pair_residual": DEFAULT_TOL.compat, "orthogonal_product": DEFAULT_TOL.compat,
               "orthogonal_residual": DEFAULT_TOL.compat, "sum_excess": DEFAULT_TOL.spec},
    "canonical": {"reconstruction": DEFAULT_TOL.canon, "x0_multiset": 1e-9,
                  "pivot_exchange": DEFAULT_TOL.canon},
    "m2": {"index_error": 1e-9, "pivot_error": 1e-9, "target_error": 1e-9, "roundtrip": 1e-9},
    "geometry": {"report": DEFAULT_TOL.geo, "bijection": DEFAULT_TOL.geo,
                 "bijection_inverse": DEFAULT_TOL.geo, "spheroid_spread": 1e-8},
    "equivalences": {"orthogonal_compatible": DEFAULT_TOL.compat,
                     "orthogonal_product": DEFAULT_TOL.compat},
}


class Campaign:
    """In-process ``abscompat fuzz``: one op is a round of every suite at
    ``trials`` trials each (the CLI's default unless a test shrinks it)."""

    name = "campaign"
    cycle = 3

    def __init__(self, workdir, trials: int = FUZZ_TRIALS):
        self.trials = trials
        self.fail_out = workdir / "fuzz.fail.json"
        self.seeds = []

    @property
    def trials_per_op(self) -> int:
        return self.trials * len(FUZZ_BOUNDS)

    def setup(self, seed: int) -> bytes:
        """Warms up with a one-trial round on the first seed, which runs
        every suite's code once without the cost of a whole op."""
        self.seeds = [ac.derive_seed(seed, k) for k in range(self.cycle)]
        warm = self._round(self.seeds[0], 1)
        self._check(warm, 1)
        return hashlib.sha256("".join(text for _, _, text in warm["runs"]).encode()).digest()

    def _round(self, seed: int, trials: int):
        runs = []
        for suite in FUZZ_BOUNDS:
            argv = ["fuzz", suite, "--trials", trials, "--seed", seed,
                    "--fail-out", self.fail_out]
            code, text = _run_cli(argv)
            runs.append((suite, code, text))
        return {"runs": runs, "stages": {}}

    def op(self, i: int):
        return self._round(self.seeds[i % self.cycle], self.trials)

    def check(self, out) -> float:
        return self._check(out, self.trials)

    @staticmethod
    def _check(out, trials: int) -> float:
        headroom = 0.0
        for suite, code, text in out["runs"]:
            if code != 0:
                raise CheckFailed("fuzz %s exited %d" % (suite, code))
            report = json.loads(text)
            if report["trials"] != trials:
                raise CheckFailed("fuzz %s ran %r trials, not %d" % (suite, report["trials"], trials))
            if report["failed"] != 0:
                raise CheckFailed("fuzz %s: %d failed trials" % (suite, report["failed"]))
            for prop, bound in FUZZ_BOUNDS[suite].items():
                headroom = max(headroom, report["worst_residual"][prop] / bound)
        return headroom


def assembled_pair(n: int, strict: int, seed: int):
    """A compatible pair with all five blocks non-empty, built the way
    tests/test_compat.py::test_five_block_assembled builds one: a strict
    pair of size ``strict`` beside diagonal a-unit, b-unit, a-null and
    b-null slots of (n - strict) / 4 dimensions each, under a Haar
    conjugation.  Returns (a, b, expected ranks)."""
    slot = (n - strict) // 4
    if strict < 2 or slot < 1 or strict + 4 * slot != n:
        raise ValueError("need n = strict + 4 * slot with slot >= 1, got n=%d strict=%d" % (n, strict))
    sa, sb = ac.random_abscompat_pair(strict, ac.derive_seed(seed, 1))
    gen = np.random.Generator(np.random.Philox(key=ac.derive_seed(seed, 2)))
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros_like(a)
    a[:strict, :strict], b[:strict, :strict] = sa, sb

    def inner():  # values strictly inside (0, 1)
        return gen.random(slot) * 0.8 + 0.1

    slots = [(1.0, inner()), (inner(), 1.0), (0.0, inner()), (inner(), 0.0)]
    for k, (da, db) in enumerate(slots):
        idx = np.arange(strict + k * slot, strict + (k + 1) * slot)
        a[idx, idx], b[idx, idx] = da, db
    u = ac.haar_unitary(n, ac.derive_seed(seed, 3))
    a = ac.hermitize(u @ a @ ac.dagger(u))
    b = ac.hermitize(u @ b @ ac.dagger(u))
    ranks = {"unit_a": slot, "unit_b": slot, "strict": strict, "null_a": slot, "null_b": slot}
    return a, b, ranks


def _block_residual(fb, a, b) -> float:
    worst = 0.0
    for x, side in ((a, fb.blocks_a), (b, fb.blocks_b)):
        rebuilt = sum(v @ side[name] @ ac.dagger(v) for name, v in fb.bases.items())
        worst = max(worst, ac.op_norm(rebuilt - x))
    return worst


def _strided(x):
    buf = np.zeros((2 * x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
    buf[::2, ::2] = x
    return buf[::2, ::2]


class LibraryLarge:
    """Library calls at n = 96: a strict pair through ``is_abs_compatible``
    and ``canonicalize``, and an assembled pair through
    ``five_block_decompose``."""

    name = "library_large"
    cycle = 6

    def __init__(self, n: int = 96, strict: int = 64):
        self.n, self.strict = n, strict
        self.pairs, self.assembled = [], []

    def setup(self, seed: int) -> bytes:
        self.pairs = [ac.random_abscompat_pair(self.n, ac.derive_seed(seed, 2 * k))
                      for k in range(self.cycle)]
        self.assembled = [assembled_pair(self.n, self.strict, ac.derive_seed(seed, 2 * k + 1))
                          for k in range(self.cycle)]
        self.check(self.op(0))
        digest = hashlib.sha256()
        for a, b in self.pairs:
            digest.update(a.tobytes())
            digest.update(b.tobytes())
        for a, b, _ in self.assembled:
            digest.update(a.tobytes())
            digest.update(b.tobytes())
        return digest.digest()

    def op(self, i: int):
        a, b = self.pairs[i % self.cycle]
        aa, ab, ranks = self.assembled[i % self.cycle]
        t0 = time.perf_counter_ns()
        report = ac.is_abs_compatible(a, b)
        t1 = time.perf_counter_ns()
        cf = ac.canonicalize(a, b)
        t2 = time.perf_counter_ns()
        fb = ac.five_block_decompose(aa, ab)
        t3 = time.perf_counter_ns()
        stages = {"check_ms": elapsed_ms(t0, t1), "canon_ms": elapsed_ms(t1, t2),
                  "fiveblock_ms": elapsed_ms(t2, t3)}
        return {"pair": (a, b), "report": report, "canonical": cf,
                "assembled": (aa, ab, ranks), "fiveblock": fb, "stages": stages}

    def check(self, out) -> float:
        a, b = out["pair"]
        report = out["report"]
        if not report.compatible:
            raise CheckFailed("strict pair reported incompatible, residual %.3e" % report.residual)
        ra, rb = out["canonical"].reconstruct()
        recon = max(ac.op_norm(ra - a), ac.op_norm(rb - b))
        if recon > DEFAULT_TOL.canon:
            raise CheckFailed("canonical reconstruction residual %.3e" % recon)
        aa, ab, ranks = out["assembled"]
        fb = out["fiveblock"]
        if fb.ranks() != ranks:
            raise CheckFailed("five-block ranks %r, assembled %r" % (fb.ranks(), ranks))
        blocks = _block_residual(fb, aa, ab)
        if blocks > DEFAULT_TOL.block:
            raise CheckFailed("five-block reconstruction residual %.3e" % blocks)
        return max(report.residual / report.tolerance, recon / DEFAULT_TOL.canon,
                   blocks / DEFAULT_TOL.block)

    def probe(self, seed: int):
        """Untimed layout and size probe.  Returns (case, error type or None)
        per case; the inputs are passed as they come, never made
        contiguous or resized."""
        cases = []

        def attempt(label, fn, *args):
            try:
                result = fn(*args)
            except Exception as exc:  # the probe reports whatever the call raises
                cases.append((label, type(exc).__name__))
                return None
            if fn is ac.is_abs_compatible and not result.compatible:
                cases.append((label, "NotCompatible"))
            else:
                cases.append((label, None))
            return result

        big = attempt("random_abscompat_pair n=%d" % PROBE_N,
                      ac.random_abscompat_pair, PROBE_N, ac.derive_seed(seed, SPARE_INDEX + 1))
        if big is not None:
            for fn in (ac.is_abs_compatible, ac.five_block_decompose, ac.canonicalize):
                attempt("%s n=%d" % (fn.__name__, PROBE_N), fn, *big)
        small = ac.random_abscompat_pair(4, ac.derive_seed(seed, SPARE_INDEX + 2))
        m2 = ac.pair_from_projections(*ac.random_pair_spec(ac.derive_seed(seed, SPARE_INDEX + 3)))
        for layout, f in (("F-order", np.asfortranarray), ("strided", _strided)):
            for fn in (ac.is_abs_compatible, ac.five_block_decompose, ac.canonicalize):
                attempt("%s %s n=4" % (fn.__name__, layout), fn, f(small[0]), f(small[1]))
            attempt("decompose_pair_m2 %s 2x2" % layout, ac.decompose_pair_m2, f(m2[0]), f(m2[1]))
        return cases


class CliFiles:
    """``python -m abscompat.cli`` child processes: one op is a round of
    ``gen pair``, ``check`` on those files and ``decompose --blocks``."""

    name = "cli_files"
    cycle = 4
    stage_names = ("cli_gen_ms", "cli_check_ms", "cli_decompose_ms")

    def __init__(self, workdir, env, root, n_gen: int = 96, n_decompose: int = 64):
        self.work, self.env, self.root = workdir, env, root
        self.n_gen, self.n_decompose = n_gen, n_decompose
        self.seeds = []
        self.dec = (workdir / "dec_a.json", workdir / "dec_b.json")

    def setup(self, seed: int) -> bytes:
        """Generates the decompose inputs in a child process.  Every op
        starts fresh children, so there is nothing in this process to warm;
        that child is the warm-up of the interpreter and package files."""
        self.seeds = [ac.derive_seed(seed, k) for k in range(self.cycle)]
        code, _, _ = self._spawn(["gen", "pair", "--n", self.n_decompose,
                                  "--seed", ac.derive_seed(seed, SPARE_INDEX),
                                  "--out", self.work / "dec"])
        if code != 0:
            raise CheckFailed("gen of the decompose inputs exited %d" % code)
        return b"".join(p.read_bytes() for p in self.dec)

    def argvs(self, i: int):
        w = self.work
        return (
            ["gen", "pair", "--n", self.n_gen, "--seed", self.seeds[i % self.cycle],
             "--out", w / "op"],
            ["check", w / "op_a.json", w / "op_b.json"],
            ["decompose", self.dec[0], self.dec[1], "--blocks", w / "blocks.json",
             "--out", w / "canon.json"],
        )

    def _spawn(self, argv):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-m", "abscompat.cli", *map(str, argv)],
                              env=self.env, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        t1 = time.perf_counter_ns()
        return proc.returncode, proc.stdout, elapsed_ms(t0, t1)

    def op(self, i: int):
        runs = [self._spawn(argv) for argv in self.argvs(i)]
        return self._outcome(runs)

    def op_inproc(self, i: int):
        """The same round replayed through ``cli.run`` in this process."""
        runs = []
        for argv in self.argvs(i):
            t0 = time.perf_counter_ns()
            code, text = _run_cli(argv)
            runs.append((code, text, elapsed_ms(t0, time.perf_counter_ns())))
        return self._outcome(runs)

    def _outcome(self, runs):
        return {"runs": runs,
                "stages": {name: ms for name, (_, _, ms) in zip(self.stage_names, runs)}}

    def check(self, out) -> float:
        codes = [code for code, _, _ in out["runs"]]
        if codes != [0, 0, 0]:
            raise CheckFailed("exit codes %r" % codes)
        report = json.loads(out["runs"][1][1])
        if report["compatible"] is not True:
            raise CheckFailed("check reported %r" % report["compatible"])
        canon = json.loads((self.work / "canon.json").read_text())
        if canon["residual"] > DEFAULT_TOL.canon:
            raise CheckFailed("decompose residual %.3e" % canon["residual"])
        blocks = json.loads((self.work / "blocks.json").read_text())
        ranks = {k: v["n"] for k, v in blocks["blocks"]["a"].items()}
        expected = {"unit_a": 0, "unit_b": 0, "strict": self.n_decompose, "null_a": 0, "null_b": 0}
        if ranks != expected:
            raise CheckFailed("five-block ranks %r" % ranks)
        return max(report["residual"] / report["tolerance"], canon["residual"] / DEFAULT_TOL.canon)
