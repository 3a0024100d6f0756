"""Layered benchmark for abscompat.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is campaign, library_large, cli_files, or all (the three in
turn).  Run it from the repository root or any copy of it; it imports the
package from the ``src/`` next to this directory, and exits with an error
if there is none.

With ``--trace 0`` it prints the end-to-end metrics of the workload, one
``metric`` line each, then the result as one JSON line with the metrics
BENCHMARK.json lists.  With ``--trace 1`` it installs span wrappers
(tracer.py) and prints the per-layer metrics instead.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# workloads.py and tracer.py import numpy, so this file imports them inside
# functions, after pin_blas_threads has run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 11
UNTRACED_SHARE = 0.3     # share of a traced run's time spent on its untraced baseline
SPAN_CAP = 1_500_000     # a traced run stops adding ops beyond this many spans
FLOOR_N = 96
FLOOR_REPS = 15

END_TO_END_UNITS = {
    "setup_s": "s", "fail_ratio": "ratio", "headroom_max": "ratio",
    "op_mean_ms": "ms", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "trials_per_s": "1/s", "pairs_per_s": "1/s",
    "check_ms": "ms", "canon_ms": "ms", "fiveblock_ms": "ms",
    "cli_gen_ms": "ms", "cli_check_ms": "ms", "cli_decompose_ms": "ms",
}


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy is first imported; children inherit it."""
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was imported before the BLAS thread pin; "
                         "run this file as a script")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import abscompat from SRC and nowhere else."""
    if not (SRC / "abscompat" / "__init__.py").is_file():
        raise SystemExit("perfbench: no abscompat package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import abscompat

    if Path(abscompat.__file__).resolve().parent != SRC / "abscompat":
        raise SystemExit("perfbench: imported abscompat from %s, not %s" % (abscompat.__file__, SRC))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def environment() -> dict:
    import platform

    import numpy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    keep = ("name", "version", "openblas configuration")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items() if k in keep},
        "lapack": {k: v for k, v in deps.get("lapack", {}).items() if k in keep},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
    }


def child_ms(argv, env) -> float:
    """Wall time of one child interpreter, spawn to exit."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return (time.perf_counter_ns() - t0) / 1e6


def make_workload(name, workdir, env):
    from workloads import Campaign, CliFiles, LibraryLarge

    if name == "campaign":
        return Campaign(workdir)
    if name == "library_large":
        return LibraryLarge()
    return CliFiles(workdir, env, ROOT)


class Ops:
    """Outcome of a run of ops."""

    def __init__(self):
        self.samples = []
        self.stages = {}
        self.headroom = 0.0
        self.failures = []
        self.ops = 0

    def fail(self, i, exc) -> None:
        if not self.failures:
            traceback.print_exception(exc, file=sys.stderr)
        self.failures.append((i, type(exc).__name__, str(exc)))


class SetUps:
    """SETUP_REPS timed set-ups.  Each is a child ``import abscompat``
    (interpreter start plus import) and the workload's own set-up (inputs
    and warm-up).  The first runs before any op; ``run_ops`` spreads
    the rest over the timed run, so that one slow period of a shared host
    does not cover them all."""

    def __init__(self, wl, seed, env):
        self.wl, self.seed, self.env = wl, seed, env
        self.totals, self.imports, self.digests = [], [], []

    def run(self) -> None:
        imp = child_ms(["-c", "import abscompat"], self.env)
        t0 = time.perf_counter_ns()
        self.digests.append(self.wl.setup(self.seed))
        self.totals.append(imp / 1e3 + (time.perf_counter_ns() - t0) / 1e9)
        self.imports.append(imp)

    def run_due(self, share: float) -> None:
        """Runs the set-ups due once ``share`` of the timed run is over."""
        while len(self.totals) < SETUP_REPS and share >= len(self.totals) / SETUP_REPS:
            self.run()

    def finish(self):
        """Runs the set-ups still due; returns the median set-up seconds
        and the number of set-ups whose input digest differs from the
        first one's."""
        self.run_due(1.0)
        mismatches = sum(d != self.digests[0] for d in self.digests[1:])
        if mismatches:
            print("determinism: %d of %d set-ups made different inputs from the first"
                  % (mismatches, SETUP_REPS - 1), file=sys.stderr)
        return statistics.median(self.totals), mismatches


def run_ops(wl, op, seconds, min_ops=1, rec=None, setups=None) -> Ops:
    """Closed loop: op i+1 starts once op i and its check are done.  Runs
    at least ``min_ops`` ops, then stops at the deadline (or the span cap
    when ``rec`` traces the ops).  ``setups`` runs its set-ups as they
    fall due, between ops."""
    from tracer import OP_SPAN
    from workloads import elapsed_ms

    res = Ops()
    root = rec.name_id(OP_SPAN) if rec is not None else None
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or (time.perf_counter() < deadline
                          and (rec is None or len(rec) < SPAN_CAP)):
        if setups is not None:
            setups.run_due((time.perf_counter() - start) / seconds)
        if rec is not None:
            rec.current_op = i
            idx = rec.enter(root)
        out = None
        t0 = time.perf_counter_ns()
        try:
            out = op(i)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            res.fail(i, exc)
        finally:
            t1 = time.perf_counter_ns()
            if rec is not None:
                rec.leave(idx)
                rec.current_op = -1
        if out is not None:
            ms = elapsed_ms(t0, t1)
            res.samples.append(ms)
            for name, ms in out["stages"].items():
                res.stages.setdefault(name, []).append(ms)
            try:
                res.headroom = max(res.headroom, wl.check(out))
            except Exception as exc:  # a malformed output fails the check too
                res.fail(i, exc)
        i += 1
    res.ops = i
    return res


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when that percentile would not be
    above the median (twenty samples or fewer)."""
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, res, setup_s, failed, attempted):
    p50 = statistics.median(res.samples)
    tail_ms, pct = tail(res.samples)
    n = len(res.samples)
    metrics = {
        "setup_s": (setup_s, "median of %d set-ups" % SETUP_REPS),
        "fail_ratio": (failed / attempted, "%d of %d" % (failed, attempted)),
        "headroom_max": (res.headroom, "worst residual over its bound"),
        "op_mean_ms": (statistics.mean(res.samples), "n=%d" % n),
        "op_p50_ms": (p50, "n=%d" % n),
        "op_tail_ms": (tail_ms, "p%.1f, n=%d" % (pct, n)),
    }
    busy_s = sum(res.samples) / 1e3
    if wl.name == "campaign":
        metrics["trials_per_s"] = (n * wl.trials_per_op / busy_s, "%d trials per op" % wl.trials_per_op)
    if wl.name == "library_large":
        metrics["pairs_per_s"] = (n / busy_s, "ops per second")
    for name, values in res.stages.items():
        metrics[name] = (statistics.median(values), "median, n=%d" % len(values))
    return metrics


def measure_floor(seed):
    """Median eigh and svd times on one Hermitian matrix at FLOOR_N."""
    import numpy as np

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((FLOOR_N, FLOOR_N)) + 1j * rng.standard_normal((FLOOR_N, FLOOR_N))
    h = 0.5 * (z + z.conj().T)
    floor = {}
    for name, fn in (("eigh", np.linalg.eigh), ("svd", np.linalg.svd)):
        times = []
        for _ in range(FLOOR_REPS):
            t0 = time.perf_counter_ns()
            fn(h)
            times.append((time.perf_counter_ns() - t0) / 1e6)
        floor[name] = statistics.median(times)
    return floor


def listed_metrics(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def per_layer(summary, extra):
    """Every per-layer metric BENCHMARK.json lists.  ``<x>.calls`` and
    ``<x>.self_ms`` read the trace summary; where ``<x>`` is a whole layer
    they sum its functions; a layer or function the workload never calls
    reads 0."""
    from tracer import LAYERS

    out = {}
    for name, unit in listed_metrics("per_layer").items():
        if name in extra:
            value = extra[name]
        else:
            key, _, stat = name.rpartition(".")
            table = summary[stat]
            if key in LAYERS or key == "linalg":
                value = sum(v for k, v in table.items() if k.startswith(key + "."))
            else:
                value = table.get(key, 0.0)
        out[name] = (value, unit)
    return out


def traced_run(wl, op, seconds, seed, env, imports):
    """Untraced baseline, then the same ops traced; returns the per-layer
    metrics, the two runs, and the recorder."""
    from tracer import Recorder, Tracer, summarize

    floor = measure_floor(seed)
    interps = [child_ms(["-c", "pass"], env) for _ in range(SETUP_REPS)]
    base = run_ops(wl, op, seconds * UNTRACED_SHARE)
    rec = Recorder()
    with Tracer(rec):
        res = run_ops(wl, op, seconds * (1 - UNTRACED_SHARE), min_ops=wl.cycle, rec=rec)
    summary = summarize(rec, wl.cycle)
    interp = statistics.median(interps)
    extra = {
        "floor.eigh_ms": floor["eigh"],
        "floor.svd_ms": floor["svd"],
        "io.bytes_written": summary["bytes"]["written"],
        "io.bytes_read": summary["bytes"]["read"],
        "cli.interp_ms": interp,
        "cli.import_ms": statistics.median(imports) - interp,
        "trace.overhead_ratio": statistics.median(res.samples) / statistics.median(base.samples),
        "trace.spans_per_op": summary["spans_per_op"],
        "trace.ops": res.ops,
    }
    for stage, key in (("check_ms", "check"), ("canon_ms", "canon"), ("fiveblock_ms", "fiveblock")):
        values = base.stages.get(stage)
        extra["ratio.%s_over_eigh" % key] = statistics.median(values) / floor["eigh"] if values else 0.0
    for stage, value in summary["cli"].items():
        extra["cli." + stage] = value
    return per_layer(summary, extra), base, res, rec


def print_metrics(metrics) -> None:
    for name, (value, unit, *note) in metrics.items():
        print("metric %-32s %14.6g %-9s %s" % (name, value, unit, note[0] if note else ""))


def run_workload(wl, seed, seconds, trace, env):
    """Runs one workload; prints its lines and returns (correct, attempted,
    failed, metrics) for the JSON result."""
    print("workload %s seed %d seconds %g trace %d" % (wl.name, seed, seconds, trace))
    setups = SetUps(wl, seed, env)
    setups.run_due(1.0 if trace else 0.0)  # a traced run sets up before its ops
    probe = wl.probe(seed) if hasattr(wl, "probe") else []
    for label, error in probe:
        print("probe %-40s %s" % (label, error or "ok"))
    if trace:
        op = wl.op_inproc if hasattr(wl, "op_inproc") else wl.op
        metrics, base, res, rec = traced_run(wl, op, seconds, seed, env, setups.imports)
        WORK.mkdir(exist_ok=True)
        rec.save(WORK / ("trace-%s-%d.npz" % (wl.name, seed)))
        runs = (base, res)
    else:
        res = run_ops(wl, wl.op, seconds, setups=setups)
        runs = (res,)
    setup_s, mismatches = setups.finish()
    failed = mismatches + sum(len(r.failures) for r in runs)
    attempted = (SETUP_REPS - 1) + sum(r.ops for r in runs)
    if not trace:
        probe_failed = sum(error is not None for _, error in probe)
        notes = end_to_end(wl, res, setup_s, failed + probe_failed, attempted + len(probe))
        metrics = {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in notes.items()}
    print_metrics(metrics)
    result = {k: (v, unit) for k, (v, unit, *_) in metrics.items()}
    return failed == 0, attempted, failed, result


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "library_large", "cli_files", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    env = child_env()
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    print("env " + json.dumps(environment(), sort_keys=True))
    names = ("campaign", "library_large", "cli_files") if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run_dir = WORK / ("run-%s-%d" % (name, os.getpid()))
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            wl = make_workload(name, run_dir, env)
            ok, att, fail, result = run_workload(wl, args.seed, args.seconds, args.trace, env)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        for metric, (value, unit) in result.items():
            if metric in listed:
                key = metric if len(names) == 1 else "%s.%s" % (name, metric)
                metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
