"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracer import OP_SPAN, Recorder, Tracer, self_times, summarize
from workloads import Campaign, CliFiles, LibraryLarge

SEED = 5
COMMON = {"setup_s", "fail_ratio", "headroom_max", "op_mean_ms", "op_p50_ms", "op_tail_ms"}
OWN = {
    "campaign": {"trials_per_s"},
    "library_large": {"pairs_per_s", "check_ms", "canon_ms", "fiveblock_ms"},
    "cli_files": {"cli_gen_ms", "cli_check_ms", "cli_decompose_ms"},
}


def tiny(name, workdir):
    if name == "campaign":
        return Campaign(workdir, trials=1)
    if name == "library_large":
        return LibraryLarge(n=12, strict=8)
    return CliFiles(workdir, run.child_env(), run.ROOT, n_gen=4, n_decompose=4)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["campaign", "library_large", "cli_files"])
def test_workload_emits_every_listed_metric(name, trace, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    ok, attempted, failed, result = run.run_workload(
        tiny(name, tmp_path), SEED, 0.2, trace, run.child_env())
    assert ok and failed == 0 and attempted >= 1
    expected = run.listed_metrics("per_layer" if trace else "end_to_end")
    for metric, unit in expected.items():
        value, got_unit = result[metric]
        assert got_unit == unit
        assert np.isfinite(value)
    if not trace:
        assert all(result[m][0] > 0 for m in expected)
        printed = {line.split()[1]: line.split()[3] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("metric ")}
        assert set(printed) == COMMON | OWN[name]
        assert all(printed[m] == run.END_TO_END_UNITS[m] for m in printed)


def _traced(wl, seed):
    wl.setup(seed)
    rec = Recorder()
    with Tracer(rec):
        res = run.run_ops(wl, wl.op, 0.0, min_ops=wl.cycle, rec=rec)
    assert not res.failures
    return rec


def test_self_times_sum_to_root_span(tmp_path):
    orig = np.linalg.eigh
    rec = _traced(LibraryLarge(n=12, strict=8), SEED)
    assert np.linalg.eigh is orig
    name, parent, op, start, end = rec.arrays()
    selfs = self_times(rec)
    roots = np.flatnonzero(name == rec.name_id(OP_SPAN))
    assert len(roots) == LibraryLarge.cycle
    assert (selfs >= 0).all()
    for root in roots:
        in_op = op == op[root]
        assert selfs[in_op].sum() == end[root] - start[root]


@pytest.mark.parametrize("name", ["campaign", "library_large"])
def test_counts_repeat_for_a_seed(name, tmp_path):
    counts = []
    for _ in range(2):
        wl = tiny(name, tmp_path)
        counts.append(summarize(_traced(wl, SEED), wl.cycle)["calls"])
    assert counts[0] == counts[1]
    assert counts[0]["hermitian.op_norm"] > 0


def test_bytes_written_counts_out_files(tmp_path):
    wl = tiny("cli_files", tmp_path)
    wl.setup(SEED)
    rec = Recorder()
    with Tracer(rec):
        rec.current_op = 0
        wl.check(wl.op_inproc(0))
    files = ("op_a.json", "op_b.json", "blocks.json", "canon.json")
    assert rec.bytes["written"] == {0: sum((tmp_path / f).stat().st_size for f in files)}


def test_refuses_numpy_imported_first():
    with pytest.raises(SystemExit):
        run.main(["--workload", "campaign", "--seed", "1", "--seconds", "1"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
