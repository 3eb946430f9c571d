"""Smoke tests of the benchmark itself, on tiny operation counts.

Run from the repository root (the file name keeps it out of the default
test collection)::

    python3 -m pytest perfbench/smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(metrics: dict) -> dict:
    return {name: unit for name, (_value, unit) in metrics.items()}


def _fresh_run(name: str, seed: int, n_ops: int, tracer=None):
    db, workload, _ = bench.setup(seed)
    return bench.run_sequence(db, workload, name, seed, n_ops, tracer)


def test_workloads_match_spec():
    assert WORKLOADS == list(bench.WORKLOADS)


def test_cli_prints_every_end_to_end_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp_tpcc",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "sizes[end]: rows" in proc.stdout


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_prints_every_layer_metric(name, capsys):
    result = run.traced(bench, name, seed=2, n_ops=24)
    assert result["correct"], capsys.readouterr().out
    assert _units(result["metrics"]) == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # every layer is timed on every workload: the checks after the
    # window reach the layers a workload itself bypasses
    times = {m: v for m, (v, unit) in result["metrics"].items()
             if unit == "ms"}
    assert all(v > 0 for v in times.values()), times


def test_spans_nest_and_self_times_add_up():
    tracer = Tracer()
    out = _fresh_run("htap_realtime", seed=4, n_ops=40, tracer=tracer)
    assert out.failed == 0, out.failures
    assert tracer.nesting_violations() == 0
    assert tracer.attribution_error_ms() < 1e-3
    spans = tracer.per_name()
    for layer in ("database.execute", "parser.parse", "planner.plan",
                  "executor.select_row", "executor.select_columnar",
                  "executor.dml", "txn.begin", "txn.commit", "locks.acquire",
                  "wal.append", "wal.read", "rowstore.install",
                  "rowstore.lookup", "rowstore.scan", "columnstore.apply",
                  "columnstore.compact", "database.replicate",
                  "vectorized.scan", "vectorized.join",
                  "vectorized.aggregate"):
        assert spans[layer]["calls"] > 0, layer
        assert spans[layer]["self_ms"] > 0, layer
    # the patches are gone once the run ends
    from repro.db.database import Connection
    assert not hasattr(Connection.execute, "__wrapped__")


def test_same_seed_repeats_counts_and_state():
    first = _fresh_run("htap_realtime", seed=7, n_ops=40)
    again = _fresh_run("htap_realtime", seed=7, n_ops=40)
    other = _fresh_run("htap_realtime", seed=8, n_ops=40)
    assert first.failed == again.failed == other.failed == 0
    assert first.counts == again.counts
    assert first.state_crc == again.state_crc
    assert other.counts != first.counts
    assert other.state_crc != first.state_crc


def test_operation_mix_is_exact_per_block():
    block = bench.WORKLOADS["htap_realtime"].block
    sequence = bench.operations(bench.Subenchmark(bench.SCALE),
                                "htap_realtime", bench.Random("mix"))
    ops = [next(sequence) for _ in range(block)]
    kinds = [kind for kind, _ in ops]
    assert kinds.count("oltp") == 210
    assert kinds.count("hybrid") == kinds.count("olap") == 45
    programs = {}
    for kind, profile in ops:
        if kind != "oltp":
            programs[profile.name] = programs.get(profile.name, 0) + 1
    assert {programs[f"Q{i}"] for i in range(1, 10)} == {5}
    assert {programs[f"X{i}"] for i in range(1, 6)} == {9}


def test_timings_are_scaled_interval_by_interval():
    out = _fresh_run("oltp_tpcc", seed=3, n_ops=60)
    assert out.failed == 0, out.failures
    # set-up's calibration timer is gone once set-up returns
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # one point before the window, one after each interval
    assert len(out.calibration) == 1 + -(-60 // 25)
    assert sum(map(len, out.latency.values())) == out.completed == 60
    assert out.window_ref_s > 0 and out.scale > 0


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oltp_tpcc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
