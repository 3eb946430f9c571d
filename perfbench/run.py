"""Run one workload of the wall-clock HTAP benchmark; print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp_tpcc --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs the same sequence twice on fresh databases,
untraced and then traced, checks that their counts agree, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oltp_tpcc", "olap_reports", "htap_realtime"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the fixed operation sequence")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def report(bench, name: str, runs: list, metrics: dict):
    """Human-readable lines: sizes, latency by class pooled over the
    repetitions, and the last repetition's counts and failures."""
    out = runs[-1]
    print(bench.format_sizes("load", out.sizes_start))
    print(bench.format_sizes("end", out.sizes_end))
    for kind, row in bench.latency_summary(runs).items():
        cells = " ".join(f"{k}={_fmt(v)}" for k, v in row.items())
        print(f"latency_ms[{kind}]: {cells}")
    print(f"window_s={out.window_s:.3f} check_s={out.check_s:.3f} "
          f"completed={out.completed} "
          f"state_crc={out.state_crc:08x}")
    print("counts: " + " ".join(f"{k}={v}" for k, v in
                                sorted(out.counts.items())))
    for failure in out.failures:
        print(f"FAILED: {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"metric {name}.{metric} = {_fmt(value)} {unit}")


def untraced(bench, name: str, seed: int, n_ops: int) -> dict:
    setups, runs = bench.repeated_runs(name, seed, n_ops)
    for rep, (setup_s, out) in enumerate(zip(setups, runs)):
        print(f"rep {rep}: setup_s={setup_s:.3f} "
              f"ops_per_s={out.ops_per_s_ref:.3f} (raw {out.ops_per_s:.3f}, "
              f"host_scale={out.scale:.3f}) window_s={out.window_s:.3f}")
    out = runs[-1]
    out.failures[:0] = [f for r in runs[:-1] for f in r.failures]
    attempted = sum(r.attempted for r in runs) + 1
    failed = sum(r.failed for r in runs)
    if any(r.window_counts != out.window_counts for r in runs):
        failed += 1
        out.failures.append("repetitions of one seed counted differently")
    metrics = bench.end_to_end(setups, runs)
    report(bench, name, runs, metrics)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced(bench, name: str, seed: int, n_ops: int) -> dict:
    from tracer import Tracer

    db, workload, _ = bench.setup(seed)
    plain = bench.run_sequence(db, workload, name, seed, n_ops)
    db = workload = None
    gc.collect()
    db, workload, _ = bench.setup(seed)
    tracer = Tracer()
    out = bench.run_sequence(db, workload, name, seed, n_ops, tracer)
    attempted = plain.attempted + out.attempted + 3
    failed = plain.failed + out.failed
    mismatched = sorted(k for k in plain.counts
                        if plain.counts[k] != out.counts.get(k))
    if mismatched:
        failed += 1
        out.failures.append("traced counts differ from untraced: " +
                            ", ".join(f"{k} {plain.counts[k]} != "
                                      f"{out.counts.get(k)}"
                                      for k in mismatched[:5]))
    attribution_ms = tracer.attribution_error_ms()
    print(f"trace: spans={len(tracer.start)} attribution_error_ms="
          f"{attribution_ms:.9f}")
    if attribution_ms > 1e-3:
        failed += 1
        out.failures.append(f"self times miss {attribution_ms:.6f} ms of "
                            f"the operations' wall time")
    nesting = tracer.nesting_violations()
    if nesting:
        failed += 1
        out.failures.append(f"{nesting} spans escape their parent")
    metrics = layer_metrics(tracer, out, plain)
    report(bench, name, [out], metrics)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_metrics(tracer, out, plain) -> dict:
    """The per-layer metrics ``{name: (value, unit)}`` of a traced run."""
    spans = tracer.per_name()
    c = out.counts

    def span(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    metrics = {}
    for name, keys in (
            ("database.execute", ("calls", "self_ms")),
            ("database.replicate", ("calls", "ms")),
            ("parser.parse", ("calls", "ms")),
            ("planner.plan", ("calls", "ms")),
            ("executor.select_row", ("calls", "self_ms", "rows")),
            ("executor.select_columnar", ("calls", "self_ms", "rows")),
            ("executor.dml", ("calls", "self_ms")),
            ("vectorized.scan", ("ms",)),
            ("vectorized.join", ("ms",)),
            ("vectorized.aggregate", ("self_ms",)),
            ("columnstore.apply", ("calls", "ms", "records")),
            ("columnstore.compact", ("calls", "ms")),
            ("txn.begin", ("ms",)),
            ("txn.commit", ("calls", "self_ms")),
            ("locks.acquire", ("calls", "ms")),
            ("wal.append", ("calls", "ms")),
            ("wal.read", ("ms",)),
            ("rowstore.install", ("calls", "ms")),
            ("rowstore.lookup", ("calls", "ms")),
            ("rowstore.scan", ("rows", "ms"))):
        for key in keys:
            field = "items" if key in ("rows", "records") else key
            unit = {"calls": "count", "rows": "rows",
                    "records": "records"}.get(key, "ms")
            metrics[f"{name}.{key}"] = (span(name, field), unit)
    metrics.update({
        "planner.cache_hit_ratio": (ratio(
            c["plan_cache_hits"],
            c["plan_cache_hits"] + c["plan_cache_misses"]), "ratio"),
        "executor.columnar_fallbacks": (tracer.columnar_fallbacks, "count"),
        "vectorized.batches_scanned": (c["batches_scanned"], "count"),
        "vectorized.segments_pruned": (c["segments_pruned"], "count"),
        "vectorized.values_decoded": (c["values_decoded"], "count"),
        "vectorized.groups_global_coded": (c["groups_global_coded"],
                                           "count"),
        "vectorized.join_code_probes": (c["join_code_probes"], "count"),
        "vectorized.sort_elided": (c["sort_elided"], "count"),
        "vectorized.sketch_hit_ratio": (ratio(
            c["sketches_hit"], c["sketches_hit"] + c["sketches_built"]),
            "ratio"),
        "vectorized.sketch_rows_elided": (c["sketch_rows_elided"], "rows"),
        "columnstore.segments_merged": (c["segments_merged"], "count"),
        "columnstore.sketch_invalidations": (c["sketch_invalidations"],
                                             "count"),
        "columnstore.bytes_encoded": (c["end_bytes_encoded"], "bytes"),
        "columnstore.sketch_bytes": (c["end_sketch_bytes"], "bytes"),
        "columnstore.delta_rows_pending": (c["end_delta_rows_pending"],
                                           "rows"),
        "txn.aborts": (c["txn_aborts"], "count"),
        "locks.conflicts": (c["lock_conflicts"], "count"),
        "session.retries": (c["session_retries"], "count"),
        "client.self_ms": (span("client.op", "self_ms"), "ms"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.ops_per_s_untraced": (plain.ops_per_s_ref, "1/s"),
        "trace.ops_per_s_traced": (out.ops_per_s_ref, "1/s"),
        "trace.overhead_ratio": (plain.ops_per_s_ref / out.ops_per_s_ref,
                                 "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "db").is_dir():
        print(f"error: engine sources not found under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    n_ops = bench.op_count(args.workload, args.seconds)
    print(f"workload={args.workload} seed={args.seed} ops={n_ops} per "
          f"repetition, trace={args.trace}")
    run = traced if args.trace else untraced
    result = run(bench, args.workload, args.seed, n_ops)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # string hashing feeds set and dict iteration orders inside the
    # engine; pin it so one seed always replays the same execution
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
