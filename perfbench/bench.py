"""Wall-clock HTAP benchmark of the embedded engine (see README.md).

One process, one closed-loop client, no think time.  Every operation is a
subenchmark program run through ``run_transaction`` against a real
``Database(with_columnar=True)`` and timed with ``perf_counter``.  A run
executes a fixed, seeded sequence of operations: tables grow while it
runs, so a duration-bounded run would hand a faster OLTP path bigger
tables and slower queries, while a fixed sequence makes two commits do
the same work on the same data.  Calibration points interleaved with the
work time a fixed kernel, and every gated timing is scaled by them to
the speed of a reference box, because the shared host's speed is not
steady.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from random import Random
from time import perf_counter

from repro.core.session import run_transaction
from repro.db import Database
from repro.sql.result import ExecStats
from repro.workloads.subench import Subenchmark

SCALE = 1.0
# the client calls Database.replicate() after this many committed writes
REPLICATE_EVERY = 32
# an untraced run sets up and runs the sequence this many times and
# reports medians over them
REPS = 3
# a reported percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10
# host-speed calibration (see README.md): kernel runs per calibration
# point, and the kernel's time on the reference box in its fast state, to
# which every gated timing is scaled
CAL_RUNS = 3
CAL_REF_S = 2.5e-3
# set-up is one long call into the engine, so a timer calibrates inside it
SETUP_CAL_S = 0.1
# the end-to-end latency percentile, over the operations of all
# repetitions together (n >= 300, so at least 15 lie beyond it).  It sits
# inside a cluster on every workload: on olap_reports, Q5 is 1/9 of the
# operations, so a p90 would sit on the edge of the Q5 cluster.
TAIL_Q = 0.95


@dataclass(frozen=True)
class WorkloadSpec:
    """Class cards per shuffled deck, operations per run-second, the
    block, and operations between host-speed calibration points.

    The operation count of one repetition is ``rate * seconds / REPS``
    (and at least ``min_ops``) rounded up to whole blocks, fixed before
    the run starts: ``--seconds`` sizes the sequence, it never cuts
    it short.  A block deals the analytical and hybrid decks whole, so
    the slow programs' shares are exact, and throughput or a percentile
    never moves because one seed dealt a different remainder of them.
    ``cal_every`` keeps an interval near 0.1 s, or one operation when an
    operation takes longer: the host switches between its fast and slow
    states within a second.
    """

    classes: dict
    rate: int
    block: int
    cal_every: int
    min_ops: int = 100
    warm_olap: bool = False


WORKLOADS = {
    # online transactions only, default TPC-C weights (100-card deck)
    "oltp_tpcc": WorkloadSpec({"oltp": 1}, rate=230, block=100,
                              cal_every=25),
    # Q1-Q9 with equal weights on a quiescent, warm replica
    "olap_reports": WorkloadSpec({"olap": 1}, rate=18, block=9,
                                 cal_every=1, warm_olap=True),
    # 70% online, 15% hybrid, 15% analytical by count; a block of 300
    # deals Q1-Q9 five times and X1-X5 nine times
    "htap_realtime": WorkloadSpec({"oltp": 14, "hybrid": 3, "olap": 3},
                                  rate=60, block=300, cal_every=5),
}


def op_count(workload: str, seconds: int) -> int:
    """Operations in one repetition of the workload's sequence."""
    spec = WORKLOADS[workload]
    n = max(spec.min_ops, spec.rate * seconds // REPS)
    return -(-n // spec.block) * spec.block


class Deck:
    """Seeded stratified draw: each block deals every card once, shuffled,
    so a run's mix matches the weights exactly instead of by chance."""

    def __init__(self, cards: list, rng: Random):
        self._cards = cards
        self._rng = rng
        self._hand: list = []

    def draw(self):
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def _weighted_cards(profiles) -> list:
    weights = [round(p.weight * 100) for p in profiles]
    unit = math.gcd(*weights)
    return [p for p, w in zip(profiles, weights) for _ in range(w // unit)]


def operations(workload: Subenchmark, name: str, rng: Random):
    """The seeded operation sequence of one workload: ``(kind, profile)``."""
    spec = WORKLOADS[name]
    classes = Deck([kind for kind, n in spec.classes.items()
                    for _ in range(n)], rng)
    programs = {kind: Deck(_weighted_cards(workload.profiles(kind)), rng)
                for kind in spec.classes}
    while True:
        kind = classes.draw()
        yield kind, programs[kind].draw()


# -- set-up ----------------------------------------------------------------

def setup(seed: int) -> tuple[Database, Subenchmark, float]:
    """Create the schema, load, replicate and force-compact.

    Returns the set-up time scaled to the reference box.  A one-shot
    timer, re-armed after each point, interrupts the set-up every
    ``SETUP_CAL_S`` seconds for a calibration point; each stretch between
    two points is scaled by them, and the points themselves are left out.
    """
    stretches: list[float] = []
    points = [calibrate()]
    resumed = perf_counter()

    def calibration_point():
        nonlocal resumed
        stretches.append(perf_counter() - resumed)
        points.append(calibrate())
        resumed = perf_counter()

    def on_timer(*_):
        calibration_point()
        signal.setitimer(signal.ITIMER_REAL, SETUP_CAL_S)

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SETUP_CAL_S)
    try:
        db = Database(with_columnar=True)
        workload = Subenchmark(SCALE)
        workload.install(db, Random(f"load:{seed}"), SCALE)
        db.columnar.compact(force=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    calibration_point()
    return db, workload, sum(
        seconds * host_scale(before, after)
        for seconds, before, after in zip(stretches, points, points[1:]))


# -- measurement -------------------------------------------------------------

# the kernel's sorting part: a fixed shuffle of 5,000 floats
_SORT_INPUT = [i / 5000 for i in Random(0).sample(range(5000), 5000)]


def _kernel() -> float:
    """Fixed pure-Python work shaped like the engine's and independent of
    it, so only the host's speed moves its time: tuple keys, dict inserts
    and lookups and a grouped fold in the interpreter, then sorts in C,
    each about half the time.  Which work tracks the engine best depends
    on what slows the host; README.md ("Host-speed calibration") has the
    kernels that were compared."""
    rows = {}
    for i in range(2000):
        rows[(i % 61, i)] = (i, i * 0.5, "k%d" % (i % 89))
    groups = {}
    for (_, _), (_, value, tag) in rows.items():
        group = groups.get(tag)
        if group is None:
            groups[tag] = group = [0, 0.0]
        group[0] += 1
        group[1] += value
    low = sorted(_SORT_INPUT)[0]
    high = sorted(_SORT_INPUT, reverse=True)[0]
    return low + high + sum(group[1] for group in groups.values())


def calibrate() -> float:
    """One calibration point: the median time of ``CAL_RUNS`` kernel runs.
    The collector is off so that the kernel never pays for a collection
    of the engine's heap; it frees all it allocates, so the engine's
    collections fall where they would without it."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(CAL_RUNS):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def host_scale(before: float, after: float) -> float:
    """How much faster than the reference box the host ran between two
    calibration points; a time times this is a reference-box time."""
    return 2 * CAL_REF_S / (before + after)


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _stat_counts(stats: ExecStats) -> dict:
    """Every integer ExecStats counter (per-table dicts summed)."""
    counts = {}
    for f in fields(ExecStats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            counts[f.name] = sum(value.values())
        elif isinstance(value, int) and not isinstance(value, bool):
            counts[f.name] = value
    return counts


def engine_counts(db: Database) -> dict:
    """Counters the engine keeps on its public objects."""
    enc = db.columnar.encoding_stats()
    locks = db.txn_manager.locks.stats
    return {
        "plan_cache_hits": db.plan_cache_hits,
        "plan_cache_misses": db.plan_cache_misses,
        "plan_cache_evictions": db.plan_cache_evictions,
        "txn_commits": db.txn_manager.commits,
        "txn_aborts": db.txn_manager.aborts,
        "lock_acquisitions": locks.acquisitions,
        "lock_conflicts": locks.conflicts,
        "segments_merged": db.columnar.segments_merged_total(),
        "sketch_invalidations": db.columnar.sketches.invalidated,
        "sketch_evictions": db.columnar.sketches.evicted,
        "bytes_encoded": enc["bytes_encoded"],
        "sketch_bytes": enc["sketch_bytes"],
        "shared_dicts_demoted": enc["shared_dicts_demoted"],
        "delta_rows_pending": db.columnar.delta_rows_pending(),
    }


def sizes(db: Database) -> dict:
    """Data sizes next to the engine's caches."""
    enc = db.columnar.encoding_stats()
    return {
        "rows": {name.lower(): db.storage.table_rows(name)
                 for name in sorted(db.storage.stores())},
        "bytes_encoded": enc["bytes_encoded"],
        "sketch_bytes": enc["sketch_bytes"],
        "sketch_budget": db.columnar.sketches.budget_bytes,
        "sketches_cached": enc["sketches_cached"],
        # the cache starts empty after set-up and DDL never enters it
        "statements": db.plan_cache_misses - db.plan_cache_evictions,
        "plan_cache_size": db.plan_cache_size,
        "plan_cache_evictions": db.plan_cache_evictions,
        "shared_dicts_demoted": enc["shared_dicts_demoted"],
        "shared_dicts_total": enc["shared_dicts_total"],
    }


def format_sizes(label: str, s: dict) -> str:
    rows = " ".join(f"{name}={n}" for name, n in s["rows"].items())
    return (f"sizes[{label}]: rows {rows}\n"
            f"sizes[{label}]: bytes_encoded={s['bytes_encoded']} "
            f"sketch_bytes={s['sketch_bytes']}/{s['sketch_budget']} "
            f"(sketches={s['sketches_cached']}) "
            f"statements={s['statements']}/{s['plan_cache_size']} "
            f"(evictions={s['plan_cache_evictions']}) "
            f"shared_dicts_demoted={s['shared_dicts_demoted']}/"
            f"{s['shared_dicts_total']}")


@dataclass
class RunResult:
    """What one execution of a workload's operation sequence produced."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    # latencies are scaled to the reference box; freshness is wall time
    # without the calibration points
    latency: dict = field(default_factory=dict)   # kind -> [seconds]
    by_program: dict = field(default_factory=dict)  # name -> [seconds]
    freshness: list = field(default_factory=list)  # seconds
    calibration: list = field(default_factory=list)  # kernel seconds
    window_s: float = 0.0
    window_ref_s: float = 0.0
    check_s: float = 0.0
    completed: int = 0
    window_counts: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    sizes_start: dict = field(default_factory=dict)
    sizes_end: dict = field(default_factory=dict)
    state_crc: int = 0

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.window_s

    @property
    def ops_per_s_ref(self) -> float:
        """Throughput at the reference box's speed."""
        return self.completed / self.window_ref_s

    @property
    def scale(self) -> float:
        """The host's mean speed over the window, against the reference."""
        return self.window_ref_s / self.window_s


def run_sequence(db: Database, workload: Subenchmark, name: str, seed: int,
                 n_ops: int, tracer=None, check: bool = True) -> RunResult:
    """Warm up (olap_reports only), run the timed sequence, then check.

    With a ``tracer`` the engine is traced from the first timed operation
    to the end of the checks.  ``window_counts`` cover the timed window;
    ``counts`` also cover the checks, like the spans do.
    """
    out = RunResult(sizes_start=sizes(db))
    conn = db.connect()
    if WORKLOADS[name].warm_olap:
        warm_rng = Random(f"warm:{seed}")
        for profile in workload.analytical_queries():
            run_transaction(conn, "olap", profile.name, profile.program,
                            warm_rng, route_columnar=True)
    try:
        if tracer is not None:
            tracer.install()
        before = engine_counts(db)
        totals, retries = _timed_window(db, conn, workload, name, seed,
                                        n_ops, out, tracer)
        out.window_counts = _counts(totals, retries, before, db)
        if check:
            checks_start = perf_counter()
            check_results(db, _CountingConnection(conn, totals), workload,
                          seed, out, tracer)
            out.check_s = perf_counter() - checks_start
            out.counts = _counts(totals, retries, before, db)
            out.counts["state_crc"] = out.state_crc
    finally:
        if tracer is not None:
            tracer.uninstall()
    conn.close()
    out.sizes_end = sizes(db)
    return out


def _counts(totals: ExecStats, retries: int, before: dict,
            db: Database) -> dict:
    counts = _stat_counts(totals)
    counts["session_retries"] = retries
    for key, value in engine_counts(db).items():
        counts[key] = value - before[key]
        counts["end_" + key] = value
    return counts


def _timed_window(db: Database, conn, workload: Subenchmark, name: str,
                  seed: int, n_ops: int, out: RunResult, tracer):
    # the deal has its own stream, so the sequence of programs never
    # depends on how many draws a program's parameters took
    sequence = operations(workload, name, Random(f"deal:{seed}"))
    rng = Random(f"params:{seed}")
    totals = ExecStats()
    retries = 0
    # (commit-return time, calibration time so far) awaiting replication
    pending: list[tuple[float, float]] = []
    root = tracer.root if tracer is not None else None

    def replicate():
        db.replicate()
        done = perf_counter()
        out.freshness.extend(done - t - (paused - before)
                             for t, before in pending)
        pending.clear()

    # the window is a chain of intervals between calibration points; each
    # interval's time and latencies are scaled by the points around it
    intervals = []      # (seconds, [(kind, program, latency seconds)])
    lats: list[tuple] = []
    paused = 0.0        # calibration time so far, kept out of freshness

    def close_interval():
        nonlocal paused
        stop = perf_counter()
        intervals.append((stop - interval_start, lats))
        out.calibration.append(calibrate())
        resumed = perf_counter()
        paused += resumed - stop
        return resumed, []

    cal_every = WORKLOADS[name].cal_every
    out.calibration.append(calibrate())
    interval_start = perf_counter()
    for op_id in range(n_ops):
        if op_id and op_id % cal_every == 0:
            interval_start, lats = close_interval()
        kind, profile = next(sequence)
        out.attempted += 1
        with root(op_id) if root is not None else nullcontext():
            start = perf_counter()
            try:
                result = run_transaction(conn, kind, profile.name,
                                         profile.program, rng,
                                         route_columnar=(kind == "olap"))
            except Exception as exc:  # counted, the run goes on
                out.fail(f"op {op_id} {profile.name}: {exc!r}")
                continue
            finish = perf_counter()
        if result.aborted:
            out.fail(f"op {op_id} {profile.name}: aborted after "
                     f"{result.retries} retries")
            continue
        out.completed += 1
        lats.append((kind, profile.name, finish - start))
        retries += result.retries
        totals.merge(result.stats)
        if result.realtime_stats is not None:
            totals.merge(result.realtime_stats)
        if result.write_keys:
            pending.append((finish, paused))
            if len(pending) == REPLICATE_EVERY:
                replicate()
    if pending:
        replicate()
    close_interval()
    for (seconds, samples), before, after in zip(
            intervals, out.calibration, out.calibration[1:]):
        scale = host_scale(before, after)
        out.window_s += seconds
        out.window_ref_s += seconds * scale
        for kind, program, latency in samples:
            out.latency.setdefault(kind, []).append(latency * scale)
            out.by_program.setdefault(program, []).append(latency * scale)
    return totals, retries


# -- result checks (outside the timed window) ----------------------------------

class _CountingConnection:
    """Connection facade that folds each check statement's ExecStats into
    the run totals, so counts cover the checks like the spans do."""

    def __init__(self, conn, totals: ExecStats):
        self.db = conn.db
        self._conn = conn
        self._totals = totals

    def execute(self, sql: str, params: tuple = (),
                route_columnar: bool = False):
        result = self._conn.execute(sql, params, route_columnar)
        self._totals.merge(result.stats)
        return result

    def begin(self):
        return self._conn.begin()

    def commit(self):
        self._conn.commit()

    def rollback(self):
        self._conn.rollback()


class _Recorder:
    """Session stand-in that records the statements a query program issues."""

    def __init__(self):
        self.statements: list[tuple[str, tuple]] = []

    def execute(self, sql: str, params: tuple = ()):
        self.statements.append((sql, tuple(params)))


def analytical_statements(workload: Subenchmark, seed: int) -> list[tuple]:
    """``(label, sql, params)`` of each distinct analytical statement."""
    rng = Random(f"check:{seed}")
    out = []
    for profile in workload.analytical_queries():
        recorder = _Recorder()
        profile.program(recorder, rng)
        out += [(profile.name, sql, params)
                for sql, params in recorder.statements]
    return out


def state_digest(conn) -> int:
    """CRC-32 of every row-store table, rows sorted by primary key."""
    txn = conn.begin()
    crc = 0
    try:
        for table in sorted(conn.db.storage.stores()):
            rows = sorted(txn.scan(table), key=lambda row: row[0])
            crc = zlib.crc32(repr((table, rows)).encode(), crc)
    finally:
        conn.commit()
    return crc


def _by_district(conn, sql: str) -> dict:
    return {(row[0], row[1]): row[2:] for row in conn.execute(sql).rows}


def consistency_failures(conn) -> list[str]:
    """TPC-C consistency conditions on the row store after the run."""
    failures = []
    conn.begin()
    try:
        w_ytd = dict(conn.execute(
            "SELECT w_id, w_ytd FROM warehouse").rows)
        d_ytd = dict(conn.execute(
            "SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id").rows)
        for w_id, ytd in w_ytd.items():
            if not math.isclose(ytd, d_ytd.get(w_id, 0.0), rel_tol=1e-9):
                failures.append(f"W_YTD {ytd} != sum(D_YTD) "
                                f"{d_ytd.get(w_id)} for warehouse {w_id}")
        next_o = _by_district(conn, "SELECT d_w_id, d_id, d_next_o_id "
                                    "FROM district")
        orders = _by_district(
            conn, "SELECT o_w_id, o_d_id, MAX(o_id), SUM(o_ol_cnt), "
                  "SUM(CASE WHEN o_carrier_id IS NULL THEN 1 ELSE 0 END) "
                  "FROM orders GROUP BY o_w_id, o_d_id")
        lines = _by_district(
            conn, "SELECT ol_w_id, ol_d_id, COUNT(*) FROM order_line "
                  "GROUP BY ol_w_id, ol_d_id")
        backlog = _by_district(
            conn, "SELECT no_w_id, no_d_id, COUNT(*) FROM new_order "
                  "GROUP BY no_w_id, no_d_id")
        for key, (next_o_id,) in next_o.items():
            max_o, ol_cnt, undelivered = orders[key]
            if next_o_id - 1 != max_o:
                failures.append(f"D_NEXT_O_ID-1 {next_o_id - 1} != "
                                f"max(O_ID) {max_o} for district {key}")
            if ol_cnt != lines.get(key, (0,))[0]:
                failures.append(f"sum(O_OL_CNT) {ol_cnt} != order lines "
                                f"{lines.get(key)} for district {key}")
            if undelivered != backlog.get(key, (0,))[0]:
                failures.append(f"undelivered orders {undelivered} != "
                                f"NEW_ORDER rows {backlog.get(key)} for "
                                f"district {key}")
    finally:
        conn.commit()
    return failures


def route_mismatches(conn, statements: list[tuple]) -> list[str]:
    """Run each statement on the columnar route and on the row pipeline
    at one snapshot; the rows must be identical, types included."""
    failures = []
    conn.begin()
    try:
        for label, sql, params in statements:
            columnar = conn.execute(sql, params, route_columnar=True).rows
            row = conn.execute(sql, params).rows
            if repr(columnar) != repr(row):
                failures.append(f"{label}: columnar {columnar[:3]!r} != "
                                f"row {row[:3]!r}")
    finally:
        conn.commit()
    return failures


def visibility_failures(db: Database, conn) -> list[str]:
    """A committed write must be visible to columnar reads once the
    ``replicate()`` call after it returns."""
    sql = "SELECT w_ytd FROM warehouse WHERE w_id = ?"
    before = conn.execute(sql, (1,)).scalar()
    conn.begin()
    conn.execute("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
                 (1.0, 1))
    conn.execute("UPDATE district SET d_ytd = d_ytd + ? "
                 "WHERE d_w_id = ? AND d_id = ?", (1.0, 1, 1))
    conn.commit()
    db.replicate()
    seen = conn.execute(sql, (1,), route_columnar=True).scalar()
    if seen != before + 1.0:
        return [f"columnar W_YTD {seen!r} after replicate, expected "
                f"{before + 1.0!r}"]
    return []


def _digest(conn, out: RunResult) -> list:
    out.state_crc = state_digest(conn)
    return []


def check_results(db: Database, conn, workload: Subenchmark, seed: int,
                  out: RunResult, tracer=None):
    """Correctness checks after the timed window; each counts once."""
    steps = (
        ("state digest", lambda: _digest(conn, out)),
        ("replication caught up", lambda: (
            [] if db.replication_lag() == 0
            else [f"replication lag {db.replication_lag()} records"])),
        ("TPC-C consistency", lambda: consistency_failures(conn)),
        ("route parity", lambda: route_mismatches(
            conn, analytical_statements(workload, seed))),
        ("write visibility", lambda: visibility_failures(db, conn)),
    )
    for step_id, (label, step) in enumerate(steps):
        out.attempted += 1
        with tracer.root(-2 - step_id, "client.check") if tracer is not None \
                else nullcontext():
            try:
                problems = step()
            except Exception as exc:  # a crashing check is a failed check
                problems = [repr(exc)]
        if problems:
            out.fail(f"{label}: " + "; ".join(problems[:3]))


# -- one benchmark run ---------------------------------------------------------

def repeated_runs(name: str, seed: int, n_ops: int,
                  reps: int = REPS) -> tuple[list, list]:
    """Set up and run the sequence ``reps`` times on fresh databases.

    Returns the scaled set-up times and the ``RunResult`` of every
    repetition; only the last one runs the result checks.
    """
    setups, runs = [], []
    for rep in range(reps):
        gc.collect()
        db, workload, elapsed = setup(seed)
        setups.append(elapsed)
        runs.append(run_sequence(db, workload, name, seed, n_ops,
                                 check=(rep == reps - 1)))
        db = workload = None
    return setups, runs


def latency_summary(runs: list[RunResult]) -> dict:
    """Latency per class, per program and of all operations, plus
    freshness, pooled over ``runs``: ``{label: {n, p50, p95, p99}}`` in ms,
    each percentile only when at least ``TAIL_SAMPLES`` lie beyond it."""
    samples: dict = {}
    for out in runs:
        for label, values in [*sorted(out.latency.items()),
                              ("all", [v for values in out.latency.values()
                                       for v in values]),
                              ("freshness", out.freshness),
                              *sorted(out.by_program.items())]:
            samples.setdefault(label, []).extend(values)
    summary = {}
    for label, values in samples.items():
        if not values:
            continue
        row = {"n": len(values)}
        for q in (0.50, 0.95, 0.99):
            value, beyond = percentile(values, q)
            if beyond >= TAIL_SAMPLES or q == 0.50:
                row[f"p{round(q * 100)}"] = value * 1e3
        summary[label] = row
    return summary


def end_to_end(setups: list[float], runs: list[RunResult]) -> dict:
    """The end-to-end metrics ``{name: (value, unit)}``.

    Every timing is scaled to the reference box's speed by the
    calibration points around it.  Set-up time and throughput are medians
    over the repetitions; the p95 pools the operations of every
    repetition.  The latency medians are
    printed per class but not gated: on ``olap_reports`` the median falls
    in the band where the mid-cost queries and parameter-dependent Q6
    overlap, and it spread far beyond any bound the benchmark may set
    (see README.md).
    """
    every = [v for out in runs for values in out.latency.values()
             for v in values]
    tail, beyond = percentile(every, TAIL_Q)
    if beyond < TAIL_SAMPLES:
        raise RuntimeError(f"p95 has only {beyond} samples beyond it; "
                           f"the run needs more operations")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(r.ops_per_s_ref for r in runs),
                      "1/s"),
        "p95_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
