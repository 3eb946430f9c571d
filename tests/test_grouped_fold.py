"""The grouped-fold kernel against the row pipeline's per-value oracle.

``BatchAggregate`` folds batches through group-id vectors and per-group
column state; the row pipeline's ``Aggregate`` adds one value at a time.
Their outputs must be ``repr``-equal — same values, same types, same
signed zeros, same group order — on every configuration.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.sql.functions import make_accumulator, make_finaliser
from repro.sql.planner import TopN
from repro.sql.result import ExecStats
from repro.sql.vectorized import BatchAggregate


def _run(db: Database, sql: str, vectorized: bool) -> str:
    """``repr`` of the routed result, or the name of the error raised."""
    db.executor.use_vectorized = vectorized
    try:
        with db.connect() as conn:
            return repr(list(conn.execute(sql, (), route_columnar=True)))
    except (ArithmeticError, TypeError) as exc:
        return type(exc).__name__
    finally:
        db.executor.use_vectorized = True


# ---------------------------------------------------------------------------
# MIN/MAX over equal values of different numeric types
# ---------------------------------------------------------------------------

TIE_SQL = ("SELECT g, MIN(CASE WHEN k = 1 THEN 50 ELSE v END), "
           "MAX(CASE WHEN k = 1 THEN 50 ELSE v END) FROM t GROUP BY g "
           "ORDER BY g")


@pytest.mark.parametrize("partitions", [1, 2, 8])
def test_min_max_mixed_type_tie_is_deterministic(partitions):
    """Two groups hold the same multiset {50, 50.0} in opposite scan
    orders; both routes give both groups the same typed answer."""
    db = Database(with_columnar=True, columnar_segment_rows=4,
                  partitions=partitions)
    db.execute_ddl(
        "CREATE TABLE t (id INT PRIMARY KEY, g INT, k INT, v FLOAT)")
    with db.connect() as conn:
        for row in ((0, 1, 1, 50.0), (1, 1, 0, 50.0),
                    (2, 2, 0, 50.0), (3, 2, 1, 50.0)):
            conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        conn.commit()
    db.replicate()
    expected = repr([(1, 50.0, 50), (2, 50.0, 50)])
    assert _run(db, TIE_SQL, True) == expected
    assert _run(db, TIE_SQL, False) == expected


@pytest.mark.parametrize("name, expected", [("MIN", "-0.0"), ("MAX", "nan")])
def test_min_max_order_insensitive(name, expected):
    """add, add_many and merge agree in every fold order, NaN included
    (NaN orders above every number: MIN skips it, MAX returns it)."""
    values = [50, 50.0, float("nan"), 7, 7.0, -0.0, 0]
    results = set()
    for shift in range(len(values)):
        order = values[shift:] + values[:shift]
        one = make_accumulator(name)
        for value in order:
            one.add(value)
        bulk = make_accumulator(name)
        bulk.add_many(order)
        left, right = make_accumulator(name), make_accumulator(name)
        left.add_many(order[:3])
        right.add_many(order[3:])
        left.merge(right)
        results |= {repr(acc.result()) for acc in (one, bulk, left)}
        results.add(repr(make_finaliser(name)(order)))
    assert results == {expected}


# ---------------------------------------------------------------------------
# TopN: the canonical tiebreak is built lazily, ordering is unchanged
# ---------------------------------------------------------------------------

class _Rows:
    schema = None

    def __init__(self, rows):
        self.rows = rows

    def execute(self, ctx):
        return iter(self.rows)


class _Ctx:
    def __init__(self):
        self.stats = ExecStats()


@pytest.mark.parametrize("descending", [False, True])
def test_topn_ties_break_canonically(descending):
    rows = [(2, "b"), (1, "z"), (2, "a"), (1, "y"), (3, None), (2, 1.5),
            (1, 0), (None, "q")]
    node = TopN(_Rows(rows), [(lambda row, ctx: row[0], descending)], 4)
    got = list(node.execute(_Ctx()))
    # the reference: every tie ordered by the canonical row key
    if descending:
        expected = [(3, None), (2, 1.5), (2, "a"), (2, "b")]
    else:
        expected = [(None, "q"), (1, 0), (1, "y"), (1, "z")]
    assert got == expected


# ---------------------------------------------------------------------------
# finalisers: a group's collected values give the accumulator's result
# ---------------------------------------------------------------------------

_EDGE = [None, 0, -0.0, 0.0, 1, -1, 2 ** 53 + 1, -(2 ** 60), 0.1, 1e308,
         -1e308, 5e-324, float("inf"), float("-inf"), float("nan"),
         123.456, 7]


@given(st.lists(st.sampled_from(_EDGE), max_size=12),
       st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_finaliser_matches_accumulator(values, name, distinct):
    acc = make_accumulator(name, False, distinct)
    for value in values:
        acc.add(value)
    try:
        expected = repr(acc.result())
    except OverflowError:
        with pytest.raises(OverflowError):
            make_finaliser(name, False, distinct)(values)
        return
    assert repr(make_finaliser(name, False, distinct)(values)) == expected


def test_fsum_path_normalises_negative_zero():
    assert repr(make_finaliser("SUM")([-0.0, -0.0])) == "0.0"
    assert repr(make_finaliser("SUM")([1e308, 1e308, -1e308])) == "1e+308"


# ---------------------------------------------------------------------------
# generated differential: vectorized vs row across configurations
# ---------------------------------------------------------------------------

_INTS = st.one_of(st.none(), st.integers(-5, 5),
                  st.integers(2 ** 53, 2 ** 60))
_FLOATS = st.one_of(st.none(), st.sampled_from(
    [-0.0, 0.0, 0.5, 1e-300, 5e-324, float("inf"), float("-inf"),
     float("nan")]), st.floats(-1e6, 1e6))
# a column of raw mixed values (bulk-loaded, so no type coercion)
_MIXED = st.one_of(_INTS, _FLOATS)

_ROWS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3),
                           _INTS, _FLOATS, _MIXED),
                 min_size=20, max_size=70)

_KEYS = ["t.g", "t.k", "t.g % 3", "d.name"]
_ARGS = ["t.i", "t.f", "t.m", "CASE WHEN t.k = 1 THEN t.i ELSE t.f END"]
_AGGS = ["COUNT(*)", "COUNT({})", "SUM({})", "AVG({})", "MIN({})",
         "MAX({})", "SUM(DISTINCT {})"]
_FILTERS = ["", " WHERE t.f IS NOT NULL", " WHERE t.k > 1",
            " WHERE t.g + 0 < 20"]


@st.composite
def _queries(draw):
    keys = draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=3,
                         unique=True))
    aggs = [draw(st.sampled_from(_AGGS)).format(draw(st.sampled_from(_ARGS)))
            for _ in range(draw(st.integers(1, 4)))]
    joined = any(key.startswith("d.") for key in keys) or draw(st.booleans())
    source = "t JOIN d ON d.id = t.g" if joined else "t"
    if not joined:
        keys = [key for key in keys if not key.startswith("d.")] or ["t.g"]
    return (f"SELECT {', '.join(keys)}, {', '.join(aggs)} FROM {source}"
            f"{draw(st.sampled_from(_FILTERS))} GROUP BY {', '.join(keys)}")


def _load(rows, partitions: int, workers: int, segment_rows: int):
    db = Database(with_columnar=True, columnar_segment_rows=segment_rows,
                  partitions=partitions, workers=workers)
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, g INT, k INT, "
                   "i INT, f FLOAT, m FLOAT)")
    db.execute_ddl("CREATE TABLE d (id INT PRIMARY KEY, name VARCHAR(8))")
    db.bulk_load("d", ((i, f"n{i % 7}") for i in range(0, 40, 2)))
    half = len(rows) // 2
    db.bulk_load("t", ((n, *row) for n, row in enumerate(rows[:half])))
    db.replicate()
    db.columnar.compact(force=True)          # sealed, sketchable segments
    db.bulk_load("t", ((n + half, *row)
                       for n, row in enumerate(rows[half:])))
    db.replicate()                           # plus a delta tail
    return db


@given(rows=_ROWS, sql=_queries(),
       config=st.sampled_from([(p, w) for p in (1, 2, 8) for w in (0, 2)]),
       segment_rows=st.sampled_from([8, 64]),
       bulk=st.sampled_from([2, BatchAggregate.BULK_DISTINCT]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_vectorized_fold_matches_row_oracle(rows, sql, config, segment_rows,
                                            bulk):
    """Cold and warm (sketch) vectorized folds equal the row pipeline.

    ``bulk`` lowers the few-groups bound so both per-group folds — bulk
    ``add_many`` and collected value columns — run on small batches.
    """
    partitions, workers = config
    db = _load(rows, partitions, workers, segment_rows)
    saved = BatchAggregate.BULK_DISTINCT
    BatchAggregate.BULK_DISTINCT = bulk
    try:
        cold = _run(db, sql, True)
        warm = _run(db, sql, True)
        row = _run(db, sql, False)
    finally:
        BatchAggregate.BULK_DISTINCT = saved
        if db.pool is not None:
            db.pool.shutdown()
    assert cold == row, sql
    assert warm == row, sql


def test_many_groups_per_batch_match_oracle():
    """Batches touching more than ``BULK_DISTINCT`` groups collect value
    columns and finalise each group once (fsum for finite floats)."""
    rows = [(g % 30, 0, g, 0.1 * g, None) for g in range(90)]
    db = _load(rows, 1, 0, 64)
    sql = "SELECT g, SUM(f), AVG(f), SUM(i), MIN(f) FROM t GROUP BY g"
    assert _run(db, sql, True) == _run(db, sql, False)
    assert all(math.isfinite(r[1]) for r in db.query(sql).rows)
