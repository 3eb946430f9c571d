"""In-memory span tracer wrapped around the engine's public entry points.

The tracer patches the layer entry points from outside the engine (no edit
under ``src/``) and records one span per call: name, start, end, parent
span, operation id, the time its child spans covered, and an item count.
An entry point that returns a generator is timed across every resumption;
its span is parented to the span that first consumes it, and each
resumption's time is charged to whichever span is consuming it then, so
self times stay exact.  Spans live in flat typed arrays until the run ends.

Per name, ``calls``/``ms``/``items`` count only *outermost* spans (no
enclosing span of the same name, so a partitioned store delegating to its
shard is one call), while ``self_ms`` sums every span's own time.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# the span the closed-loop client opens around each workload operation
OP_SPAN = "client.op"


class Tracer:
    """Span recorder; ``install()`` patches the engine, ``uninstall()``
    restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open_counts: list[int] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.dur = array("d")
        self.child = array("d")
        self.items = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        # statements routed to the columnar replica that the executor ran
        # on the row pipeline instead (no vectorized plan for them)
        self.columnar_fallbacks = 0
        self._patches: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open_counts.append(0)
        return nid

    def _open(self, nid: int, start: float) -> int:
        span = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.outer.append(self._open_counts[nid] == 0)
        self.start.append(start)
        self.end.append(start)
        self.dur.append(0.0)
        self.child.append(0.0)
        self.items.append(0)
        return span

    def _enter(self, span: int):
        self._open_counts[self.name_id[span]] += 1
        self._stack.append(span)

    def _leave(self, span: int, start: float):
        """Close one interval of ``span`` that began at ``start``."""
        self._stack.pop()
        elapsed = perf_counter() - start
        self._open_counts[self.name_id[span]] -= 1
        self.dur[span] += elapsed
        self.end[span] = start + elapsed
        if self._stack:
            self.child[self._stack[-1]] += elapsed

    @contextmanager
    def root(self, op_id: int, name: str = OP_SPAN):
        """Client-owned span around one operation (or one check step)."""
        self.current_op = op_id
        start = perf_counter()
        span = self._open(self.nid(name), start)
        self._enter(span)
        try:
            yield span
        finally:
            self._leave(span, start)
            self.current_op = -1

    def call(self, original, nid: int, after=None):
        """Wrap a plain function: one span per call."""
        tracer = self

        def traced(*args, **kwargs):
            start = perf_counter()
            span = tracer._open(nid, start)
            tracer._enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(span, start)
            if after is not None:
                after(tracer, span, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def generator(self, original, nid: int):
        """Wrap a generator function: one span across all resumptions."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer._iterate(original(*args, **kwargs), nid)

        traced.__wrapped__ = original
        return traced

    def _iterate(self, inner, nid: int):
        span = -1
        items = 0
        try:
            while True:
                start = perf_counter()
                if span < 0:
                    span = self._open(nid, start)
                self._enter(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(span, start)
                items += 1
                yield item
        finally:
            if span >= 0:
                self.items[span] += items
            inner.close()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        nid = self.nid(name)
        if inspect.isgeneratorfunction(original):
            replacement = self.generator(original, nid)
        else:
            replacement = self.call(original, nid, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original, replacement

    def install(self):
        """Patch every traced layer entry point (see ``_entry_points``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.sql import parser

        original, replacement = self._patch(parser, "parse_sql",
                                            "parser.parse")
        # modules that imported parse_sql by name hold their own reference
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and module is not parser and \
                    getattr(module, "parse_sql", None) is original:
                self._patches.append((module, "parse_sql", original))
                module.parse_sql = replacement
        for owner, attr, name, after in _entry_points():
            self._patch(owner, attr, name, after)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """``{name: {calls, ms, self_ms, items}}`` over every span."""
        n = len(self.names)
        calls, incl, own, items = [0] * n, [0.0] * n, [0.0] * n, [0] * n
        for nid, outer, dur, child, count in zip(
                self.name_id, self.outer, self.dur, self.child, self.items):
            own[nid] += dur - child
            if outer:
                calls[nid] += 1
                incl[nid] += dur
                items[nid] += count
        return {name: {"calls": calls[i], "ms": incl[i] * 1e3,
                       "self_ms": own[i] * 1e3, "items": items[i]}
                for i, name in enumerate(self.names)}

    def attribution_error_ms(self) -> float:
        """Sum over operations of |root wall time - sum of self times|.

        Every span's self time is its duration minus what its children
        covered, so within one operation the self times of the client's
        root span and every layer span below it must add up to the root's
        wall time; a lost or double-charged interval shows here.
        """
        self_by_op: dict[int, float] = {}
        root_by_op: dict[int, float] = {}
        for op, parent, dur, child in zip(self.op, self.parent, self.dur,
                                          self.child):
            self_by_op[op] = self_by_op.get(op, 0.0) + dur - child
            if parent < 0:
                root_by_op[op] = root_by_op.get(op, 0.0) + dur
        return sum(abs(root_by_op.get(op, 0.0) - own)
                   for op, own in self_by_op.items()) * 1e3

    def nesting_violations(self) -> int:
        """Spans that start before, or end after, the span that contains
        them, or whose children cover more time than they last."""
        bad = 0
        eps = 1e-9
        for span, parent in enumerate(self.parent):
            if self.child[span] > self.dur[span] + eps:
                bad += 1
            if parent >= 0 and (self.start[span] < self.start[parent] - eps
                                or self.end[span] > self.end[parent] + eps):
                bad += 1
        return bad


def _select_after(tracer: Tracer, span: int, args: tuple, result):
    """Classify ``Executor.execute_select`` by the pipeline that ran."""
    route_columnar = len(args) > 4 and bool(args[4])
    if result.stats.vectorized:
        tracer.name_id[span] = tracer.nid("executor.select_columnar")
    elif route_columnar:
        tracer.columnar_fallbacks += 1
    tracer.items[span] = len(result.rows)


def _count_after(tracer: Tracer, span: int, args: tuple, result):
    tracer.items[span] = int(result)


def _entry_points() -> list[tuple]:
    """``(owner, attribute, span name, after-hook)`` for every traced layer."""
    from repro.db.database import Connection, Database
    from repro.sql.executor import Executor
    from repro.sql.planner import Planner
    from repro.sql.vectorized import BatchAggregate, VColumnarScan, VHashJoin
    from repro.storage.columnstore import ColumnarReplica
    from repro.storage.rowstore import PartitionedTableStore, TableStore
    from repro.storage.wal import WriteAheadLog
    from repro.txn.locks import LockManager
    from repro.txn.manager import TransactionManager

    points = [
        (Connection, "execute", "database.execute", None),
        (Database, "replicate", "database.replicate", None),
        (Planner, "plan", "planner.plan", None),
        (Executor, "execute_select", "executor.select_row", _select_after),
        (Executor, "execute_insert", "executor.dml", None),
        (Executor, "execute_update", "executor.dml", None),
        (Executor, "execute_delete", "executor.dml", None),
        (TransactionManager, "begin", "txn.begin", None),
        (TransactionManager, "commit", "txn.commit", None),
        (LockManager, "acquire", "locks.acquire", None),
        (WriteAheadLog, "append", "wal.append", None),
        (WriteAheadLog, "read_from", "wal.read", None),
        (ColumnarReplica, "apply_from_partitions", "columnstore.apply",
         _count_after),
        (ColumnarReplica, "compact", "columnstore.compact", None),
    ]
    for store in (TableStore, PartitionedTableStore):
        points += [
            (store, "install", "rowstore.install", None),
            (store, "get", "rowstore.lookup", None),
            (store, "scan", "rowstore.scan", None),
            (store, "pk_prefix_scan", "rowstore.scan", None),
        ]
    # the vectorized operators hand per-partition batch generators to
    # their consumers, so the stream producers are traced with the
    # execute methods: that is where a scan, probe or fold does its work
    for attr in ("execute_partitions", "_scan_partition",
                 "_scan_partition_ordered", "_scan_partition_ordered_reverse"):
        points.append((VColumnarScan, attr, "vectorized.scan", None))
    for attr in ("execute_batches", "execute_partitions", "_build",
                 "_build_coded", "_probe", "_probe_coded"):
        points.append((VHashJoin, attr, "vectorized.join", None))
    for attr in ("execute", "_fold"):
        points.append((BatchAggregate, attr, "vectorized.aggregate", None))
    return points
