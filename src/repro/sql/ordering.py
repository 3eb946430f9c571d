"""Canonical value/row ordering shared across the engine layers.

One total order over the SQL value domain is load-bearing in three places:

* ``Sort``/``TopN`` break ORDER BY ties with the canonical *row* key, so
  query output is a pure function of the input multiset (partition- and
  segment-layout-independent);
* sorted compaction physically orders main segments by the table's sort
  key using the canonical *value* key (it must never raise on mixed or
  NULL sort-key values);
* the merge-on-read scan and the sort-elision operator compare the same
  canonical keys when interleaving delta rows and partition streams.

A fourth order, ``extreme_key``, decides MIN/MAX: it makes the result a
pure function of the input multiset even where plain ``<`` cannot (equal
values of different numeric types, NaN).

Keeping the helpers in one module guarantees all three agree: wherever
``_sort_key`` comparison is defined (NULLs first, then value), the
canonical key orders identically — it only *extends* that order to pairs
``_sort_key`` would raise on (mixed types).
"""

from __future__ import annotations


def sort_key(value):
    """ORDER BY comparison key: NULLs sort first (before any value).

    Mixed uncomparable types raise ``TypeError``, exactly like comparing
    them in SQL would be an error in this engine.
    """
    return (value is not None, value)


def canonical_value_key(value):
    """A total order over the value domain (NULLs, numbers, strings).

    Orders identically to ``sort_key`` wherever ``sort_key`` is defined,
    and never raises on mixed types (numbers before strings before other
    types) — the property sorted compaction and tie-breaking rely on.
    """
    if value is None:
        return (0, "", 0)
    if isinstance(value, (int, float)):
        return (1, "", value)
    if isinstance(value, str):
        return (2, "", value)
    return (3, type(value).__name__, repr(value))


def canonical_row_key(row: tuple):
    """Canonical whole-row tiebreak used by Sort/TopN and sort elision."""
    return tuple(canonical_value_key(v) for v in row)


def canonical_key_of(values, positions) -> tuple:
    """Canonical key tuple of ``values`` restricted to ``positions``."""
    return tuple(canonical_value_key(values[p]) for p in positions)


def extreme_key(value):
    """MIN/MAX order over non-NULL values: a total order on numbers.

    Plain ``<`` leaves two cases to fold order: equal values of different
    types (``50`` and ``50.0``) and NaN, which compares false with
    everything.  This key orders NaN above every other number (MIN skips
    it unless nothing else is present, MAX returns it) and breaks equal
    values by type name (``50.0`` below ``50``).  Elsewhere it orders
    exactly like ``<`` and, like it, raises on uncomparable types.
    """
    return (value != value, value, type(value).__name__)
