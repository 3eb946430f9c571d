"""Aggregate accumulators and scalar functions.

NULL handling follows the pragmatic subset the benchmark queries need:
aggregates skip NULL inputs; ``COUNT(*)`` counts rows; ``AVG`` over an empty
or all-NULL input yields NULL.

Every accumulator is **order-insensitive and mergeable**: folding the same
multiset of values in any order — or as per-partition partials combined
with ``merge`` — produces bit-identical results.  SUM/AVG achieve this with
exact fixed-point integer accumulation (every finite double is an integer
multiple of 2^-1074, so sums of scaled integers are exact and the final
float conversion is one correctly-rounded division).  This is what lets
partition-parallel scatter-gather plans return byte-identical results to a
single-partition scan.
"""

from __future__ import annotations

from math import fsum, isfinite

from repro.errors import ExecutionError
from repro.sql.ordering import extreme_key

# 2^1074 scales any finite double to an exact integer (as_integer_ratio
# denominators are powers of two no larger than 2^1074)
_FLOAT_SCALE = 1 << 1074

_INT_ONLY = {int}
_FLOAT_ONLY = {float}


class _ExactSum:
    """Exact, order-insensitive sum of ints and floats.

    Integers accumulate separately from float mantissas, which are summed
    per binary exponent (``mantissas[e]`` holds the exact integer sum of
    all mantissas whose value was ``m * 2^e``) — small-int additions on the
    per-value hot path, with the single big-int reconstruction deferred to
    ``value()``.  ``value`` reproduces plain Python ``+`` semantics (int
    stays int until a float joins) with the float result correctly rounded
    irrespective of fold order.  Anything without an exact integer scaling
    — Decimals, inf/nan — falls back to ordered addition, preserving
    historical behaviour.
    """

    __slots__ = ("int_total", "mantissas", "float_seen", "other")

    def __init__(self):
        self.int_total = 0
        # binary exponent -> exact integer sum of mantissas at that scale
        self.mantissas: dict = {}
        self.float_seen = False
        self.other = None  # inexact fallback for inexactly-scalable addends

    def add(self, value):
        if isinstance(value, int):
            self.int_total += value
            return
        if isinstance(value, float):
            try:
                numerator, denominator = value.as_integer_ratio()
            except (OverflowError, ValueError):  # inf / nan
                pass
            else:
                # denominator is 2^k: value = numerator * 2^-k
                exponent = 1 - denominator.bit_length()
                mantissas = self.mantissas
                mantissas[exponent] = \
                    mantissas.get(exponent, 0) + numerator
                self.float_seen = True
                return
        self.other = value if self.other is None else self.other + value

    def add_times(self, value, count: int):
        """Fold ``count`` copies of ``value`` in one multiplication.

        Exact for ints and scalable floats (the mantissa times ``count``
        equals the sum of ``count`` mantissas at the same exponent), so an
        RLE run folds in O(1) with a bit-identical result to per-value adds.
        """
        if isinstance(value, int):
            self.int_total += value * count
            return
        if isinstance(value, float):
            try:
                numerator, denominator = value.as_integer_ratio()
            except (OverflowError, ValueError):  # inf / nan
                pass
            else:
                exponent = 1 - denominator.bit_length()
                mantissas = self.mantissas
                mantissas[exponent] = \
                    mantissas.get(exponent, 0) + numerator * count
                self.float_seen = True
                return
        for _ in range(count):      # inexact fallback keeps add() order
            self.add(value)

    def fold_values(self, values) -> int:
        """Fold an iterable of values exactly (NULLs skipped); returns the
        number of non-NULL values folded.

        The per-value int/float split is inlined here once — both SUM and
        AVG batch folds go through this single loop, so the exactness
        logic (and its inf/nan fallback) cannot diverge between them.
        """
        if type(values) is list:
            # one-type lists (the common gathered slice) fold at C speed
            present = _present(values)
            kinds = set(map(type, present))
            if kinds == _INT_ONLY:
                self.int_total += sum(present)
                return len(present)
            if kinds == _FLOAT_ONLY and _fold_float_mantissas(self, present):
                return len(present)
        count = 0
        int_total = 0
        floats = False
        mantissas = self.mantissas
        bucket = mantissas.get
        for value in values:
            if value is None:
                continue
            count += 1
            kind = type(value)
            if kind is int:
                int_total += value
            elif kind is float:
                try:
                    numerator, denominator = value.as_integer_ratio()
                except (OverflowError, ValueError):  # inf / nan
                    self.add(value)
                    continue
                exponent = 1 - denominator.bit_length()
                mantissas[exponent] = bucket(exponent, 0) + numerator
                floats = True
            else:          # bool / Decimal / subclasses: exact slow path
                self.add(value)
        self.int_total += int_total
        self.float_seen = self.float_seen or floats
        return count

    def merge(self, sub: "_ExactSum"):
        self.int_total += sub.int_total
        mantissas = self.mantissas
        for exponent, mantissa in sub.mantissas.items():
            mantissas[exponent] = mantissas.get(exponent, 0) + mantissa
        self.float_seen = self.float_seen or sub.float_seen
        if sub.other is not None:
            self.other = sub.other if self.other is None \
                else self.other + sub.other

    def _scaled_total(self) -> int:
        """The exact float sum scaled by 2^1074 (one big-int fold)."""
        # every finite double's exponent is >= -1074, so the shift is >= 0
        return sum(mantissa << (1074 + exponent)
                   for exponent, mantissa in self.mantissas.items())

    def value(self):
        if self.other is not None:
            total = self.other
            if self.int_total:
                total = total + self.int_total
            if self.float_seen:
                total = total + self._scaled_total() / _FLOAT_SCALE
            return total
        if not self.float_seen:
            return self.int_total
        # one exact big-int sum, one correctly-rounded conversion
        return (self._scaled_total() + self.int_total * _FLOAT_SCALE) \
            / _FLOAT_SCALE

    def averaged(self, count: int):
        """Exact total divided by ``count``, correctly rounded."""
        if self.other is not None:
            return self.value() / count
        return (self._scaled_total() + self.int_total * _FLOAT_SCALE) \
            / (_FLOAT_SCALE * count)


def _fold_float_mantissas(total: _ExactSum, values) -> bool:
    """Fold an all-float slice into ``total`` exactly, at batch speed.

    ``map(float.as_integer_ratio, ...)`` runs the expensive decomposition
    as a C-level pipeline; the mantissa sums land in a local dict that is
    committed only on success, so an inf/nan (which has no integer ratio)
    aborts cleanly and returns False — the caller then takes the generic
    per-value path, which handles non-finite floats via ``add``.
    """
    local: dict = {}
    get = local.get
    try:
        for numerator, denominator in map(float.as_integer_ratio, values):
            exponent = 1 - denominator.bit_length()
            local[exponent] = get(exponent, 0) + numerator
    except (OverflowError, ValueError):      # inf / nan in the slice
        return False
    mantissas = total.mantissas
    for exponent, mantissa in local.items():
        mantissas[exponent] = mantissas.get(exponent, 0) + mantissa
    total.float_seen = True
    return True


def _fold_typed_slice(total: _ExactSum, values) -> bool:
    """Fold a typed-array column slice (NATIVE encoding) exactly.

    Dense ranges of a sealed typed column — whole unfiltered segments, or
    RLE-run-shaped selections — fold via the column's precomputed exact
    block partials (floats) or one builtin ``sum`` over the array slice
    (ints), without materialising a single Python value.  Non-contiguous
    typed slices fall back to C-pipeline folds over the gathered values.
    Returns False when ``values`` carries no typed-slice guarantee; the
    caller then runs the generic per-value fold.
    """
    source = getattr(values, "contiguous_source", None)
    if source is not None and (found := source()) is not None:
        column, start, stop = found
        int_sum = column.range_int_sum(start, stop)
        if int_sum is not None:
            total.int_total += int_sum
            return True
        if column.fold_range_sum(total.mantissas, start, stop):
            total.float_seen = True
            return True
    ranges_source = getattr(values, "contiguous_ranges", None)
    if ranges_source is not None and (found := ranges_source()) is not None:
        # sorted segments turn range/equality selections into a handful of
        # dense spans per segment: fold each span through the same exact
        # block partials instead of materialising the gather
        column, ranges = found
        if column.data.typecode == "q" and not column.nulls:
            total.int_total += sum(column.range_int_sum(start, stop)
                                   for start, stop in ranges)
            return True
        if all(column.fold_range_sum(total.mantissas, start, stop)
               for start, stop in ranges):
            # fold_range_sum is all-or-nothing per column (typecode/nulls/
            # non-finite), so a False can only happen on the first range —
            # nothing was committed and the generic fold takes over
            total.float_seen = True
            return True
    if getattr(values, "all_ints", False):
        total.int_total += sum(values)           # builtin sum: exact for ints
        return True
    if getattr(values, "all_floats", False):
        return _fold_float_mantissas(total, values)
    return False


class Accumulator:
    """Base aggregate accumulator."""

    def add(self, value):
        raise NotImplementedError

    def add_many(self, values):
        """Fold a whole column slice in (vectorized executor entry point).

        The default preserves the exact per-value fold order of ``add`` so
        both executors produce bit-identical results; subclasses override
        it only where a batch shortcut cannot change the outcome.
        """
        for value in values:
            self.add(value)

    def merge(self, sub: "Accumulator"):
        """Fold a partial accumulator in (partition-parallel aggregation)."""
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class CountAccumulator(Accumulator):
    def __init__(self, count_star: bool = False, distinct: bool = False):
        self.count_star = count_star
        self.distinct = distinct
        self.count = 0
        self._seen = set() if distinct else None

    def add(self, value):
        if self.count_star:
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self.count += 1

    def add_many(self, values):
        if self.count_star:
            self.count += len(values)
        elif self.distinct:
            super().add_many(values)
        else:
            self.count += len(values) - values.count(None)

    def merge(self, sub: "CountAccumulator"):
        if self.distinct:
            self._seen |= sub._seen
            self.count = len(self._seen)
        else:
            self.count += sub.count

    def result(self):
        return self.count


class SumAccumulator(Accumulator):
    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self._sum = _ExactSum()
        self._any = False
        self._seen = set() if distinct else None

    def add(self, value):
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._any = True
        self._sum.add(value)

    def add_many(self, values):
        """Batch fold: RLE column slices fold run-at-a-time (value * n);
        typed-array slices (NATIVE encoding) fold at C speed exploiting
        their no-NULL homogeneous-type guarantee; other slices fold through
        an inlined int/float split that does the exact arithmetic of
        per-value ``add`` without its call overhead."""
        if self.distinct:
            super().add_many(values)
            return
        runs = getattr(values, "iter_runs", None)
        if runs is not None:
            for value, n in runs():
                if value is not None:
                    self._any = True
                    self._sum.add_times(value, n)
            return
        total = self._sum
        if len(values) and _fold_typed_slice(total, values):
            self._any = True
            return
        if total.fold_values(values):
            self._any = True

    def merge(self, sub: "SumAccumulator"):
        if self.distinct:
            for value in sub._seen - self._seen:
                self._seen.add(value)
                self._any = True
                self._sum.add(value)
        else:
            self._any = self._any or sub._any
            self._sum.merge(sub._sum)

    def result(self):
        return self._sum.value() if self._any else None


class AvgAccumulator(Accumulator):
    def __init__(self, distinct: bool = False):
        self.distinct = distinct
        self._sum = _ExactSum()
        self.count = 0
        self._seen = set() if distinct else None

    def add(self, value):
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._sum.add(value)
        self.count += 1

    def add_many(self, values):
        """Batch fold: RLE runs multiply, typed-array slices fold at C
        speed, other slices inline the int/float split (exact arithmetic
        identical to per-value ``add``)."""
        if self.distinct:
            super().add_many(values)
            return
        runs = getattr(values, "iter_runs", None)
        if runs is not None:
            for value, n in runs():
                if value is not None:
                    self._sum.add_times(value, n)
                    self.count += n
            return
        total = self._sum
        if len(values) and _fold_typed_slice(total, values):
            self.count += len(values)
            return
        self.count += total.fold_values(values)

    def merge(self, sub: "AvgAccumulator"):
        if self.distinct:
            for value in sub._seen - self._seen:
                self._seen.add(value)
                self._sum.add(value)
                self.count += 1
        else:
            self._sum.merge(sub._sum)
            self.count += sub.count

    def result(self):
        return self._sum.averaged(self.count) if self.count else None


def _pick_extreme(present: list, pick):
    """``pick`` (builtin ``min``/``max``) of non-NULL values under the
    ``extreme_key`` order.  One-type int/str lists, and float lists with no
    NaN (a NaN-free float list has a non-NaN builtin sum), already order
    totally under ``<``: they skip the key at C speed."""
    kinds = set(map(type, present))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is int or kind is str:
            return pick(present)
        if kind is float and (total := sum(present)) == total:
            return pick(present)
    return pick(present, key=extreme_key)


class MinAccumulator(Accumulator):
    """MIN under ``extreme_key``: the result is independent of fold order
    (mixed-type ties and NaN included), so partials merge exactly."""

    def __init__(self, distinct: bool = False):
        self.value = None

    def add(self, value):
        if value is None:
            return
        current = self.value
        # plain comparisons decide every strict pair; equal, NaN and
        # uncomparable pairs fall through to the total order
        if current is None or value < current or (
                not value > current
                and extreme_key(value) < extreme_key(current)):
            self.value = value

    def add_many(self, values):
        runs = getattr(values, "iter_runs", None)
        if runs is not None:
            present = [v for v, _n in runs() if v is not None]
        else:
            present = [v for v in values if v is not None]
        if present:
            self.add(_pick_extreme(present, min))

    def merge(self, sub: "MinAccumulator"):
        self.add(sub.value)

    def result(self):
        return self.value


class MaxAccumulator(Accumulator):
    """MAX under ``extreme_key`` (see ``MinAccumulator``)."""

    def __init__(self, distinct: bool = False):
        self.value = None

    def add(self, value):
        if value is None:
            return
        current = self.value
        if current is None or value > current or (
                not value < current
                and extreme_key(value) > extreme_key(current)):
            self.value = value

    def add_many(self, values):
        runs = getattr(values, "iter_runs", None)
        if runs is not None:
            present = [v for v, _n in runs() if v is not None]
        else:
            present = [v for v in values if v is not None]
        if present:
            self.add(_pick_extreme(present, max))

    def merge(self, sub: "MaxAccumulator"):
        self.add(sub.value)

    def result(self):
        return self.value


AGGREGATES = {
    "COUNT": CountAccumulator,
    "SUM": SumAccumulator,
    "AVG": AvgAccumulator,
    "MIN": MinAccumulator,
    "MAX": MaxAccumulator,
}


def make_accumulator(name: str, count_star: bool = False,
                     distinct: bool = False) -> Accumulator:
    if name == "COUNT":
        return CountAccumulator(count_star, distinct)
    try:
        return AGGREGATES[name](distinct)
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {name!r}") from None


# ---------------------------------------------------------------------------
# one-shot finalisers: the result an accumulator would return after
# ``add_many(values)``, computed once per group from its collected values
# ---------------------------------------------------------------------------

def _present(values: list) -> list:
    return values if None not in values \
        else [v for v in values if v is not None]


def _sum_of(values: list):
    """Exact SUM.  ``math.fsum`` is correctly rounded, so on finite floats
    it equals ``_ExactSum``'s single rounding (``+ 0.0`` maps its ``-0.0``
    to the exact sum's ``0.0``); ints, mixed types, non-finite values and
    fsum's intermediate overflow take ``_ExactSum`` itself."""
    present = _present(values)
    if not present:
        return None
    kinds = set(map(type, present))
    if kinds == _INT_ONLY:
        return sum(present)
    if kinds == _FLOAT_ONLY:
        try:
            total = fsum(present)
        except (OverflowError, ValueError):
            total = None
        if total is not None and isfinite(total):
            return total + 0.0
    exact = _ExactSum()
    exact.fold_values(present)
    return exact.value()


def _avg_of(values: list):
    """Exact AVG: one correctly rounded division of the exact total (an
    int total divides by the count directly, which rounds identically)."""
    present = _present(values)
    if not present:
        return None
    if set(map(type, present)) == _INT_ONLY:
        return sum(present) / len(present)
    exact = _ExactSum()
    exact.fold_values(present)
    return exact.averaged(len(present))


def _min_of(values: list):
    present = _present(values)
    return _pick_extreme(present, min) if present else None


def _max_of(values: list):
    present = _present(values)
    return _pick_extreme(present, max) if present else None


def _count_of(values: list) -> int:
    return len(values) - values.count(None)


_FINALISERS = {"SUM": _sum_of, "AVG": _avg_of, "MIN": _min_of,
               "MAX": _max_of, "COUNT": _count_of}


def make_finaliser(name: str, count_star: bool = False,
                   distinct: bool = False):
    """``fn(values) -> result`` for one group's collected argument values
    (``COUNT(*)`` collects a row count instead), equal to folding them
    into ``make_accumulator(name, count_star, distinct)``."""
    if count_star:
        return int
    if distinct or name not in _FINALISERS:
        def fold(values):
            acc = make_accumulator(name, count_star, distinct)
            acc.add_many(values)
            return acc.result()
        return fold
    return _FINALISERS[name]


def sql_abs(value):
    return None if value is None else abs(value)


def sql_round(value, digits=0):
    if value is None:
        return None
    return round(value, int(digits))


def sql_length(value):
    return None if value is None else len(str(value))


def sql_substr(value, start, length=None):
    if value is None:
        return None
    text = str(value)
    begin = int(start) - 1  # SQL is 1-based
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


def sql_upper(value):
    return None if value is None else str(value).upper()


def sql_lower(value):
    return None if value is None else str(value).lower()


def sql_mod(a, b):
    if a is None or b is None:
        return None
    return a % b


SCALARS = {
    "ABS": sql_abs,
    "ROUND": sql_round,
    "LENGTH": sql_length,
    "SUBSTR": sql_substr,
    "SUBSTRING": sql_substr,
    "UPPER": sql_upper,
    "LOWER": sql_lower,
    "MOD": sql_mod,
}


def like_to_predicate(pattern: str):
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a matcher."""
    import re as _re

    regex = _re.compile(
        "^" + "".join(
            ".*" if ch == "%" else "." if ch == "_" else _re.escape(ch)
            for ch in pattern
        ) + "$",
        _re.DOTALL,
    )

    def match(value) -> bool:
        return value is not None and regex.match(str(value)) is not None

    return match
