"""Table statistics (the engine's ANALYZE).

The optimizer estimates selectivities from per-column statistics:
null fraction, distinct count, min/max, an equi-depth histogram, and
the most common values with their frequencies — the same summary
PostgreSQL keeps in ``pg_statistic``. Statistics are computed by a full
scan at load time; they are deliberately *estimates* (bounded histogram
resolution, truncated MCV list), so the optimizer can be wrong in the
ways real optimizers are wrong.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.schema import TableSchema
from repro.engine.storage import HeapFile
from repro.engine.types import Date, Value

#: Number of equi-depth histogram buckets kept per column.
HISTOGRAM_BUCKETS = 100
#: Number of most-common values kept per column.
MCV_ENTRIES = 25


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    name: str
    n_values: int
    null_fraction: float
    n_distinct: int
    min_value: Optional[Value] = None
    max_value: Optional[Value] = None
    #: Equi-depth histogram bucket boundaries (len = buckets + 1) over
    #: the non-null values *excluding* MCVs (as in PostgreSQL: heavy
    #: duplicates distort interpolation, so they are carried separately).
    histogram: List[Value] = field(default_factory=list)
    #: Most common values and their frequencies among non-null values.
    mcv: List[Tuple[Value, float]] = field(default_factory=list)
    avg_width: float = 8.0

    def selectivity_eq(self, value: Value) -> float:
        """Estimated fraction of rows equal to *value*."""
        if value is None:
            return self.null_fraction
        for mcv_value, freq in self.mcv:
            if mcv_value == value:
                return freq * (1.0 - self.null_fraction)
        if self.n_distinct <= 0:
            return 0.0
        mcv_mass = sum(freq for _v, freq in self.mcv)
        remaining = max(0.0, 1.0 - mcv_mass)
        remaining_distinct = max(1, self.n_distinct - len(self.mcv))
        return (remaining / remaining_distinct) * (1.0 - self.null_fraction)

    def selectivity_range(self, low: Optional[Value], high: Optional[Value],
                          low_inclusive: bool = True,
                          high_inclusive: bool = True) -> float:
        """Estimated fraction of rows in [low, high] (open bounds = None).

        PostgreSQL-style decomposition: the MCV list answers exactly for
        the heavy values; the histogram (built over non-MCV values)
        answers for the rest, weighted by the non-MCV mass.
        """
        non_null = 1.0 - self.null_fraction
        if non_null <= 0:
            return 0.0

        mcv_in_range = sum(
            freq for value, freq in self.mcv
            if _in_range(value, low, high, low_inclusive, high_inclusive)
        )
        mcv_total = sum(freq for _v, freq in self.mcv)
        remainder_mass = max(0.0, 1.0 - mcv_total)

        remainder_fraction = 0.0
        if remainder_mass > 0:
            lo_pos = 0.0 if low is None else self._cdf(
                low, strictly_below=low_inclusive
            )
            hi_pos = 1.0 if high is None else self._cdf(
                high, strictly_below=not high_inclusive
            )
            remainder_fraction = max(0.0, hi_pos - lo_pos)

        combined = mcv_in_range + remainder_fraction * remainder_mass
        return min(1.0, combined) * non_null

    def _cdf(self, value: Value, strictly_below: bool) -> float:
        """Approximate P(col <= value | col is a non-MCV value).

        *strictly_below* asks for P(col < value); over the near-unique
        histogram remainder the difference is at most one value's worth
        of interpolation, so both use the same interpolated position.
        """
        hist = self.histogram
        if not hist:
            # No remainder histogram (all mass in the MCV list, or no
            # information at all): fall back to global bounds.
            if self.min_value is None or self.max_value is None:
                return 0.5
            if _lt(value, self.min_value):
                return 0.0
            if not _lt(value, self.max_value):
                return 1.0
            return 0.5
        if _lt(value, hist[0]):
            return 0.0
        if not _lt(value, hist[-1]):
            return 1.0
        n_buckets = len(hist) - 1
        position = 1.0
        for i in range(n_buckets):
            lo, hi = hist[i], hist[i + 1]
            if not _lt(hi, value):
                within = _fraction_within(lo, hi, value)
                position = (i + within) / n_buckets
                break
        return min(1.0, max(0.0, position))


def _lt(a: Value, b: Value) -> bool:
    return a < b  # type: ignore[operator]


def _in_range(value: Value, low: Optional[Value], high: Optional[Value],
              low_inclusive: bool, high_inclusive: bool) -> bool:
    """Whether a concrete value lies inside the (possibly open) interval."""
    if low is not None:
        if _lt(value, low):
            return False
        if not low_inclusive and not _lt(low, value):
            return False
    if high is not None:
        if _lt(high, value):
            return False
        if not high_inclusive and not _lt(value, high):
            return False
    return True


def _fraction_within(lo: Value, hi: Value, value: Value) -> float:
    """Linear interpolation of *value*'s position inside [lo, hi]."""
    if isinstance(lo, Date) and isinstance(hi, Date) and isinstance(value, Date):
        lo_n, hi_n, v_n = lo.ordinal, hi.ordinal, value.ordinal
    elif isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
            and isinstance(value, (int, float)):
        lo_n, hi_n, v_n = float(lo), float(hi), float(value)
    else:
        return 0.5  # non-interpolable type (e.g. text): midpoint
    if hi_n <= lo_n:
        return 1.0
    return min(1.0, max(0.0, (v_n - lo_n) / (hi_n - lo_n)))


@dataclass
class TableStats:
    """Statistics for one table."""

    table_name: str
    n_rows: int
    n_pages: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


def analyze_column(name: str, values: Sequence[Value],
                   avg_width: float = 8.0) -> ColumnStats:
    """Compute :class:`ColumnStats` for one column's values."""
    n_values = len(values)
    non_null = [v for v in values if v is not None]
    null_fraction = 0.0 if n_values == 0 else (n_values - len(non_null)) / n_values
    if not non_null:
        return ColumnStats(
            name=name, n_values=n_values, null_fraction=null_fraction,
            n_distinct=0, avg_width=avg_width,
        )
    counter = Counter(non_null)
    n_distinct = len(counter)
    ordered = sorted(non_null)

    mcv: List[Tuple[Value, float]] = []
    if n_distinct <= MCV_ENTRIES * 4:
        # Only keep MCVs when they carry real skew information.
        common = counter.most_common(MCV_ENTRIES)
        uniform_freq = 1.0 / n_distinct
        mcv = [
            (value, count / len(non_null))
            for value, count in common
            if count / len(non_null) > uniform_freq * 1.5
        ]

    # The histogram covers the values the MCV list does not: duplicates
    # heavy enough to be MCVs would make equi-depth interpolation lie.
    mcv_values = {value for value, _freq in mcv}
    remainder = [v for v in ordered if v not in mcv_values]
    histogram: List[Value] = []
    remainder_distinct = len(set(remainder))
    if remainder_distinct > 1:
        buckets = min(HISTOGRAM_BUCKETS, remainder_distinct)
        histogram = [remainder[0]]
        for i in range(1, buckets):
            histogram.append(remainder[(i * (len(remainder) - 1)) // buckets])
        histogram.append(remainder[-1])

    return ColumnStats(
        name=name,
        n_values=n_values,
        null_fraction=null_fraction,
        n_distinct=n_distinct,
        min_value=ordered[0],
        max_value=ordered[-1],
        histogram=histogram,
        mcv=mcv,
        avg_width=avg_width,
    )


def analyze_table(heap: HeapFile) -> TableStats:
    """Full-scan ANALYZE of a heap file."""
    schema: TableSchema = heap.schema
    rows = heap.rows
    columns_values = [list(map(itemgetter(i), rows))
                      for i in range(len(schema.columns))]
    stats = TableStats(
        table_name=schema.name,
        n_rows=heap.n_rows,
        n_pages=heap.n_pages,
    )
    for column, values in zip(schema.columns, columns_values):
        stats.columns[column.name] = analyze_column(
            column.name, values, avg_width=float(column.avg_width)
        )
    return stats
