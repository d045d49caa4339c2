"""Value types used by the engine.

Values flowing through the engine are plain Python objects: ``int``,
``float``, ``str``, ``None`` (SQL NULL), and :class:`Date`. Dates are
:class:`datetime.date` values, so comparisons, hashing and sorting run
in C; day arithmetic goes through proleptic-Gregorian day ordinals.
"""

from __future__ import annotations

import calendar
import datetime
from typing import Union


class Date(datetime.date):
    """A calendar date with the arithmetic TPC-H queries need.

    Adds and subtracts day counts and whole months/years (``INTERVAL``
    handling in the SQL layer); ``Date - Date`` is a day count. A
    ``Date`` equals the :class:`datetime.date` with the same value and
    never equals a number.
    """

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Date":
        """Parse ``YYYY-MM-DD``."""
        return cls.fromisoformat(text)

    @classmethod
    def from_ymd(cls, year: int, month: int, day: int) -> "Date":
        return cls(year, month, day)

    @property
    def ordinal(self) -> int:
        return self.toordinal()

    def to_date(self) -> datetime.date:
        return datetime.date(self.year, self.month, self.day)

    def add_days(self, days: int) -> "Date":
        return Date.fromordinal(self.toordinal() + days)

    def add_months(self, months: int) -> "Date":
        """Add whole months, clamping the day to the target month's length."""
        year, month = divmod(self.year * 12 + self.month - 1 + months, 12)
        last_day = calendar.monthrange(year, month + 1)[1]
        return Date(year, month + 1, min(self.day, last_day))

    def add_years(self, years: int) -> "Date":
        return self.add_months(12 * years)

    def __sub__(self, other) -> int:
        """Difference in days."""
        if isinstance(other, Date):
            return self.toordinal() - other.toordinal()
        return NotImplemented

    def __repr__(self) -> str:
        return f"Date({self.isoformat()!r})"


#: A SQL value as represented inside the engine.
Value = Union[int, float, str, None, Date]


def value_byte_size(value: Value) -> int:
    """Approximate on-disk size of a value, used for page packing."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, Date):
        return 4
    if isinstance(value, str):
        return 4 + len(value)
    raise TypeError(f"unsupported value type: {type(value)!r}")


def compare_values(a: Value, b: Value) -> int:
    """Three-way compare with SQL-ish NULL ordering (NULLs sort last).

    Returns -1, 0, or 1. Mixed int/float compare numerically; other
    mixed-type comparisons raise ``TypeError`` (a schema bug upstream).
    """
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    if a < b:
        return -1
    if a > b:
        return 1
    return 0
