"""Table schemas.

A :class:`TableSchema` names a table's columns and types and computes
the fixed accounting width of a row, which the storage layer uses to
pack tuples into pages. Types are deliberately coarse — the engine
cares about comparison semantics and byte width, not SQL's full type
lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.engine.types import Date, Value
from repro.util.errors import CatalogError


class ColumnType(str, Enum):
    """Storage type of a column."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    DATE = "date"

    def python_types(self) -> tuple:
        if self is ColumnType.INT:
            return (int,)
        if self is ColumnType.FLOAT:
            return (int, float)
        if self is ColumnType.TEXT:
            return (str,)
        return (Date,)


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and an average stored width."""

    name: str
    col_type: ColumnType
    #: Average width in bytes; for TEXT this is the expected string
    #: length (set by the schema author), for others the fixed width.
    avg_width: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")
        if self.avg_width == 0:
            defaults = {
                ColumnType.INT: 8,
                ColumnType.FLOAT: 8,
                ColumnType.DATE: 4,
                ColumnType.TEXT: 24,
            }
            object.__setattr__(self, "avg_width", defaults[self.col_type])

    def accepts(self, value: Value) -> bool:
        """Whether *value* (or NULL) may be stored in this column."""
        if value is None:
            return True
        return isinstance(value, self.col_type.python_types())


class TableSchema:
    """An ordered collection of named columns."""

    def __init__(self, name: str, columns: Sequence[Column]):
        if not name:
            raise CatalogError("table name must be non-empty")
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        seen = set()
        for column in columns:
            if column.name in seen:
                raise CatalogError(f"duplicate column {column.name!r} in {name!r}")
            seen.add(column.name)
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Ordinal position of a column, raising :class:`CatalogError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def row_width(self) -> int:
        """Average stored bytes per row, including a small tuple header."""
        header = 24  # tuple header + item pointer, PostgreSQL-ish
        return header + sum(c.avg_width for c in self.columns)

    def validate_rows(self, rows: Sequence[tuple]) -> None:
        """Raise :class:`CatalogError` naming the first row that does not fit.

        One length test per row and one set of value types per column,
        with :meth:`Column.accepts`'s ``isinstance`` semantics; the
        message is :meth:`validate_row`'s for the first bad row.
        """
        if set(map(len, rows)) <= {len(self.columns)} and all(
                issubclass(kind, (type(None), *column.col_type.python_types()))
                for i, column in enumerate(self.columns)
                for kind in set(map(type, map(itemgetter(i), rows)))):
            return
        for row in rows:
            self.validate_row(row)

    def validate_row(self, row: Sequence[Value]) -> None:
        """Raise :class:`CatalogError` if *row* does not fit this schema."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row has {len(row)} values; table {self.name!r} has "
                f"{len(self.columns)} columns"
            )
        for column, value in zip(self.columns, row):
            if not column.accepts(value):
                raise CatalogError(
                    f"value {value!r} is not valid for column "
                    f"{self.name}.{column.name} ({column.col_type.value})"
                )

    def __len__(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.col_type.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"
