"""Schema metadata shared by the Hyper-Q shadow catalog and the backend.

Models the properties the paper calls out as migration hazards: SET-table
semantics, CASESPECIFIC text columns, non-constant column defaults, volatile
(session-scoped) tables, and views.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import CatalogError
from repro.xtra.types import SQLType


@dataclass(frozen=True)
class ColumnSchema:
    """Metadata for one column.

    Attributes:
        name: upper-cased column name.
        type: declared SQL type.
        nullable: whether NULLs are permitted.
        default_sql: SQL text of the DEFAULT expression, if any. Non-constant
            defaults (e.g. ``CURRENT_DATE``) are one of the emulated
            "unsupported column properties" of Table 2.
        case_specific: Teradata CASESPECIFIC comparison flag.
    """

    name: str
    type: SQLType
    nullable: bool = True
    default_sql: Optional[str] = None
    case_specific: bool = True


@dataclass
class TableSchema:
    """Metadata for a table or view.

    Attributes:
        name: upper-cased object name.
        columns: ordered column metadata.
        set_semantics: Teradata SET table (duplicate rows rejected).
        volatile: session-scoped table (Teradata VOLATILE / GTT).
        is_view: True for views; ``view_sql`` holds the defining query text
            in the *source* dialect.
        primary_index: column names of the (non-unique) primary index, kept
            for DDL fidelity; the backend ignores it for execution.
    """

    name: str
    columns: list[ColumnSchema] = field(default_factory=list)
    set_semantics: bool = False
    volatile: bool = False
    is_view: bool = False
    view_sql: Optional[str] = None
    primary_index: tuple[str, ...] = ()

    def column(self, name: str) -> ColumnSchema:
        """Look up a column by (case-insensitive) name."""
        wanted = name.upper()
        for col in self.columns:
            if col.name == wanted:
                return col
        raise CatalogError(f"column {name!r} not found in {self.name}")

    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]
