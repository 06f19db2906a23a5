"""Relational operators and statement nodes of the XTRA algebra.

The operator vocabulary mirrors the paper's Figures 5/6: ``get``, ``select``
(here split into :class:`Filter` and :class:`Project`), ``window``, ``subq``
(a scalar node, see :mod:`repro.xtra.scalars`), joins, aggregation, sorting,
set operations, and statement-level DML/DDL. Every query operator can report
its output columns so binders and serializers can resolve names without a
side table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.xtra import types as t
from repro.xtra.schema import ColumnSchema, TableSchema
from repro.xtra.scalars import (
    AggCall,
    ScalarExpr,
    SortKey,
    WindowFunc,
)
from repro.xtra.types import SQLType


@dataclass(frozen=True)
class OutputColumn:
    """One column of an operator's output: name, type and optional qualifier."""

    name: str
    type: SQLType
    qualifier: Optional[str] = None


class RelNode:
    """Base class for relational operators."""

    CHILD_RELS: tuple[str, ...] = ()
    SCALAR_FIELDS: tuple[str, ...] = ()

    def children(self) -> Iterable["RelNode"]:
        for name in self.CHILD_RELS:
            value = getattr(self, name)
            if isinstance(value, RelNode):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, RelNode):
                        yield item

    def scalars(self) -> Iterable[ScalarExpr]:
        """Yield top-level scalar expressions attached to this operator."""
        for name in self.SCALAR_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, ScalarExpr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ScalarExpr):
                        yield item

    def output_columns(self) -> list[OutputColumn]:
        raise NotImplementedError(type(self).__name__)


@dataclass(eq=False)
class Get(RelNode):
    """A base-table (or view) scan: the paper's ``get(SALES)``."""

    table: TableSchema
    alias: Optional[str] = None

    def output_columns(self) -> list[OutputColumn]:
        qualifier = (self.alias or self.table.name).upper()
        return [OutputColumn(col.name, col.type, qualifier) for col in self.table.columns]


@dataclass(eq=False)
class Values(RelNode):
    """An inline table of literal rows."""

    SCALAR_FIELDS = ("rows",)

    rows: list[list[ScalarExpr]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    types: list[SQLType] = field(default_factory=list)

    def scalars(self) -> Iterable[ScalarExpr]:
        for row in self.rows:
            yield from row

    def output_columns(self) -> list[OutputColumn]:
        return [OutputColumn(name, typ) for name, typ in zip(self.names, self.types)]


@dataclass(eq=False)
class Filter(RelNode):
    """Row selection by a boolean predicate."""

    CHILD_RELS = ("child",)
    SCALAR_FIELDS = ("predicate",)

    child: RelNode
    predicate: ScalarExpr

    def output_columns(self) -> list[OutputColumn]:
        return self.child.output_columns()


@dataclass(eq=False)
class Project(RelNode):
    """Computed projection; pairs expressions with output names."""

    CHILD_RELS = ("child",)
    SCALAR_FIELDS = ("exprs",)

    child: RelNode
    exprs: list[ScalarExpr] = field(default_factory=list)
    names: list[str] = field(default_factory=list)

    def output_columns(self) -> list[OutputColumn]:
        return [OutputColumn(name, expr.type) for name, expr in zip(self.names, self.exprs)]


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"
    CROSS = "CROSS"


@dataclass(eq=False)
class Join(RelNode):
    CHILD_RELS = ("left", "right")
    SCALAR_FIELDS = ("condition",)

    kind: JoinKind
    left: RelNode
    right: RelNode
    condition: Optional[ScalarExpr] = None

    def output_columns(self) -> list[OutputColumn]:
        return self.left.output_columns() + self.right.output_columns()


class GroupingKind(enum.Enum):
    """How GROUP BY keys combine (OLAP grouping extensions of Table 2)."""

    SIMPLE = "SIMPLE"
    ROLLUP = "ROLLUP"
    CUBE = "CUBE"
    SETS = "SETS"


@dataclass(eq=False)
class Aggregate(RelNode):
    """Grouping + aggregation.

    ``grouping_sets`` (for ``GroupingKind.SETS``) holds index lists into
    ``group_by``. The OLAP-grouping transformation rule expands ROLLUP/CUBE/
    SETS into a UNION ALL of SIMPLE aggregates for targets without support.
    """

    CHILD_RELS = ("child",)
    SCALAR_FIELDS = ("group_by", "aggs")

    child: RelNode
    group_by: list[ScalarExpr] = field(default_factory=list)
    group_names: list[str] = field(default_factory=list)
    aggs: list[AggCall] = field(default_factory=list)
    agg_names: list[str] = field(default_factory=list)
    kind: GroupingKind = GroupingKind.SIMPLE
    grouping_sets: Optional[list[list[int]]] = None

    def output_columns(self) -> list[OutputColumn]:
        cols = [OutputColumn(name, expr.type)
                for name, expr in zip(self.group_names, self.group_by)]
        cols += [OutputColumn(name, agg.type)
                 for name, agg in zip(self.agg_names, self.aggs)]
        return cols


@dataclass(eq=False)
class Window(RelNode):
    """Window computation: child columns pass through, plus one output column
    per :class:`~repro.xtra.scalars.WindowFunc` spec (the paper's
    ``window(RANK, DESC, AMOUNT)``)."""

    CHILD_RELS = ("child",)
    SCALAR_FIELDS = ("funcs",)

    child: RelNode
    funcs: list[WindowFunc] = field(default_factory=list)
    names: list[str] = field(default_factory=list)

    def output_columns(self) -> list[OutputColumn]:
        cols = list(self.child.output_columns())
        cols += [OutputColumn(name, func.type)
                 for name, func in zip(self.names, self.funcs)]
        return cols


@dataclass(eq=False)
class Sort(RelNode):
    CHILD_RELS = ("child",)
    SCALAR_FIELDS = ("keys",)

    child: RelNode
    keys: list[SortKey] = field(default_factory=list)

    def output_columns(self) -> list[OutputColumn]:
        return self.child.output_columns()


@dataclass(eq=False)
class Limit(RelNode):
    """TOP / LIMIT. ``with_ties`` models Teradata ``TOP n WITH TIES``."""

    CHILD_RELS = ("child",)

    child: RelNode
    count: Optional[int] = None
    offset: int = 0
    with_ties: bool = False

    def output_columns(self) -> list[OutputColumn]:
        return self.child.output_columns()


@dataclass(eq=False)
class Distinct(RelNode):
    """Duplicate elimination over the child's full row (SELECT DISTINCT)."""

    CHILD_RELS = ("child",)

    child: RelNode

    def output_columns(self) -> list[OutputColumn]:
        return self.child.output_columns()


class SetOpKind(enum.Enum):
    UNION = "UNION"
    INTERSECT = "INTERSECT"
    EXCEPT = "EXCEPT"


@dataclass(eq=False)
class SetOp(RelNode):
    CHILD_RELS = ("left", "right")

    kind: SetOpKind
    all: bool
    left: RelNode
    right: RelNode

    def output_columns(self) -> list[OutputColumn]:
        return [OutputColumn(col.name, col.type) for col in self.left.output_columns()]


@dataclass(eq=False)
class DerivedTable(RelNode):
    """A subquery in FROM with an alias (and optional column alias list)."""

    CHILD_RELS = ("child",)

    child: RelNode
    alias: str = ""
    column_names: Optional[list[str]] = None

    def output_columns(self) -> list[OutputColumn]:
        inner = self.child.output_columns()
        names = self.column_names or [col.name for col in inner]
        return [OutputColumn(name.upper(), col.type, self.alias.upper() or None)
                for name, col in zip(names, inner)]


@dataclass(eq=False)
class CTEDef:
    """One common-table-expression definition inside a WITH."""

    name: str
    plan: RelNode
    column_names: Optional[list[str]] = None
    recursive: bool = False


@dataclass(eq=False)
class With(RelNode):
    """WITH [RECURSIVE] ctes body. Recursive CTEs either serialize natively
    (capable targets) or are emulated via WorkTable/TempTable (Section 6)."""

    CHILD_RELS = ("body",)

    ctes: list[CTEDef] = field(default_factory=list)
    body: RelNode = None  # type: ignore[assignment]

    def children(self) -> Iterable[RelNode]:
        for cte in self.ctes:
            yield cte.plan
        yield self.body

    def output_columns(self) -> list[OutputColumn]:
        return self.body.output_columns()


@dataclass(eq=False)
class CTERef(RelNode):
    """A reference to a CTE (or the recursive self-reference)."""

    name: str
    columns: list[OutputColumn] = field(default_factory=list)
    alias: Optional[str] = None

    def output_columns(self) -> list[OutputColumn]:
        qualifier = (self.alias or self.name).upper()
        return [OutputColumn(col.name, col.type, qualifier) for col in self.columns]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class for executable statements."""


@dataclass(eq=False)
class Query(Statement):
    """A SELECT statement wrapping a relational plan."""

    plan: RelNode


@dataclass(eq=False)
class Insert(Statement):
    table: str
    columns: Optional[list[str]] = None
    source: RelNode = None  # type: ignore[assignment]  # Values or query plan


@dataclass(eq=False)
class Update(Statement):
    table: str
    assignments: list[tuple[str, ScalarExpr]] = field(default_factory=list)
    predicate: Optional[ScalarExpr] = None
    alias: Optional[str] = None


@dataclass(eq=False)
class Delete(Statement):
    table: str
    predicate: Optional[ScalarExpr] = None
    alias: Optional[str] = None


@dataclass(eq=False)
class Merge(Statement):
    """ANSI/Teradata MERGE; emulated as UPDATE + INSERT on weak targets."""

    target: str
    target_alias: Optional[str]
    source: RelNode
    source_alias: Optional[str]
    condition: ScalarExpr
    matched_assignments: Optional[list[tuple[str, ScalarExpr]]] = None
    insert_columns: Optional[list[str]] = None
    insert_values: Optional[list[ScalarExpr]] = None


@dataclass(eq=False)
class CreateTable(Statement):
    schema: TableSchema
    as_query: Optional[RelNode] = None
    if_not_exists: bool = False


@dataclass(eq=False)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(eq=False)
class CreateView(Statement):
    name: str
    column_names: Optional[list[str]]
    plan: RelNode
    source_sql: str = ""
    replace: bool = False


@dataclass(eq=False)
class DropView(Statement):
    name: str
    if_exists: bool = False


@dataclass(eq=False)
class CreateMacro(Statement):
    """Teradata CREATE MACRO: a named, parameterized statement sequence
    stored in the Hyper-Q catalog and expanded at EXEC time (Table 2)."""

    name: str
    parameters: list[tuple[str, SQLType]] = field(default_factory=list)
    body_sql: str = ""
    replace: bool = False


@dataclass(eq=False)
class DropMacro(Statement):
    name: str
    if_exists: bool = False


@dataclass(eq=False)
class ExecMacro(Statement):
    name: str
    arguments: list[ScalarExpr] = field(default_factory=list)
    named_arguments: dict[str, ScalarExpr] = field(default_factory=dict)


@dataclass(eq=False)
class CreateProcedure(Statement):
    """Stored procedure definition; the body is kept as parsed statements by
    the frontend and interpreted by the procedure emulator."""

    name: str
    parameters: list[tuple[str, str, SQLType]] = field(default_factory=list)  # (mode, name, type)
    body: object = None  # frontend AST block; interpreted by emulation
    replace: bool = False


@dataclass(eq=False)
class DropProcedure(Statement):
    name: str
    if_exists: bool = False


@dataclass(eq=False)
class CallProcedure(Statement):
    name: str
    arguments: list[ScalarExpr] = field(default_factory=list)


class HelpKind(enum.Enum):
    SESSION = "SESSION"
    TABLE = "TABLE"
    COLUMN = "COLUMN"
    DATABASE = "DATABASE"


@dataclass(eq=False)
class HelpCommand(Statement):
    """Teradata informational commands (HELP SESSION etc.) — pure emulation:
    answered from mid-tier state, never forwarded to the target."""

    kind: HelpKind
    subject: Optional[str] = None


@dataclass(eq=False)
class ShowCommand(Statement):
    """SHOW TABLE/VIEW — returns reconstructed DDL text."""

    object_kind: str = "TABLE"
    name: str = ""


@dataclass(eq=False)
class SetSessionParam(Statement):
    """SET SESSION <param> = <value>; recorded in session state."""

    name: str = ""
    value: object = None


@dataclass(eq=False)
class NoOp(Statement):
    """A statement Hyper-Q accepts and absorbs (e.g. COLLECT STATISTICS):
    the source system expects success, the target has no equivalent."""

    reason: str = ""


@dataclass(eq=False)
class Transaction(Statement):
    """BT/ET/BEGIN/COMMIT/ROLLBACK markers."""

    action: str = "BEGIN"  # BEGIN | COMMIT | ROLLBACK
