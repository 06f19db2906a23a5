"""The ANSI frontend: plain SQL in, XTRA out.

Reuses the generic ANSI grammar (the same parser class the backend uses,
configured with a fully permissive capability profile so WITH RECURSIVE,
MERGE and grouping extensions all *parse*) and the generic planner, resolved
against Hyper-Q's shadow catalog. The result is bound XTRA statements that
flow through the very same Transformer/Serializer/emulator pipeline as
Teradata requests — the paper's "add a parser, get every backend" claim.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import BindError, CatalogError
from repro.backend import planner as p
from repro.backend.parser import BackendParser
from repro.core.catalog import SessionCatalog
from repro.core.tracker import FeatureTracker
from repro.transform.capabilities import TERADATA
from repro.xtra import relational as r
from repro.xtra import types as t
from repro.xtra.schema import TableSchema


class _SchemaHandle:
    """Duck-typed stand-in for a backend Table: just carries the schema."""

    __slots__ = ("schema",)

    def __init__(self, schema: TableSchema):
        self.schema = schema


class _ShadowCatalogAdapter:
    """Adapts Hyper-Q's shadow catalog to the planner's catalog protocol.

    Views resolve as plain relations (the target database holds the real
    view object and expands it), so ``has_view`` is always False here.
    """

    def __init__(self, catalog: SessionCatalog):
        self._catalog = catalog

    def table(self, name: str) -> _SchemaHandle:
        schema = self._catalog.resolve(name)
        if schema is None:
            raise CatalogError(f"object {name} does not exist")
        return _SchemaHandle(schema)

    def has_table(self, name: str) -> bool:
        return self._catalog.resolve(name) is not None

    def has_view(self, name: str) -> bool:
        return False

    def view(self, name: str):
        return None


class AnsiFrontend:
    """Parses ANSI SQL and binds it into XTRA statements."""

    def __init__(self, catalog: SessionCatalog,
                 tracker: Optional[FeatureTracker] = None):
        self._catalog = catalog
        self._tracker = tracker  # ANSI requests carry no tracked TD features
        # Permissive grammar: the *target's* limits are enforced later by the
        # Transformer/emulators, not at the frontend.
        self._parser = BackendParser(TERADATA)
        self._planner = p.Planner(_ShadowCatalogAdapter(catalog), TERADATA)

    # -- public API ---------------------------------------------------------------

    def bind_statement(self, sql: str) -> r.Statement:
        spec = self._parser.parse_statement(sql)
        return self._lower(spec, sql)

    def parse_script(self, sql: str) -> list[p.StatementSpec]:
        """Parse without binding — statements bind lazily so earlier DDL in
        the same script is visible to later statements."""
        return self._parser.parse_script(sql)

    def lower_spec(self, spec: p.StatementSpec) -> r.Statement:
        """Bind one parsed spec against the current catalog state."""
        return self._lower(spec, "")

    # -- spec -> XTRA statement ------------------------------------------------------

    def _lower(self, spec: p.StatementSpec, source_sql: str) -> r.Statement:
        if isinstance(spec, p.QueryStatementSpec):
            return r.Query(self._planner.plan_query(spec.query))
        if isinstance(spec, p.InsertSpec):
            return self._lower_insert(spec)
        if isinstance(spec, p.UpdateSpec):
            scope = p._Scope()
            assignments = [
                (name, self._planner._plan_scalar_subqueries(expr, scope))
                for name, expr in spec.assignments
            ]
            predicate = (self._planner._plan_scalar_subqueries(spec.predicate,
                                                               scope)
                         if spec.predicate is not None else None)
            return r.Update(spec.table.upper(), assignments, predicate,
                            spec.alias)
        if isinstance(spec, p.DeleteSpec):
            scope = p._Scope()
            predicate = (self._planner._plan_scalar_subqueries(spec.predicate,
                                                               scope)
                         if spec.predicate is not None else None)
            return r.Delete(spec.table.upper(), predicate, spec.alias)
        if isinstance(spec, p.CreateTableSpec):
            schema = TableSchema(spec.name.upper(), list(spec.columns or []),
                                 volatile=spec.temporary)
            as_query = (self._planner.plan_query(spec.as_query)
                        if spec.as_query is not None else None)
            if as_query is not None and not schema.columns:
                from repro.xtra.schema import ColumnSchema

                schema.columns = [ColumnSchema(col.name, col.type)
                                  for col in as_query.output_columns()]
            return r.CreateTable(schema, as_query)
        if isinstance(spec, p.DropTableSpec):
            return r.DropTable(spec.name.upper(), spec.if_exists)
        if isinstance(spec, p.CreateViewSpec):
            plan = self._planner.plan_query(spec.query)
            names = spec.column_names or [col.name
                                          for col in plan.output_columns()]
            return r.CreateView(spec.name.upper(), [n.upper() for n in names],
                                plan, spec.source_sql, spec.replace)
        if isinstance(spec, p.DropViewSpec):
            return r.DropView(spec.name.upper(), spec.if_exists)
        if isinstance(spec, p.TransactionSpec):
            return r.Transaction(spec.action)
        if isinstance(spec, p.MergeSpec):
            return self._lower_merge(spec)
        raise BindError(
            f"the ANSI frontend cannot bind {type(spec).__name__}")

    def _lower_insert(self, spec: p.InsertSpec) -> r.Insert:
        handle = self._planner._catalog.table(spec.table)  # type: ignore[attr-defined]
        schema = handle.schema
        if spec.query is not None:
            return r.Insert(schema.name, spec.columns,
                            self._planner.plan_query(spec.query))
        target_columns = ([schema.column(name) for name in spec.columns]
                          if spec.columns else schema.columns)
        scope = p._Scope()
        rows = [
            [self._planner._plan_scalar_subqueries(cell, scope)
             for cell in row]
            for row in spec.rows or []
        ]
        values = r.Values(rows, [col.name for col in target_columns],
                          [col.type for col in target_columns])
        return r.Insert(schema.name, spec.columns, values)

    def _lower_merge(self, spec: p.MergeSpec) -> r.Merge:
        source_plan = self._planner._plan_table_ref(spec.source, p._Scope())
        scope = p._Scope()
        condition = self._planner._plan_scalar_subqueries(spec.condition, scope)
        matched = None
        if spec.matched_assignments is not None:
            matched = [
                (name, self._planner._plan_scalar_subqueries(expr, scope))
                for name, expr in spec.matched_assignments
            ]
        insert_values = None
        if spec.insert_values is not None:
            insert_values = [
                self._planner._plan_scalar_subqueries(expr, scope)
                for expr in spec.insert_values
            ]
        return r.Merge(spec.target.upper(), spec.target_alias, source_plan,
                       None, condition, matched, spec.insert_columns,
                       insert_values)
