"""Hyper-Q's shadow catalog.

Hyper-Q keeps its own picture of the *source-side* schema: Teradata column
properties that the target cannot represent (SET semantics, CASESPECIFIC,
non-constant defaults), view definitions in the source dialect, macro and
procedure bodies, and per-session volatile tables. This is the "state
information maintained in the application layer" that Section 2.1 says
emulation requires (the paper calls it the DTM catalog in Table 2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CatalogError
from repro.xtra.schema import TableSchema
from repro.xtra.types import SQLType


@dataclass
class MacroDef:
    """A stored Teradata macro: named parameterized statement sequence."""

    name: str
    parameters: list[tuple[str, SQLType]] = field(default_factory=list)
    body_sql: str = ""


@dataclass
class ProcedureDef:
    """A stored procedure: parameter modes plus the parsed body block."""

    name: str
    parameters: list[tuple[str, str, SQLType]] = field(default_factory=list)
    body: object = None  # list[TdProcStatement]


class ShadowCatalog:
    """Source-side catalog shared by all Hyper-Q sessions.

    Mutations are versioned *per object*: DDL on a table (or view, macro,
    procedure) bumps only that object's entry in the schema version vector,
    and DML bumps a separate per-table **data** version.  Subscribers are
    notified with the set of touched names, so the translation cache drops
    only entries whose dependency sets intersect the change — DDL on table
    A leaves cached translations that touch only table B in place, both in
    the per-process L1 and the gateway's shared L2 tier.

    A global monotonic :attr:`version` is retained as a cheap "anything
    changed" observer for tooling; nothing is keyed on it anymore.
    """

    def __init__(self):
        self._tables: dict[str, TableSchema] = {}
        self._views: dict[str, TableSchema] = {}
        self._view_deps: dict[str, Optional[tuple]] = {}
        self._macros: dict[str, MacroDef] = {}
        self._procedures: dict[str, ProcedureDef] = {}
        self._version = 0
        self._table_versions: dict[str, int] = {}
        self._data_versions: dict[str, int] = {}
        self._listeners: list = []
        self._data_listeners: list = []

    # -- versioning ------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter, bumped on every catalog mutation."""
        return self._version

    def version_vector(self, names) -> tuple:
        """Sorted ``(name, schema_epoch, data_epoch)`` triples for *names*.

        This is the result cache's key component: two requests see the same
        vector iff no DDL or DML touched any dependency in between.
        """
        return tuple(
            (key, self._table_versions.get(key, 0),
             self._data_versions.get(key, 0))
            for key in sorted({n.upper() for n in names}))

    def subscribe(self, listener) -> None:
        """Register ``listener(names)`` to run after each schema mutation.

        ``names`` is a tuple of upper-cased object names touched by the
        mutation — the listener should drop state that depends on any of
        them (plus any wildcard bucket).
        """
        self._listeners.append(listener)

    def subscribe_data(self, listener) -> None:
        """Register ``listener(names)`` for data (DML) changes.

        Schema mutations also fire this channel: DDL implies the data a
        dependent result embeds may no longer exist.
        """
        self._data_listeners.append(listener)

    def _bump(self, *names: str) -> None:
        self._version += 1
        touched = tuple(n.upper() for n in names)
        for key in touched:
            self._table_versions[key] = self._table_versions.get(key, 0) + 1
            self._data_versions[key] = self._data_versions.get(key, 0) + 1
        for listener in self._listeners:
            listener(touched)
        for listener in self._data_listeners:
            listener(touched)

    def bump_data(self, *names: str) -> None:
        """Record a DML write to *names*: data epochs move, schema stays."""
        touched = tuple(n.upper() for n in names)
        if not touched:
            return
        for key in touched:
            self._data_versions[key] = self._data_versions.get(key, 0) + 1
        for listener in self._data_listeners:
            listener(touched)

    # -- tables/views ----------------------------------------------------------

    def add_table(self, schema: TableSchema) -> None:
        name = schema.name.upper()
        if name in self._tables or name in self._views:
            raise CatalogError(f"object {name} already exists")
        self._tables[name] = schema
        self._bump(name)

    def drop_table(self, name: str) -> None:
        if name.upper() not in self._tables:
            raise CatalogError(f"table {name} does not exist")
        del self._tables[name.upper()]
        self._bump(name)

    def add_view(self, schema: TableSchema, replace: bool = False,
                 deps: Optional[tuple] = None) -> None:
        """Register a view; *deps* is its base-table closure (upper-cased).

        ``None`` marks the closure unknown: dependents fall into the
        wildcard bucket and are invalidated by any catalog change.
        """
        name = schema.name.upper()
        if name in self._tables:
            raise CatalogError(f"object {name} already exists as a table")
        if name in self._views and not replace:
            raise CatalogError(f"view {name} already exists")
        self._views[name] = schema
        self._view_deps[name] = deps
        self._bump(name)

    def drop_view(self, name: str) -> None:
        if name.upper() not in self._views:
            raise CatalogError(f"view {name} does not exist")
        del self._views[name.upper()]
        self._view_deps.pop(name.upper(), None)
        self._bump(name)

    def view_deps(self, name: str) -> Optional[tuple]:
        """Base-table closure stored for a view, or ``None`` if unknown."""
        return self._view_deps.get(name.upper())

    def resolve(self, name: str) -> Optional[TableSchema]:
        key = name.upper()
        return self._tables.get(key) or self._views.get(key)

    def table(self, name: str) -> TableSchema:
        schema = self.resolve(name)
        if schema is None:
            raise CatalogError(f"object {name} does not exist")
        return schema

    def is_view(self, name: str) -> bool:
        return name.upper() in self._views

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def view_names(self) -> list[str]:
        return sorted(self._views)

    # -- macros -------------------------------------------------------------------

    def add_macro(self, macro: MacroDef, replace: bool = False) -> None:
        key = macro.name.upper()
        if key in self._macros and not replace:
            raise CatalogError(f"macro {macro.name} already exists")
        self._macros[key] = macro
        self._bump(key)

    def drop_macro(self, name: str) -> None:
        if name.upper() not in self._macros:
            raise CatalogError(f"macro {name} does not exist")
        del self._macros[name.upper()]
        self._bump(name)

    def macro(self, name: str) -> MacroDef:
        macro = self._macros.get(name.upper())
        if macro is None:
            raise CatalogError(f"macro {name} does not exist")
        return macro

    # -- procedures -------------------------------------------------------------------

    def add_procedure(self, procedure: ProcedureDef, replace: bool = False) -> None:
        key = procedure.name.upper()
        if key in self._procedures and not replace:
            raise CatalogError(f"procedure {procedure.name} already exists")
        self._procedures[key] = procedure
        self._bump(key)

    def drop_procedure(self, name: str) -> None:
        if name.upper() not in self._procedures:
            raise CatalogError(f"procedure {name} does not exist")
        del self._procedures[name.upper()]
        self._bump(name)

    def procedure(self, name: str) -> ProcedureDef:
        procedure = self._procedures.get(name.upper())
        if procedure is None:
            raise CatalogError(f"procedure {name} does not exist")
        return procedure


class SessionCatalog:
    """Per-session view over the shadow catalog plus volatile tables.

    Volatile-table changes bump :attr:`overlay_version` and notify the
    optional :attr:`overlay_listener`, mirroring the shadow catalog's
    versioning at session scope: translations that resolved a name through
    the overlay are keyed on ``(uid, overlay_version)`` and can never be
    replayed across overlay changes (nor leak into other sessions).
    """

    _uid_counter = 0
    _uid_lock = threading.Lock()

    def __init__(self, shared: ShadowCatalog):
        self.shared = shared
        self._volatile: dict[str, TableSchema] = {}
        with SessionCatalog._uid_lock:
            SessionCatalog._uid_counter += 1
            self.uid = SessionCatalog._uid_counter
        self.overlay_version = 0
        #: ``listener(session_uid)`` called after each volatile change.
        self.overlay_listener = None

    @property
    def overlay_key(self):
        """Cache-key component for the volatile overlay.

        ``None`` while the overlay is empty (name resolution is then
        identical to the shared catalog, so entries are shareable across
        sessions); a per-session ``(uid, version)`` pair otherwise.
        """
        if not self._volatile:
            return None
        return (self.uid, self.overlay_version)

    def _overlay_changed(self) -> None:
        self.overlay_version += 1
        if self.overlay_listener is not None:
            self.overlay_listener(self.uid)

    def add_volatile(self, schema: TableSchema) -> None:
        name = schema.name.upper()
        if name in self._volatile:
            raise CatalogError(f"volatile table {name} already exists")
        self._volatile[name] = schema
        self._overlay_changed()

    def drop_volatile(self, name: str) -> bool:
        dropped = self._volatile.pop(name.upper(), None) is not None
        if dropped:
            self._overlay_changed()
        return dropped

    def is_volatile(self, name: str) -> bool:
        return name.upper() in self._volatile

    def volatile_names(self) -> list[str]:
        return sorted(self._volatile)

    # -- resolution: volatile shadows shared ----------------------------------------

    def resolve(self, name: str) -> Optional[TableSchema]:
        return self._volatile.get(name.upper()) or self.shared.resolve(name)

    def table(self, name: str) -> TableSchema:
        schema = self.resolve(name)
        if schema is None:
            raise CatalogError(f"object {name} does not exist")
        return schema

    def is_view(self, name: str) -> bool:
        if name.upper() in self._volatile:
            return False
        return self.shared.is_view(name)

    def view_deps(self, name: str) -> Optional[tuple]:
        return self.shared.view_deps(name)

    def drop_table(self, name: str) -> None:
        if not self.drop_volatile(name):
            self.shared.drop_table(name)
