"""DML batching: merge contiguous single-row INSERTs into one statement.

Section 4.3's performance-transformation example: "if the target database
incurs a large overhead in executing single-row DML requests, a
transformation that groups a large number of contiguous single-row DML
statements into one large statement could be applied." This operates at the
*script* level (across statements, not inside one), so it lives outside the
per-statement rule engine; :meth:`repro.core.engine.HyperQSession
.execute_script` applies it when the engine enables batching.
"""

from __future__ import annotations

from repro.xtra import relational as r
from repro.xtra.relational import Statement


def _is_batchable_insert(statement: Statement) -> bool:
    return (isinstance(statement, r.Insert)
            and isinstance(statement.source, r.Values)
            and statement.source.rows is not None)


def _compatible(left: r.Insert, right: r.Insert) -> bool:
    if left.table.upper() != right.table.upper():
        return False
    left_cols = [c.upper() for c in (left.columns or [])]
    right_cols = [c.upper() for c in (right.columns or [])]
    return left_cols == right_cols


def batch_statements(statements: list[Statement],
                     max_rows_per_batch: int = 1000) -> list[Statement]:
    """Coalesce runs of compatible VALUES inserts.

    Only *contiguous* inserts merge (an intervening SELECT could observe the
    intermediate state, so reordering is never attempted). The merged insert
    reuses the first statement's node; later rows are appended to its VALUES.
    """
    out: list[Statement] = []
    for statement in statements:
        if _is_batchable_insert(statement) and out \
                and _is_batchable_insert(out[-1]) \
                and _compatible(out[-1], statement):  # type: ignore[arg-type]
            target: r.Insert = out[-1]  # type: ignore[assignment]
            target_values: r.Values = target.source  # type: ignore[assignment]
            incoming: r.Values = statement.source  # type: ignore[assignment]
            if len(target_values.rows) + len(incoming.rows) <= max_rows_per_batch:
                target_values.rows.extend(incoming.rows)
                continue
        out.append(statement)
    return out

