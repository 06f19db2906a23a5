"""The benchmark workloads: warehouse contents, request streams and the
expected answer of every request, all derived from the seed.

Each workload stresses a different layer group of the proxy:

* ``tpch_power``  — backend-bound; the Figure 9a sequential TPC-H run.
* ``app_replay``  — proxy-bound; parse/bind/transform/serialize and the
  emulators, translation-cache hits, writes invalidating the result cache.
* ``bulk_export`` — conversion-bound; 20k-row drains, mostly result-cache
  hits, a fixed share of misses.

All three are closed loops: one client sends each connection's next
request in turn, when the previous reply is complete.

The warehouse is loaded the way data reaches a re-platformed warehouse in
the paper: schema objects (tables, views, macros) are created through
Hyper-Q as SQL, and the rows are bulk-loaded straight into the target's
storage, outside the proxy. During the run the proxy receives only SQL and
wire frames.
"""

from __future__ import annotations

import bisect
import datetime
import itertools
import random

#: Result-cache budget of the workloads that run with the cache on. Large
#: enough that no result the workloads produce is evicted or rejected.
RESULT_CACHE_BYTES = 256 * 1024 * 1024

TPCH_SCALE = 0.001
BULK_ROWS = 20_000
#: bulk_export: one single-row INSERT after every this many drains, so a
#: fixed share of drains (one in this many) miss the result cache.
BULK_DRAINS_PER_INSERT = 3
APP_ROWS = 100
#: app_replay: requests per block of the Zipf-weighted replay.
APP_BLOCK = 128
DIGEST_MASK = (1 << 64) - 1
GOLDEN_RATIO = (5 ** 0.5 - 1) / 2


def digest(rows) -> int:
    """Order-independent content digest of a result: the sum of the row
    hashes. Summing lets a drain of a grown table be checked from the
    digest of the rows added, and makes the check independent of row
    order, which the proxy does not promise without ORDER BY. ``hash`` of
    ``str`` is salted per process, so expected and observed digests must
    be computed in the same process."""
    return sum(map(hash, rows)) & DIGEST_MASK


class Answer:
    """What one request returned, or is expected to return."""

    __slots__ = ("kind", "count", "digest")

    def __init__(self, kind: str, count: int, digest_value: int):
        self.kind = kind          # "rows" | "count" | "ok" | "failed"
        self.count = count        # rows returned, or rows affected
        self.digest = digest_value

    def __eq__(self, other) -> bool:
        return (self.kind, self.count, self.digest) == \
            (other.kind, other.count, other.digest)

    def __repr__(self) -> str:
        return f"Answer({self.kind}, {self.count}, {self.digest:#x})"


def engine_answer(session, sql: str) -> Answer:
    """Execute *sql* on an in-process session and summarize the result."""
    result = session.execute(sql)
    try:
        if result.kind == "rows":
            rows = result.rows
            return Answer("rows", len(rows), digest(rows))
        if result.kind == "count":
            return Answer("count", result.rowcount, 0)
        return Answer("ok", 0, 0)
    finally:
        result.close()


class Request:
    """One request of a stream. ``template`` groups requests of one query
    shape for ``query_geomean_ms``."""

    __slots__ = ("sql", "template")

    def __init__(self, sql: str, template: str):
        self.sql = sql
        self.template = template


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

class Workload:
    """Base: a name, the ``serve`` options, the client shape, the warehouse
    and the request streams."""

    name = ""
    why = ""
    #: ``serve`` options beyond its defaults.
    serve_args: list[str] = []
    connections = 1
    #: Latency limit (ms) behind ``slo_met_pct``.
    slo_ms = 1000.0
    #: A run is split into passes that each end at the first round
    #: boundary after this many seconds (one round, on every workload
    #: today). The first pass warms up; the host's speed is sampled
    #: before each.
    pass_seconds = 0.5

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, engine) -> None:
        """Create the schema through Hyper-Q and bulk-load the rows."""
        raise NotImplementedError

    def stream(self, connection: int):
        """The endless request stream of one connection."""
        raise NotImplementedError

    def round_length(self) -> int:
        """A pass ends only after a whole number of rounds of this many
        requests per connection, so every pass sends the same mix."""
        return 1

    def oracle_engine(self):
        """An in-process engine loaded like the server's, for
        :meth:`expected`."""
        from repro import HyperQ

        engine = HyperQ(tracing=False)
        self.load(engine)
        return engine

    def expected(self, engine, connection: int,
                 requests: list[Request]) -> list[Answer]:
        """Expected answers of *requests* (the stream prefix one connection
        sent), computed on an in-process engine loaded like the server's.
        Read-only workloads memoize by SQL text."""
        session = engine.create_session()
        memo: dict[str, Answer] = {}
        answers = []
        for request in requests:
            answer = memo.get(request.sql)
            if answer is None:
                answer = engine_answer(session, request.sql)
                memo[request.sql] = answer
            answers.append(answer)
        session.close()
        return answers


def _bulk_load(engine, table: str, rows) -> None:
    engine.backend.catalog.table(table).insert_rows(rows)


class TpchPower(Workload):
    name = "tpch_power"
    why = ("Figure 9a: the 22 TPC-H queries in seeded order on one "
           "connection; backend-bound, so proxy changes should not move it")
    slo_ms = 220.0

    def load(self, engine) -> None:
        from repro.workloads.tpch import datagen
        from repro.workloads.tpch.schema import SCHEMA_DDL, TABLE_NAMES

        session = engine.create_session()
        for table in TABLE_NAMES:
            session.execute(SCHEMA_DDL[table].strip())
        session.close()
        # The warehouse content is fixed; the seed orders the queries.
        datagen.load_direct(engine.backend, scale=TPCH_SCALE)

    def round_length(self) -> int:
        return 22

    def stream(self, connection: int):
        from repro.workloads.tpch import queries

        rng = random.Random(self.seed)
        numbers = list(range(1, 23))
        while True:
            rng.shuffle(numbers)
            for number in numbers:
                yield Request(queries.query(number), f"Q{number}")


class AppReplay(Workload):
    name = "app_replay"
    why = ("Table 1 Health and Telco replay, one customer per connection: "
           "proxy-bound translation, emulation (macros, MERGE, view DML) "
           "and result-cache invalidation")
    serve_args = ["--result-cache-bytes", str(RESULT_CACHE_BYTES)]
    connections = 2
    slo_ms = 10.0

    def _profiles(self):
        from repro.workloads import customer

        return (customer.HEALTH, customer.TELCO)

    def load(self, engine) -> None:
        from repro.workloads import customer

        session = engine.create_session()
        for profile in self._profiles():
            for statement in (customer.schema_sql(profile)
                              + customer.setup_sql(profile)):
                session.execute(statement)
            prefix = "HC" if profile.number == 1 else "TC"
            # The rows' content is fixed and the seed only orders them, so
            # every query selects as many rows at every seed; the seed
            # orders the rows and the requests.
            order = random.Random(self.seed * 31 + profile.number)
            rows = self._rows(prefix, random.Random(profile.number))
            for table, table_rows in rows.items():
                order.shuffle(table_rows)
                _bulk_load(engine, f"{prefix}_{table}", table_rows)
        session.close()

    @staticmethod
    def _rows(prefix: str, rng: random.Random) -> dict[str, list[tuple]]:
        day0 = datetime.date(2016, 1, 1)
        facts = []
        for key in range(1, APP_ROWS + 1):
            facts.append((
                key, rng.randrange(1, 500), rng.randrange(50),
                rng.randrange(100, 500_000) / 100,
                rng.randrange(0, 20), f"{prefix}_NAME_{rng.randrange(10**6)}",
                day0 + datetime.timedelta(days=rng.randrange(730)),
                None if rng.random() < 0.2 else f"note {key}"))
        dims = [(key, f"LABEL_{key}", rng.randrange(20))
                for key in sorted(rng.sample(range(1, 500), APP_ROWS))]
        # MERGE joins FACTS.ID = EVENTS.FACT_ID: FACT_ID is unique, so no
        # target row matches twice (Teradata rejects that MERGE). The
        # recursive chain follows FACT_ID -> EVENTS.ID; FACT_ID > ID makes
        # every chain strictly increasing, so the recursion terminates.
        fact_ids = sorted(rng.sample(range(2, 3 * APP_ROWS), APP_ROWS))
        events = []
        for key, fact_id in zip(range(1, APP_ROWS + 1), fact_ids):
            events.append((
                key, fact_id, rng.randrange(100),
                rng.randrange(100, 100_000) / 100,
                day0 + datetime.timedelta(days=rng.randrange(730))))
        return {"FACTS": facts, "DIM": dims, "EVENTS": events}

    def stream(self, connection: int):
        from repro.workloads import customer

        profile = self._profiles()[connection]
        texts = customer.distinct_queries(profile)
        weights = customer.frequencies(profile)
        # A second CREATE VOLATILE TABLE of one name in a session fails, so
        # the (rare) volatile-table statements are left out of the replay.
        pairs = [(text, weight) for text, weight in zip(texts, weights)
                 if not text.startswith("CREATE VOLATILE")]
        texts = [text for text, __ in pairs]
        weights = [weight for __, weight in pairs]
        cumulative = list(itertools.accumulate(weights))
        step = cumulative[-1] / APP_BLOCK
        rng = random.Random(self.seed * 1_000_003 + connection)
        offset = rng.random()
        while True:
            # Systematic sampling: each block holds every query its
            # Zipf-weighted share of times (rounded either way), so blocks
            # differ in which rare queries they draw and in order, not in
            # mix. The offsets of successive blocks step by the golden
            # ratio, which spreads them evenly: over a run, each rare
            # query is drawn its share of times to within a few draws at
            # every seed, where random offsets would let the share of a
            # family of rare queries wander by a tenth.
            offset = (offset + GOLDEN_RATIO) % 1.0
            block = [texts[bisect.bisect_right(cumulative,
                                               (slot + offset) * step)]
                     for slot in range(APP_BLOCK)]
            rng.shuffle(block)
            for text in block:
                yield Request(text, _app_template(text))

    def round_length(self) -> int:
        return APP_BLOCK

    def expected(self, engine, connection: int,
                 requests: list[Request]) -> list[Answer]:
        # Writes change later answers: replay the whole prefix in order.
        # Each connection writes only its own customer's tables, so its
        # answers do not depend on how the connections interleaved.
        session = engine.create_session()
        answers = [engine_answer(session, request.sql) for request in requests]
        session.close()
        return answers


def _app_template(sql: str) -> str:
    head = sql.split(None, 1)[0].upper()
    if head == "EXEC":
        return "macro"
    if head in ("DEL", "DELETE", "UPDATE", "MERGE", "INSERT", "INS"):
        return "write"
    return "read"


class BulkExport(Workload):
    name = "bulk_export"
    why = ("2 connections draining their own 20k-row mixed-type tables; "
           "conversion-bound, a fixed share of drains miss the result cache")
    serve_args = ["--result-cache-bytes", str(RESULT_CACHE_BYTES)]
    connections = 2
    slo_ms = 800.0

    DDL = ("CREATE MULTISET TABLE {name} (ID INTEGER NOT NULL, "
           "LABEL VARCHAR(32), SCORE FLOAT, DAY DATE, "
           "AMOUNT DECIMAL(12,2), QTY INTEGER)")
    DRAIN = "SEL ID, LABEL, SCORE, DAY, AMOUNT, QTY FROM {name}"

    def _table(self, connection: int) -> str:
        return f"BX{connection}"

    def _row(self, rng: random.Random, key: int) -> tuple:
        day0 = datetime.date(2010, 1, 1)
        return (
            key,
            None if rng.random() < 0.05 else f"item-{rng.randrange(10**8)}",
            None if rng.random() < 0.05 else rng.randrange(10**6) / 64.0,
            day0 + datetime.timedelta(days=rng.randrange(4000)),
            None if rng.random() < 0.05
            else rng.randrange(10**8) / 100,
            rng.randrange(1000))

    def base_rows(self, connection: int) -> list[tuple]:
        rng = random.Random(self.seed * 7919 + connection)
        return [self._row(rng, key) for key in range(BULK_ROWS)]

    def inserted_row(self, connection: int, ordinal: int) -> tuple:
        rng = random.Random((self.seed * 7919 + connection) * 100_003
                            + ordinal)
        return self._row(rng, BULK_ROWS + ordinal)

    def load(self, engine) -> None:
        session = engine.create_session()
        for connection in range(self.connections):
            session.execute(self.DDL.format(name=self._table(connection)))
            _bulk_load(engine, self._table(connection),
                       self.base_rows(connection))
        session.close()

    def round_length(self) -> int:
        return BULK_DRAINS_PER_INSERT + 1

    def stream(self, connection: int):
        table = self._table(connection)
        ordinal = 0
        while True:
            for __ in range(BULK_DRAINS_PER_INSERT):
                yield Request(self.DRAIN.format(name=table), "drain")
            values = ", ".join(_literal(value) for value in
                               self.inserted_row(connection, ordinal))
            yield Request(f"INS INTO {table} VALUES ({values})", "insert")
            ordinal += 1

    def oracle_engine(self):
        return None

    def expected(self, engine, connection: int,
                 requests: list[Request]) -> list[Answer]:
        # The oracle is the generated data itself: a drain returns the
        # loaded rows plus every row inserted before it, in the types the
        # storage keeps and the wire returns.
        base = self.base_rows(connection)
        count = len(base)
        total = digest(base)
        answers = []
        ordinal = 0
        for request in requests:
            if request.template == "drain":
                answers.append(Answer("rows", count, total))
            else:
                row = self.inserted_row(connection, ordinal)
                total = (total + digest([row])) & DIGEST_MASK
                count += 1
                ordinal += 1
                answers.append(Answer("count", 1, 0))
        return answers


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


WORKLOADS = {cls.name: cls for cls in (TpchPower, AppReplay, BulkExport)}
