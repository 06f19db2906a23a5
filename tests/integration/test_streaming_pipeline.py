"""Integration tests for the streaming result pipeline (ISSUE 3 tentpole).

The acceptance bar: a >=100k-row query through the wire protocol never holds
more than the configured budget of row data in any one layer, and a paced
client observes its first row while the backend is still producing batches.
"""

import threading
import time

import pytest

from repro.backend.engine import Database
from repro.core.budget import BatchBudget
from repro.core.engine import HyperQ
from repro.protocol.client import TdClient
from repro.protocol.server import ServerThread

ROW_COUNT = 100_000
BATCH_ROWS = 1024
PAD = "x" * 64


class ProbeDatabase(Database):
    """Backend that timestamps every batch it hands to the data path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_log: list[tuple[float, int]] = []  # (monotonic, nrows)
        self._log_lock = threading.Lock()

    def create_session(self):
        session = super().create_session()
        original = session.execute

        def probed(sql):
            result = original(sql)
            result.wrap_batch_source(self._stamped)
            return result

        session.execute = probed
        return session

    def _stamped(self, source):
        for batch in source:
            with self._log_lock:
                self.batch_log.append((time.monotonic(), len(batch)))
            yield batch


def seed_big_table(engine, rows=ROW_COUNT):
    """Create and fill the scan target (seeded directly into backend storage;
    a 100k-row VALUES list would dominate the test in parse time)."""
    engine.create_session().execute(
        "CREATE TABLE BIGSTREAM (N INTEGER, PAD VARCHAR(80))")
    table = engine.backend.catalog.table("BIGSTREAM")
    table.insert_rows([(i, PAD) for i in range(rows)])


class TestFirstRowBeforeLastBatch:
    def test_paced_client_overlaps_backend_production(self):
        budget = BatchBudget(batch_rows=BATCH_ROWS)
        backend = ProbeDatabase(batch_rows=BATCH_ROWS)
        engine = HyperQ(backend=backend, batch_budget=budget)
        seed_big_table(engine)
        with ServerThread(engine) as (host, port):
            with TdClient(host, port, timeout=120.0) as client:
                stream = client.execute_stream("SEL N, PAD FROM BIGSTREAM")
                frame_times: list[float] = []
                frame_sizes: list[int] = []

                def paced(frame):
                    frame_times.append(time.monotonic())
                    frame_sizes.append(len(frame))
                    time.sleep(0.002)  # a deliberately slow consumer

                stream.on_rows = paced
                total = 0
                first_value = None
                for row in stream:
                    if first_value is None:
                        first_value = row[0]
                    total += 1
                assert total == ROW_COUNT
                assert first_value == 0
                assert stream.final.kind == "rows"
                assert stream.final.rowcount == ROW_COUNT

        # The client saw its first frame while the backend still had
        # batches to produce: streaming, not store-and-forward.
        assert len(backend.batch_log) >= ROW_COUNT // BATCH_ROWS
        last_batch_produced = backend.batch_log[-1][0]
        assert frame_times[0] < last_batch_produced

        # Flow control bounds every hop: the backend yielded fixed-size
        # batches and every wire frame carried at most one batch of rows.
        assert max(size for __, size in backend.batch_log) <= BATCH_ROWS
        assert max(frame_sizes) <= BATCH_ROWS
        assert len(frame_sizes) >= ROW_COUNT // BATCH_ROWS


class TestPerLayerMemoryBounds:
    def test_pure_streaming_path_never_buffers(self):
        """Consumed chunk-by-chunk in process, the converted result holds at
        most one chunk and never instantiates a Result Store."""
        budget = BatchBudget(batch_rows=BATCH_ROWS,
                             max_memory_bytes=256 * 1024)
        engine = HyperQ(batch_budget=budget)
        seed_big_table(engine, rows=20_000)
        session = engine.create_session()
        result = session.execute("SEL N, PAD FROM BIGSTREAM")
        converted = result.converted
        assert converted.streaming
        chunks = 0
        for chunk in result.iter_chunks():
            chunks += 1
            # One converted chunk carries one batch: ~BATCH_ROWS rows of
            # ~70-byte records, comfortably under the memory ceiling.
            assert len(chunk) <= budget.max_memory_bytes
        assert chunks >= 20_000 // BATCH_ROWS
        assert converted._store is None  # no buffering on the fast path
        assert converted.peak_chunk_bytes <= budget.max_memory_bytes
        assert result.rowcount == 20_000
        session.close()

    def test_materializing_shim_spills_past_budget(self, tmp_path):
        """HQResult.rows still works under a tiny ceiling — the drain runs
        through the bounded store, which spills mid-stream."""
        budget = BatchBudget(batch_rows=256, max_memory_bytes=4096)
        engine = HyperQ(batch_budget=budget, spill_dir=str(tmp_path))
        seed_big_table(engine, rows=5_000)
        session = engine.create_session()
        result = session.execute("SEL N FROM BIGSTREAM ORDER BY N")
        assert result.rowcount == 5_000  # drains through the store
        store = result.converted.store
        assert store.spilled
        assert store.high_water <= budget.max_memory_bytes
        rows = result.rows
        assert len(rows) == 5_000
        assert rows[0] == (0,) and rows[-1] == (4_999,)
        result.close()
        assert not any(tmp_path.iterdir())  # spill file cleaned up
        session.close()

    def test_span_tree_covers_streaming_wire_request(self):
        """Every wire request yields exactly one complete span tree: one
        root, children nested inside parent intervals, and the streaming
        stages (decode, execute, convert, encode) all present."""
        from repro.core.trace import assert_span_tree

        budget = BatchBudget(batch_rows=BATCH_ROWS)
        engine = HyperQ(batch_budget=budget)
        seed_big_table(engine, rows=2_000)
        with ServerThread(engine) as (host, port):
            with TdClient(host, port, timeout=120.0) as client:
                for __ in range(3):
                    result = client.execute("SEL N, PAD FROM BIGSTREAM")
                    assert result.rowcount == 2_000

        hub = engine.tracing
        deadline = time.monotonic() + 5

        def wire_traces():
            traces = [hub.get_trace(tid) for tid in hub.trace_ids()]
            return [t for t in traces
                    if t is not None and "wire_encode" in t.stage_names()]

        while time.monotonic() < deadline and len(wire_traces()) < 3:
            time.sleep(0.01)
        traced = wire_traces()
        assert len(traced) == 3
        for trace in traced:
            assert_span_tree(trace)  # one root, nesting, all spans finished
            names = trace.stage_names()
            for stage in ("protocol_decode", "odbc_execute",
                          "result_convert", "wire_encode"):
                assert stage in names, f"missing {stage} in {names}"
            # The first packet is decoded before the reply starts; the lazy
            # per-chunk conversion nests under the wire-encode interval.
            encode = next(s for s in trace.spans if s.name == "wire_encode")
            chunks = [s for s in trace.spans if s.name == "result_convert"
                      and s.parent_id == encode.span_id]
            assert chunks
            assert sum(s.attrs["rows"] for s in chunks) == 2_000

    def test_first_row_timing_recorded(self):
        engine = HyperQ()
        seed_big_table(engine, rows=5_000)
        session = engine.create_session()
        result = session.execute("SEL N FROM BIGSTREAM")
        assert result.timing.first_row == 0.0  # nothing consumed yet
        iterator = result.iter_chunks()
        next(iterator)
        first_row = result.timing.first_row
        assert first_row > 0.0
        for __ in iterator:
            pass
        assert result.timing.first_row == first_row  # marked exactly once
        assert engine.timing_log.mean_first_row == pytest.approx(first_row)
        session.close()
