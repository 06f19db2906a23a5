"""The Figure 9 timing view adds up to the request's span tree.

Every request's :class:`~repro.core.timing.RequestTiming` is derived from
its trace, so for every finished trace:

* each stage equals the sum of the exclusive times of the spans mapped to
  it (no span falls outside the stage map);
* the stages plus the root's own exclusive time equal the root duration;
* on a large drain — and on that drain's result-cache hit — almost all of
  the root is attributed: its exclusive time is at most 5% of its duration.

Run in-process and over the wire (``HQ_WIRE=async`` switches the server),
on the golden corpus and on a 20k-row mixed-type drain.
"""

from __future__ import annotations

import datetime
import time

import pytest

from repro import HyperQ, ServerThread, TdClient
from repro.core.timing import STAGES, exclusive_times, stage_of
from repro.core.trace import assert_span_tree
from tests.golden.corpus import CORPUS, SETUP

DRAIN_ROWS = 20_000
DRAIN_SQL = "SEL ID, NAME, AMOUNT, DAY FROM BIGMIX"
#: Share of a drain's root duration no span may leave unattributed.
MAX_UNATTRIBUTED = 0.05


def stage_sums(trace) -> tuple[dict[str, float], float]:
    """Per-stage sums of exclusive span time, plus the root's own time."""
    spans = list(trace.spans)
    own = exclusive_times(spans)
    sums = dict.fromkeys(STAGES, 0.0)
    for span, seconds in zip(spans[1:], own[1:]):
        stage = stage_of(span.name)
        assert stage is not None, f"span {span.name} has no stage"
        sums[stage] += seconds
    return sums, own[0]


def assert_adds_up(trace) -> float:
    """Check one finished trace; returns its unattributed share."""
    assert trace.done and trace.timing is not None
    assert_span_tree(trace)
    sums, root_own = stage_sums(trace)
    view = trace.timing
    for stage in STAGES:
        assert getattr(view, stage) == pytest.approx(sums[stage], abs=1e-9)
        assert sums[stage] >= -1e-9, f"{stage} went negative"
    assert root_own >= -1e-9
    assert view.total + root_own == pytest.approx(trace.duration, abs=1e-9)
    return root_own / trace.duration if trace.duration else 0.0


def seed_drain_table(engine) -> None:
    engine.create_session().execute(
        "CREATE TABLE BIGMIX (ID INTEGER, NAME VARCHAR(40), "
        "AMOUNT DECIMAL(12,2), DAY DATE)")
    start = datetime.date(2015, 1, 1)
    engine.backend.catalog.table("BIGMIX").insert_rows([
        (i, f"name-{i % 977:04d}", (i % 10_000) / 100,
         start + datetime.timedelta(days=i % 3_000))
        for i in range(DRAIN_ROWS)])


def drain_engine() -> HyperQ:
    engine = HyperQ(result_cache_bytes=64 * 1024 * 1024)
    seed_drain_table(engine)
    return engine


def finished_wire_traces(engine, expected: int):
    """Wire traces finish just after the reply is sent; wait for them."""
    hub = engine.tracing
    deadline = time.monotonic() + 10

    def collect():
        traces = [hub.get_trace(tid) for tid in hub.trace_ids()]
        return [t for t in traces if t is not None and t.done
                and "protocol_decode" in t.stage_names()]

    while time.monotonic() < deadline and len(collect()) < expected:
        time.sleep(0.01)
    return collect()


class TestInProcess:
    def test_golden_corpus_adds_up(self):
        engine = HyperQ()
        session = engine.create_session()
        for sql in SETUP:
            session.execute(sql).close()
        for name, sql in CORPUS:
            result = session.execute(sql)
            result.rows  # drain, so the lazy conversion spans are included
            result.close()
            assert_adds_up(engine.tracing.last_trace())
        session.close()

    def test_drain_and_result_cache_hit_are_attributed(self):
        engine = drain_engine()
        session = engine.create_session()
        for expect_hit in (False, True):
            result = session.execute(DRAIN_SQL)
            assert len(result.rows) == DRAIN_ROWS
            trace = engine.tracing.last_trace()
            assert trace.sql == DRAIN_SQL
            hits = [s.attrs["hit"] for s in trace.spans
                    if s.name == "result_cache" and "hit" in s.attrs]
            assert hits == [expect_hit]
            # The root stays open until the stream is exhausted, so the
            # drain's conversion and backend pulls are inside it.
            assert result.timing is trace.timing
            assert trace.timing.result_conversion > 0.0
            assert trace.timing.first_row > 0.0
            assert assert_adds_up(trace) <= MAX_UNATTRIBUTED
            result.close()
        session.close()


class TestOverTheWire:
    def test_golden_corpus_adds_up(self):
        engine = HyperQ()
        with ServerThread(engine) as (host, port):
            with TdClient(host, port, timeout=60.0) as client:
                for sql in SETUP:
                    client.execute(sql)
                for __, sql in CORPUS:
                    client.execute(sql)
        expected = len(SETUP) + len(CORPUS)
        traces = finished_wire_traces(engine, expected)
        assert len(traces) == expected
        for trace in traces:
            assert_adds_up(trace)
            assert trace.timing.protocol > 0.0

    def test_drain_and_result_cache_hit_are_attributed(self):
        engine = drain_engine()
        with ServerThread(engine) as (host, port):
            with TdClient(host, port, timeout=120.0) as client:
                for __ in range(2):
                    assert client.execute(DRAIN_SQL).rowcount == DRAIN_ROWS
        traces = finished_wire_traces(engine, 2)
        assert len(traces) == 2
        for trace, expect_hit in zip(traces, (False, True)):
            hits = [s.attrs["hit"] for s in trace.spans
                    if s.name == "result_cache" and "hit" in s.attrs]
            assert hits == [expect_hit]
            assert trace.timing.result_conversion > 0.0
            assert assert_adds_up(trace) <= MAX_UNATTRIBUTED
