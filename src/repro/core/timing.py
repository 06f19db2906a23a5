"""Per-request timing breakdown (the instrumentation behind Figure 9).

The paper splits response time into query translation, execution in the
target database, and result transformation. The reproduction adds cache
lookup, dependency extraction (plus result-cache bookkeeping), queue wait
(classification plus admission queueing) and protocol (wire decode and
encode).

Every stage is read off the request's span tree (:mod:`repro.core.trace`):
:data:`STAGE_OF` assigns each span name to one stage, and
:meth:`RequestTiming.from_trace` charges each span's *exclusive* time — its
duration minus its children's — to its stage. The stages plus the root's
own exclusive time (work no span covers) add up to the root's duration.
*First row* is a mark on the trace, not a stage, so it is never folded
into ``total``.

:class:`TimingLog` aggregates finished requests: exact per-stage totals
plus a bounded window of recent views, mirrored into the
``hyperq_stage_seconds_<stage>`` histograms when it has a registry.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import Optional

#: Stages of the Figure 9 breakdown, in reporting order.
STAGES = ("translation", "execution", "result_conversion", "cache_lookup",
          "dependency_extract", "queue_wait", "protocol")

#: The stage of every span name emitted by the pipeline; ``rule:<name>``
#: spans (rewrite rules, children of ``transform``) are translation too.
STAGE_OF = {name: stage for stage, names in (
    ("translation", ("parse", "bind", "transform", "serialize")),
    ("execution", ("odbc_execute", "attempt", "replica_attempt",
                   "backend_fetch")),
    ("result_conversion", ("result_convert",)),
    ("cache_lookup", ("cache_lookup", "cache_insert")),
    ("dependency_extract", ("dependency_extract", "result_cache")),
    ("queue_wait", ("classify", "queue_wait")),
    ("protocol", ("protocol_decode", "wire_encode")),
) for name in names}


def stage_of(name: str) -> Optional[str]:
    """The Figure 9 stage a span named *name* is charged to (None for a
    name outside the pipeline, which no stage counts)."""
    if name.startswith("rule:"):
        return "translation"
    return STAGE_OF.get(name)


def exclusive_times(spans) -> list[float]:
    """Each span's own time (duration minus its children's durations) for
    a trace's span list; a ``synthetic`` attribute adds simulated seconds
    (injected queue age) to the span that stands for them."""
    own = [span.duration + span.attrs.get("synthetic", 0.0)
           for span in spans]
    for span in spans[1:]:
        own[span.parent_id] -= span.duration
    return own


@dataclass
class RequestTiming:
    """Seconds spent in each pipeline stage for one request."""

    translation: float = 0.0
    execution: float = 0.0
    result_conversion: float = 0.0
    cache_lookup: float = 0.0
    dependency_extract: float = 0.0
    queue_wait: float = 0.0
    protocol: float = 0.0
    #: Latency from request start to the first converted chunk (0.0 when
    #: no rows were produced or read yet; excluded from :attr:`total`).
    first_row: float = 0.0

    @classmethod
    def from_trace(cls, trace) -> "RequestTiming":
        """The view of *trace*: each non-root span's exclusive time summed
        into its stage. On a trace still running, open spans count zero."""
        view = cls(first_row=trace.first_row)
        spans = list(trace.spans)
        for span, own in zip(spans[1:], exclusive_times(spans)[1:]):
            stage = stage_of(span.name)
            if stage is not None:
                setattr(view, stage, getattr(view, stage) + own)
        return view

    @property
    def total(self) -> float:
        return sum(getattr(self, stage) for stage in STAGES)

    @property
    def overhead_fraction(self) -> float:
        """Hyper-Q's share of the request (everything but execution)."""
        total = self.total
        return (total - self.execution) / total if total else 0.0


class TimingLog:
    """Aggregated timings across many requests (Figure 9 series).

    Totals are exact over every recorded request; :attr:`requests` holds
    only the most recent *window* views, so a long-running server's log
    stays bounded.
    """

    def __init__(self, window: int = 256, metrics: Optional[object] = None):
        #: Optional :class:`~repro.core.trace.MetricsRegistry` fed on every
        #: :meth:`record` (typed loosely to keep this module import-light).
        self.metrics = metrics
        self._window = window
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every recorded request (histograms keep theirs)."""
        with self._lock:
            self._totals = RequestTiming()
            self._recent: deque[RequestTiming] = deque(maxlen=self._window)
            self.count = 0
            self._first_rows = 0

    def record(self, timing: RequestTiming) -> None:
        with self._lock:
            self.count += 1
            self._recent.append(timing)
            for field in fields(RequestTiming):
                name = field.name
                setattr(self._totals, name,
                        getattr(self._totals, name) + getattr(timing, name))
            if timing.first_row:
                self._first_rows += 1
        registry = self.metrics
        if registry is None:
            return
        registry.counter("hyperq_timed_requests_total").inc()
        for stage in STAGES:
            value = getattr(timing, stage)
            if value > 0.0:
                registry.histogram(
                    f"hyperq_stage_seconds_{stage}").observe(value)
        registry.histogram("hyperq_pipeline_seconds").observe(timing.total)
        if timing.first_row:
            registry.histogram("hyperq_first_row_seconds").observe(
                timing.first_row)

    @property
    def requests(self) -> list[RequestTiming]:
        """The most recent views, oldest first."""
        with self._lock:
            return list(self._recent)

    def __getattr__(self, name: str) -> float:
        # Per-stage totals: ``log.translation``, ``log.queue_wait``, ...
        if name in STAGES:
            return getattr(self._totals, name)
        raise AttributeError(name)

    @property
    def mean_first_row(self) -> float:
        """Mean time-to-first-row across requests that produced rows."""
        with self._lock:
            if not self._first_rows:
                return 0.0
            return self._totals.first_row / self._first_rows

    @property
    def total(self) -> float:
        return self._totals.total

    def breakdown(self) -> dict[str, float]:
        """Fractions of end-to-end time per stage (sums to 1.0)."""
        total = self.total
        return {stage: getattr(self._totals, stage) / total if total else 0.0
                for stage in STAGES}

    @property
    def overhead_fraction(self) -> float:
        """Hyper-Q overhead as a fraction of end-to-end time (Figure 9)."""
        return self._totals.overhead_fraction
