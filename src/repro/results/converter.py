"""The Result Converter: TDF -> source binary format (Section 4.6).

Unwraps TDF packets coming out of the ODBC Server, converts the rows into
the source database's binary record format (:mod:`repro.protocol.encoding`),
optionally in parallel across batches, and either streams the converted
chunks or buffers them in a :class:`~repro.results.store.ResultStore` when
the source protocol needs the full count up front.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro import tdf
from repro.errors import ConversionError
from repro.core import trace as trace_mod
from repro.protocol.encoding import (
    ColumnMeta, RowCodec, decode_rows, effective_meta)
from repro.results.store import ResultStore
from repro.xtra.types import SQLType


@dataclass
class ConvertedResult:
    """A fully converted result set in source binary format."""

    metas: list[ColumnMeta]
    chunks: list[bytes] = field(default_factory=list)
    rowcount: int = 0
    store: Optional[ResultStore] = None

    def iter_chunks(self) -> Iterator[bytes]:
        if self.store is not None:
            yield from self.store
        else:
            yield from self.chunks

    def rows(self) -> list[tuple]:
        """Decode back into Python rows (what a client library would do)."""
        out: list[tuple] = []
        for chunk in self.iter_chunks():
            out.extend(decode_rows(self.metas, chunk))
        return out

    def close(self) -> None:
        """Release converted row data (buffers and any spill file)."""
        self.chunks = []
        if self.store is not None:
            self.store.close()


class StreamingResult:
    """A converted result whose chunks arrive lazily from the backend.

    Chunks flow through exactly once via :meth:`iter_chunks`; nothing is
    retained unless a consumer needs replay or the total row count first, in
    which case :meth:`buffer` drains the remainder into a bounded
    :class:`ResultStore` (spilling past the memory budget). The interface
    mirrors :class:`ConvertedResult` so downstream layers take either.

    :attr:`on_done`, when set, is called once with an outcome string when
    the stream is exhausted, fails, or is closed — the in-process request
    trace finishes there.
    """

    def __init__(self, metas: list[ColumnMeta],
                 source: Iterator[tuple[bytes, int]],
                 max_memory_bytes: int = 64 * 1024 * 1024,
                 spill_dir: Optional[str] = None):
        self.metas = metas
        self._source = source
        self._max_memory = max_memory_bytes
        self._spill_dir = spill_dir
        self.on_done: Optional[Callable[[str], None]] = None
        self._store: Optional[ResultStore] = None
        self._rowcount = 0
        self._consumed = False
        #: Largest single converted chunk seen — the layer's live footprint
        #: on the pure streaming path.
        self.peak_chunk_bytes = 0

    @property
    def streaming(self) -> bool:
        return not self._consumed and self._store is None

    @property
    def store(self) -> ResultStore:
        """The bounded buffer behind this result (compatibility accessor:
        drains the remaining stream into it on first touch)."""
        return self.buffer()

    @property
    def rowcount(self) -> int:
        """Total rows; buffers the remaining stream to find out."""
        if not self._consumed:
            self.buffer()
        return self._rowcount

    def _pull(self) -> Iterator[bytes]:
        try:
            for chunk, nrows in self._source:
                self._rowcount += nrows
                if len(chunk) > self.peak_chunk_bytes:
                    self.peak_chunk_bytes = len(chunk)
                yield chunk
        except Exception as error:
            self._done(f"error:{type(error).__name__}")
            raise
        self._consumed = True
        self._done("ok")

    def _done(self, outcome: str) -> None:
        on_done, self.on_done = self.on_done, None
        if on_done is not None:
            on_done(outcome)

    def iter_chunks(self) -> Iterator[bytes]:
        """Yield converted chunks: replayed from the buffer once one exists,
        otherwise streamed straight through (single use)."""
        if self._store is not None:
            yield from self._store
            return
        if self._consumed:
            raise ConversionError("converted stream was already consumed")
        yield from self._pull()

    def buffer(self) -> ResultStore:
        """Drain the stream into a bounded store; replayable afterwards."""
        if self._store is None:
            store = ResultStore(self._max_memory, self._spill_dir)
            if not self._consumed:
                for chunk in self._pull():
                    store.append(chunk)
            self._store = store
        return self._store

    def rows(self) -> list[tuple]:
        """Decode back into Python rows (what a client library would do)."""
        self.buffer()
        out: list[tuple] = []
        for chunk in self.iter_chunks():
            out.extend(decode_rows(self.metas, chunk))
        return out

    def close(self) -> None:
        """Release buffered chunks and stop pulling from the backend."""
        source, self._source = self._source, iter(())
        self._consumed = True
        close_source = getattr(source, "close", None)
        if close_source is not None:
            # Run the conversion generator's finally blocks now (span
            # finish, in-flight encode bookkeeping) instead of at GC time —
            # the wire paths call close() even on abrupt client disconnect.
            try:
                close_source()
            except Exception:
                pass
        if self._store is not None:
            self._store.close()
            self._store = None
        self._done("ok")


class ResultConverter:
    """Converts TDF batches into source-format chunks.

    ``parallelism > 1`` converts batches concurrently (the paper forks
    conversion processes; threads suffice at reproduction scale because the
    hot loop is struct packing). The worker pool is created once and lives
    for the converter's lifetime — per-call pool construction would eat the
    parallel speedup on streaming workloads — so callers owning a converter
    should :meth:`close` it (sessions do this on close).
    """

    def __init__(self, parallelism: int = 1,
                 buffer_all: bool = True,
                 max_memory_bytes: int = 64 * 1024 * 1024,
                 spill_dir: Optional[str] = None):
        self._parallelism = max(1, parallelism)
        self._buffer_all = buffer_all
        self._max_memory = max_memory_bytes
        self._spill_dir = spill_dir
        self._pool: Optional[ThreadPoolExecutor] = None

    def set_max_memory(self, max_memory_bytes: int) -> None:
        """Adjust the buffering ceiling for subsequent conversions
        (per-request workload-class budget overrides)."""
        if max_memory_bytes < 0:
            raise ValueError("max_memory_bytes cannot be negative")
        self._max_memory = max_memory_bytes

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._parallelism,
                thread_name_prefix="result-converter")
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool rebuilds on reuse)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ResultConverter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def convert(self, batches: Iterable[bytes],
                declared_types: Optional[list[SQLType]] = None) -> ConvertedResult:
        """Convert an iterable of TDF packets into source binary chunks."""
        with trace_mod.span("result_convert") as sp:
            decoded = [tdf.decode_batch(packet) for packet in batches]
            if not decoded:
                return ConvertedResult(metas=[], chunks=[], rowcount=0)
            columns = decoded[0][0]
            row_batches = [rows for __, rows in decoded]
            sample_rows = next((rows for rows in row_batches if rows), [])
            metas = effective_meta(columns, declared_types or [], sample_rows)
            encode_one = RowCodec.for_metas(metas).encode
            if self._parallelism > 1 and len(row_batches) > 1:
                encoded = list(self._ensure_pool().map(
                    encode_one, row_batches))
            else:
                encoded = [encode_one(rows) for rows in row_batches]
            rowcount = sum(len(rows) for rows in row_batches)
            if self._buffer_all:
                store = ResultStore(self._max_memory, self._spill_dir)
                for chunk in encoded:
                    store.append(chunk)
                result = ConvertedResult(metas=metas, rowcount=rowcount,
                                         store=store)
            else:
                result = ConvertedResult(metas=metas, chunks=encoded,
                                         rowcount=rowcount)
            if sp is not None:
                sp.annotate("batches", len(row_batches))
                sp.annotate("rows", rowcount)
                sp.annotate("bytes", sum(len(chunk) for chunk in encoded))
            # Freeing the decoded rows is conversion work too: release them
            # inside the span rather than when the frame unwinds.
            del decoded, row_batches
        trace = trace_mod.current_trace()
        if trace is not None:
            trace.mark_first_row()
        return result

    def convert_stream(self, batches: Iterable[bytes],
                       declared_types: Optional[list[SQLType]] = None,
                       ) -> StreamingResult:
        """Convert TDF packets into source chunks one batch at a time.

        Pulls lazily from *batches*; only the first packet is fetched and
        decoded up front (it supplies the column sample for meta inference,
        and it makes malformed results fail at convert time). With
        ``parallelism > 1`` the converter keeps up to that many encodes in
        flight ahead of the consumer — the paper's parallel conversion,
        still bounded.

        Every pull from *batches* is a ``backend_fetch`` span and every
        decode/encode step a ``result_convert`` span, recorded in the trace
        active here even when the stream is drained later or on another
        thread (see :func:`~repro.core.trace.resume`).
        """
        owner = trace_mod.current_span()
        iterator = iter(batches)

        def fetch() -> Optional[bytes]:
            with trace_mod.span("backend_fetch"):
                return next(iterator, None)

        first_packet = fetch()
        if first_packet is None:
            return StreamingResult([], iter(()), self._max_memory,
                                   self._spill_dir)
        with trace_mod.span("result_convert"):
            columns, sample = tdf.decode_batch(first_packet)
            metas = effective_meta(columns, declared_types or [], sample)
        codec = RowCodec.for_metas(metas)  # one compiled codec per stream

        def converted(packet: Optional[bytes]) -> tuple[bytes, int]:
            # None stands for the first packet, decoded above.
            with trace_mod.span("result_convert") as span:
                rows = sample if packet is None else tdf.decode_batch(packet)[1]
                if span is not None:
                    span.annotate("rows", len(rows))
                return codec.encode(rows), len(rows)

        def serial() -> Iterator[tuple[bytes, int]]:
            yield converted(None)
            while (packet := fetch()) is not None:
                yield converted(packet)

        def parallel() -> Iterator[tuple[bytes, int]]:
            pool = self._ensure_pool()
            in_flight: deque = deque()

            def landed() -> tuple[bytes, int]:
                future, nrows = in_flight.popleft()
                with trace_mod.span("result_convert", rows=nrows):
                    return future.result(), nrows

            rows: Optional[list[tuple]] = sample
            while rows is not None:
                in_flight.append((pool.submit(codec.encode, rows), len(rows)))
                while len(in_flight) > self._parallelism:
                    yield landed()
                packet = fetch()
                if packet is None:
                    break
                with trace_mod.span("result_convert"):
                    rows = tdf.decode_batch(packet)[1]
            while in_flight:
                yield landed()

        def traced(steps: Iterator[tuple[bytes, int]]):
            # Each step runs inside the request's trace, whichever thread
            # pulls; the spans close before control returns to the consumer.
            try:
                while True:
                    with trace_mod.resume(owner):
                        step = next(steps, None)
                    if step is None:
                        return
                    if owner is not None:
                        owner.trace.mark_first_row()
                    yield step
            finally:
                steps.close()

        steps = parallel() if self._parallelism > 1 else serial()
        return StreamingResult(metas, traced(steps), self._max_memory,
                               self._spill_dir)
