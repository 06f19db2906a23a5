"""Per-layer spans for the traced benchmark run, recorded from outside the
program: wrappers around each layer's public entry points, installed in
the server process before it accepts connections.

A span is ``(layer, start, end, parent, request)``. The root span of a
request runs from ``HyperQSession.execute`` to the close of its result,
which the server calls once the last frame is on the wire, so the root
covers execution plus the drain. Spans nest per thread: the threaded wire
path serves a request on one thread. A span opened outside any root (the
blocking read of the next request, LOGON) is counted but charged to no
request, since most of its time is waiting for the client.

Spans stay in memory and are written out once, when the server stops.
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: Layers, in reporting order. Names are the repository's modules.
LAYERS = ("protocol", "core.cache", "core.result_cache", "frontend",
          "transform", "serializer", "core.emulation", "odbc", "backend",
          "results")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "request",
                 "failed")

    def __init__(self, layer, name, parent, request):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.request = request
        self.failed = False
        self.end = 0.0
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        #: Counts made inside requests, by name.
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        #: Result-cache keys inserted and not hit yet (useful-insert ratio).
        self._unhit_inserts: set = set()

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(layer, name, parent,
                    parent.request if parent is not None else None)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def current_request(self):
        stack = self._stack()
        return stack[0].request if stack else None

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter; nothing is counted outside a request."""
        if self.current_request() is None:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def in_request(self) -> bool:
        return self.current_request() is not None

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attribute: str, layer: str, name: str,
              on_result=None) -> None:
        setattr(owner, attribute,
                self.wrap(getattr(owner, attribute), layer, name, on_result))

    def patch_function(self, modules, attribute: str, layer: str,
                       name: str, on_result=None) -> None:
        """Patch a module-level function in every module that looks it up,
        including those that imported it by name."""
        original = getattr(modules[0], attribute)
        traced = self.wrap(original, layer, name, on_result)
        for module in modules:
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, traced)

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        from repro import tdf
        from repro.backend.engine import BackendSession
        from repro.core import cache, result_cache
        from repro.core.emulation import (help_commands, macros, merge,
                                          procedures, recursive, set_tables,
                                          views)
        from repro.core.engine import HQResult, HyperQSession
        from repro.frontend.teradata.binder import Binder
        from repro.frontend.teradata.parser import TeradataParser
        from repro.odbc.api import OdbcResult, OdbcServer
        from repro.protocol import aio_server, encoding, messages, server
        from repro.results.converter import ResultConverter
        from repro.serializer.base import Serializer
        from repro.transform.engine import Transformer

        wire_modules = [messages, server, aio_server]
        self.patch_function(
            wire_modules, "send_message", "protocol", "send_message",
            lambda args, kwargs, result: self.count(
                "protocol.bytes", len(args[2]) if len(args) > 2 else 0))
        self.patch_function(wire_modules, "read_message", "protocol",
                            "read_message")
        self.patch(encoding.RowCodec, "encode", "protocol", "RowCodec.encode")
        self.patch_function([encoding], "encode_rows", "protocol",
                            "encode_rows")

        translation = cache.TranslationCache
        self.patch(translation, "fingerprint_cached", "core.cache",
                   "fingerprint_cached")
        self.patch(translation, "lookup", "core.cache", "lookup",
                   lambda a, k, hit: self.count(
                       "core.cache.hits" if hit is not None
                       else "core.cache.misses"))
        self.patch(translation, "insert", "core.cache", "insert")
        note_bypass = translation.note_bypass

        def counted_bypass(cache_self, *args, **kwargs):
            self.count("core.cache.bypasses")
            return note_bypass(cache_self, *args, **kwargs)

        translation.note_bypass = counted_bypass

        results_cache = result_cache.ResultCache

        def on_lookup(args, kwargs, entry):
            if entry is None:
                self.count("core.result_cache.misses")
                return
            self.count("core.result_cache.hits")
            with self._lock:
                useful = args[1] in self._unhit_inserts
                self._unhit_inserts.discard(args[1])
            if useful:
                self.count("core.result_cache.useful_inserts")

        def on_insert(args, kwargs, stored):
            if stored and self.in_request():
                self.count("core.result_cache.inserts")
                with self._lock:
                    self._unhit_inserts.add(args[1])

        self.patch(results_cache, "lookup", "core.result_cache", "lookup",
                   on_lookup)
        self.patch(results_cache, "insert", "core.result_cache", "insert",
                   on_insert)
        self.patch(results_cache, "invalidate_tables", "core.result_cache",
                   "invalidate_tables",
                   lambda a, k, dropped: self.count(
                       "core.result_cache.invalidations", dropped or 0))

        self.patch(TeradataParser, "parse_statement", "frontend",
                   "parse_statement")
        self.patch(TeradataParser, "parse_script", "frontend", "parse_script")
        self.patch(Binder, "bind", "frontend", "bind")
        self.patch(Transformer, "transform", "transform", "transform")
        self.patch(Serializer, "serialize", "serializer", "serialize")

        for module, attribute in ((macros, "run"), (merge, "run"),
                                  (views, "run_dml"), (recursive, "run"),
                                  (help_commands, "run"),
                                  (procedures, "run"),
                                  (set_tables, "run_insert")):
            self.patch(module, attribute, "core.emulation",
                       f"{module.__name__.rsplit('.', 1)[-1]}.{attribute}")

        self.patch(OdbcServer, "execute", "odbc", "execute",
                   lambda a, k, r: self.count("odbc.statements"))
        fetch_batches = OdbcResult.fetch_batches

        def traced_fetch(odbc_self):
            return _TracedIterator(self, fetch_batches(odbc_self))

        OdbcResult.fetch_batches = traced_fetch
        OdbcResult.tdf_batches = traced_fetch
        self.patch(BackendSession, "execute", "backend", "execute")

        self.patch(ResultConverter, "convert", "results", "convert")
        self.patch(ResultConverter, "convert_stream", "results",
                   "convert_stream")
        self.patch_function(
            [tdf], "decode_batch", "results", "tdf.decode_batch",
            lambda a, k, decoded: self.count("results.rows",
                                             len(decoded[1])))
        self.patch_function([tdf], "encode_batch", "results",
                            "tdf.encode_batch")

        self._install_root(HyperQSession, HQResult)

    def _install_root(self, session_cls, result_cls) -> None:
        """The root span: from ``HyperQSession.execute`` until the result
        it returned is closed. Calls nested in a request (emulators
        re-entering execute) add no span."""
        execute = session_cls.execute
        close = result_cls.close
        tracer = self

        def traced_execute(session, *args, **kwargs):
            if tracer.in_request():
                return execute(session, *args, **kwargs)
            stack = tracer._stack()
            del stack[:]  # spans a previous request left open
            with tracer._lock:
                tracer._requests += 1
                request = tracer._requests
            root = Span("request", "request", None, request)
            stack.append(root)
            tracer.spans.append(root)
            try:
                result = execute(session, *args, **kwargs)
            except BaseException:
                root.failed = True
                tracer.close(root)
                raise
            result._perfbench_root = root
            return result

        def traced_close(result):
            root = getattr(result, "_perfbench_root", None)
            try:
                close(result)
            finally:
                if root is not None and not root.end:
                    tracer.close(root)

        session_cls.execute = traced_execute
        result_cls.close = traced_close

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span and counter. Spans are
        ``[layer, name, start, end, parent index, request, failed]``."""
        index = {id(span): position
                 for position, span in enumerate(self.spans)}
        rows = []
        for span in self.spans:
            parent = index.get(id(span.parent)) if span.parent else None
            rows.append([span.layer, span.name, span.start, span.end,
                         parent, span.request, span.failed])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": rows, "counters": self.counters}, handle)


class _TracedIterator:
    """Times each ``next()`` on a fetch iterator as one ``odbc`` span, so a
    lazy backend pull is charged to the fetch, not to whoever drains."""

    def __init__(self, tracer: Tracer, iterator):
        self._tracer = tracer
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.open("odbc", "fetch")
        try:
            return next(self._iterator)
        except StopIteration:
            raise
        except BaseException:
            span.failed = True
            raise
        finally:
            self._tracer.close(span)


def summarize(spans: list, counters: dict) -> dict:
    """Per-layer metrics from written spans: ``<layer>.calls_per_req``,
    ``.self_ms_per_req`` and ``.failed`` for every layer, plus the cache,
    ODBC, result and overhead ratios."""
    durations = [end - start if end else 0.0
                 for __, __, start, end, __, __, __ in spans]
    child = [0.0] * len(spans)
    for position, span in enumerate(spans):
        parent = span[4]
        if parent is not None:
            child[parent] += durations[position]
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    failed = {layer: 0 for layer in LAYERS}
    by_name: dict[str, float] = {}
    requests = 0
    root_s = 0.0
    unattributed_s = 0.0
    orphans = 0
    for position, (layer, name, *__, request, was_failed) in enumerate(spans):
        if request is None:
            orphans += 1
            continue
        own = durations[position] - child[position]
        if layer == "request":
            requests += 1
            root_s += durations[position]
            unattributed_s += own
            continue
        calls[layer] += 1
        self_s[layer] += own
        failed[layer] += int(was_failed)
        key = f"{layer}.{name}"
        by_name[key] = by_name.get(key, 0.0) + own
    per = max(requests, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_req"] = (calls[layer] / per, "calls/req")
        metrics[f"{layer}.self_ms_per_req"] = (self_s[layer] * 1000 / per,
                                               "ms/req")
        metrics[f"{layer}.failed"] = (failed[layer], "count")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    get = counters.get
    lookups = get("core.cache.hits", 0) + get("core.cache.misses", 0)
    metrics["core.cache.hit_ratio"] = (
        ratio(get("core.cache.hits", 0), lookups), "ratio")
    metrics["core.cache.bypass_ratio"] = (
        ratio(get("core.cache.bypasses", 0), lookups), "ratio")
    rc_lookups = (get("core.result_cache.hits", 0)
                  + get("core.result_cache.misses", 0))
    metrics["core.result_cache.hit_ratio"] = (
        ratio(get("core.result_cache.hits", 0), rc_lookups), "ratio")
    metrics["core.result_cache.useful_insert_ratio"] = (
        ratio(get("core.result_cache.useful_inserts", 0),
              get("core.result_cache.inserts", 0)), "ratio")
    metrics["core.result_cache.invalidations_per_req"] = (
        get("core.result_cache.invalidations", 0) / per, "entries/req")
    metrics["odbc.statements_per_req"] = (
        get("odbc.statements", 0) / per, "stmts/req")
    metrics["odbc.execute_ms_per_req"] = (
        by_name.get("odbc.execute", 0.0) * 1000 / per, "ms/req")
    metrics["odbc.fetch_ms_per_req"] = (
        by_name.get("odbc.fetch", 0.0) * 1000 / per, "ms/req")
    metrics["results.rows_per_req"] = (get("results.rows", 0) / per,
                                       "rows/req")
    metrics["protocol.bytes_per_req"] = (get("protocol.bytes", 0) / per,
                                         "bytes/req")
    # Figure 9's Hyper-Q overhead: request time not spent in the ODBC
    # layer's own work (which includes lazy backend pulls) or the backend.
    warehouse_s = self_s["odbc"] + self_s["backend"]
    metrics["proxy.overhead_ms_per_req"] = (
        (root_s - warehouse_s) * 1000 / per, "ms/req")
    metrics["proxy.overhead_pct"] = (
        ratio(root_s - warehouse_s, root_s) * 100, "%")
    metrics["request.ms_per_req"] = (root_s * 1000 / per, "ms/req")
    metrics["trace.unattributed_ms_per_req"] = (unattributed_s * 1000 / per,
                                                "ms/req")
    return {"metrics": metrics, "requests": requests, "orphan_spans": orphans,
            "spans": len(spans)}
