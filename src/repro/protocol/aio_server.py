"""The asyncio wire path: every session of a worker on one event loop.

The threaded server (:mod:`repro.protocol.server`) dedicates an OS thread to
each connection; at the Section 7.3 stress scale — hundreds of mostly-idle
BI sessions — those threads spend their lives blocked in ``recv`` while the
GIL shuffles the few that are runnable. This module multiplexes all of a
worker's connections onto a single event loop:

* **Framing and writes live on the loop.** Frames are parsed with
  ``StreamReader.readexactly`` and written as separate header/payload views
  (no concatenation); ``await writer.drain()`` gives per-connection
  backpressure bounded by the transport's write-buffer high-water mark, so
  a slow client stalls only its own chunk pump, never the loop.
* **CPU-bound work hops to a bounded executor.** Translate/execute/convert
  run via ``loop.run_in_executor``; the PR 3 streaming pipeline is already
  pull-based, so the chunk pump awaits one ``next(iterator)`` per chunk on
  an executor thread, writes the chunk, drains, and pulls again — the
  backend never runs ahead of the client by more than the bounded lookahead.
* **Trace spans hand off explicitly.** The request's root span is activated
  inside every executor callable (:func:`repro.core.trace.activate`), so
  span trees look identical to the threaded path's.
* **Everything else is shared.** The managed admission path
  (:func:`repro.protocol.server.run_managed`), fault sites, drain
  semantics, and the compiled row codecs are the same objects the threaded
  server uses; replies are byte-identical (asserted by
  ``tests/integration/test_async_wire.py``).

The server is API-compatible with :class:`HyperQServer` where the gateway
and the test-suites touch it: ``process_request`` (SCM_RIGHTS socket
adoption), ``begin_drain``/``drained``, ``server_close``, ``address``,
``next_session_id``, ``draining``.
"""

from __future__ import annotations

import asyncio
import functools
import os
import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import (BackendTimeoutError, HyperQError, ProtocolError,
                          UnknownTenantError)
from repro.core import faults as flt
from repro.core import trace as trace_mod
from repro.core.engine import HQResult, HyperQ
from repro.protocol.encoding import encode_meta
from repro.protocol.messages import HEADER, MAGIC, MAX_PAYLOAD, MessageKind, \
    parse_header
from repro.protocol.server import RequestState, _discard_result, \
    await_straggler, run_managed

#: Default transport write-buffer high-water mark: above this many buffered
#: bytes ``drain()`` blocks the chunk pump until the client catches up.
WRITE_HIGH_WATER = 256 * 1024

#: Sentinel returned by the executor-side chunk pull at end of stream.
_DONE = object()


async def read_frame(reader: asyncio.StreamReader) -> tuple[MessageKind, bytes]:
    """Read one wire frame; validation matches the blocking reader."""
    header = await reader.readexactly(HEADER.size)
    kind, length = parse_header(header)
    payload = await reader.readexactly(length) if length else b""
    return kind, payload


def _silence(future) -> None:
    """Mark an abandoned future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


class _AioConnection:
    """Loop-side state for one client connection."""

    __slots__ = ("reader", "writer", "busy", "state", "pending_pull",
                 "open_result")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.busy = False
        self.state = RequestState()
        #: Executor future of an in-flight chunk pull; cleanup must wait for
        #: it before closing the result (a generator must never be closed
        #: while another thread is inside ``next`` on it).
        self.pending_pull = None
        #: The result currently streaming to this client, closed on every
        #: exit path — including abrupt disconnect between frames.
        self.open_result = None


def _finish_connection(pending, result, straggler, session) -> None:
    """Executor-side teardown: wait out in-flight work, then release
    result buffers and the session, in dependency order."""
    if pending is not None:
        try:
            pending.result(timeout=30)
        except Exception:  # noqa: BLE001 — best-effort teardown
            pass
    if result is not None:
        try:
            result.close()
        except Exception:  # noqa: BLE001
            pass
    if straggler is not None:
        try:
            straggler.result()
        except Exception:  # noqa: BLE001 — its error already became a reply
            pass
    if session is not None:
        try:
            session.close()
        except Exception:  # noqa: BLE001
            pass


class AioHyperQServer:
    """Asyncio wire server wrapping one Hyper-Q engine.

    Owns a dedicated event-loop thread. ``bind=True`` listens on
    ``host:port``; ``bind=False`` serves only sockets handed over through
    :meth:`process_request` (the gateway worker shape).
    """

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64, bind: bool = True,
                 executor_workers: Optional[int] = None,
                 write_high_water: int = WRITE_HIGH_WATER):
        self.engine = engine
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.write_high_water = write_high_water
        self.draining = False
        if executor_workers is None:
            cpus = os.cpu_count() or 2
            # Enough threads to keep every core busy plus headroom for
            # requests blocked in the workload manager's queue; never more
            # than one per admissible connection.
            executor_workers = max(4, min(max_connections, cpus * 4))
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="hyperq-aio")
        self._host = host
        self._port = port
        self._bind = bind
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aserver: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._conns: set[_AioConnection] = set()
        self._conns_lock = threading.Lock()
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        self._sema: Optional[asyncio.Semaphore] = None
        self._closed = False
        #: High-water mark of transport write-buffer bytes observed across
        #: all connections — the backpressure test's bound.
        self.peak_write_buffer = 0
        #: Executor-side chunk pulls currently in flight (cancellation
        #: test hook: must fall to zero after a client disconnect).
        self.active_pulls = 0
        self._pull_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the loop thread (and listener with ``bind=True``)."""
        self._thread = threading.Thread(target=self._run_loop,
                                        name="hyperq-aio-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("asyncio wire server failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._sema = asyncio.Semaphore(self.max_connections)
        try:
            if self._bind:
                self._aserver = loop.run_until_complete(asyncio.start_server(
                    self._serve_client, self._host, self._port, backlog=128))
        except BaseException as error:  # noqa: BLE001 — surface via start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                if self._aserver is not None:
                    self._aserver.close()
                    loop.run_until_complete(self._aserver.wait_closed())
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    # Cancelled connection tasks still run their cleanup
                    # finallys (session close via the executor); bound the
                    # wait so a wedged task cannot hang shutdown.
                    loop.run_until_complete(
                        asyncio.wait(tasks, timeout=5))
            finally:
                loop.close()

    @property
    def address(self) -> tuple[str, int]:
        if self._aserver is None or not self._aserver.sockets:
            return self._host, 0
        host, port = self._aserver.sockets[0].getsockname()[:2]
        return str(host), int(port)

    def next_session_id(self) -> int:
        with self._counter_lock:
            self._session_counter += 1
            return self._session_counter

    # -- graceful drain ---------------------------------------------------------------

    def begin_drain(self) -> None:
        """Mirror of the threaded drain: no new sessions register, idle
        connections see EOF now, busy ones finish their current request
        (the client gets its full reply) before the serve loop exits."""
        loop = self._loop

        def _do() -> None:
            self.draining = True
            with self._conns_lock:
                conns = list(self._conns)
            for conn in conns:
                if not conn.busy:
                    # EOF queues *behind* already-buffered bytes, so a
                    # request that raced the drain still parses and gets
                    # served — same semantics as SHUT_RD on the threaded
                    # path.
                    conn.reader.feed_eof()

        if loop is None or loop.is_closed():
            self.draining = True
            return
        try:
            loop.call_soon_threadsafe(_do)
        except RuntimeError:
            self.draining = True

    def drained(self) -> bool:
        with self._conns_lock:
            return not self._conns

    def _register(self, conn: _AioConnection) -> bool:
        with self._conns_lock:
            if self.draining:
                return False
            self._conns.add(conn)
            return True

    def _unregister(self, conn: _AioConnection) -> None:
        with self._conns_lock:
            self._conns.discard(conn)

    # -- shutdown ---------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the event loop (compat with ``HyperQServer.shutdown``)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        if self._thread is not None \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=10)
        # Queued teardown tasks still run; shutdown only stops new submits.
        self._executor.shutdown(wait=False)

    # -- gateway socket adoption --------------------------------------------------------

    def process_request(self, sock: socket.socket, client_address) -> None:
        """Adopt an accepted socket (SCM_RIGHTS handoff from the gateway
        acceptor). Thread-safe; the loop takes ownership of *sock*."""
        loop = self._loop
        if loop is None or loop.is_closed():
            try:
                sock.close()
            except OSError:
                pass
            return
        asyncio.run_coroutine_threadsafe(self._serve_socket(sock), loop)

    async def _serve_socket(self, sock: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            try:
                sock.close()
            except OSError:
                pass
            return
        await self._serve_client(reader, writer)

    # -- connection serving -------------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        async with self._sema:
            conn = _AioConnection(reader, writer)
            session = None
            registered = False
            try:
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    try:
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                    except OSError:
                        pass
                writer.transport.set_write_buffer_limits(
                    high=self.write_high_water)
                kind, payload = await read_frame(reader)
                if kind is not MessageKind.LOGON_REQUEST:
                    raise ProtocolError("expected LOGON_REQUEST")
                # LOGON payload: ``user\0password`` with an optional third
                # ``\0tenant`` field (absent for legacy clients).
                fields = payload.split(b"\0", 2)
                user = fields[0].decode("utf-8", "replace")
                tenant_field = (fields[2].decode("utf-8", "replace")
                                if len(fields) > 2 else "")
                engine = self.engine
                tenant = None
                if engine.tenancy is not None:
                    try:
                        tenant = engine.tenancy.resolve(tenant_field or None)
                    except UnknownTenantError as error:
                        await self._send(conn, MessageKind.FAILURE,
                                         str(error).encode("utf-8"))
                        return
                session = engine.create_session()
                session.session_params["USER"] = user.upper() or "HYPERQ"
                if engine.tenancy is not None:
                    session.session_params["TENANT"] = tenant
                await self._send(conn, MessageKind.LOGON_RESPONSE,
                                 struct.pack(">I", self.next_session_id()))
                registered = self._register(conn)
                if registered:
                    await self._serve(conn, session)
            except (ProtocolError, ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                return
            except asyncio.CancelledError:
                # Loop shutdown cancels connection tasks; cleanup below
                # still runs, and swallowing here keeps the streams-module
                # connection_made callback from logging the cancellation.
                return
            except Exception:  # noqa: BLE001 — parity with handle_error()
                return
            finally:
                if registered:
                    self._unregister(conn)
                self._teardown(conn, session)

    def _teardown(self, conn: _AioConnection, session) -> None:
        """Close the writer now; push blocking teardown to the executor.

        Sessions close on *every* exit path — a client that vanishes
        mid-request must not leak its volatile-table overlay, its converter
        resources, or an open ``ResultStore``. Ordering matters: an
        in-flight chunk pull must land before the result closes (a
        generator cannot be closed while a thread is inside it), and a
        straggler must land before the session closes under it.
        """
        pending, conn.pending_pull = conn.pending_pull, None
        result, conn.open_result = conn.open_result, None
        straggler, conn.state.straggler = conn.state.straggler, None
        if (pending, result, straggler, session) != (None, None, None, None):
            try:
                self._executor.submit(_finish_connection, pending, result,
                                      straggler, session)
            except RuntimeError:
                # Executor already shut down (server closing): best-effort
                # inline.
                _finish_connection(pending, result, straggler, session)
        try:
            conn.writer.close()
        except Exception:  # noqa: BLE001
            pass

    async def _serve(self, conn: _AioConnection, session) -> None:
        while True:
            kind, payload = await read_frame(conn.reader)
            if kind is MessageKind.LOGOFF:
                return
            if kind is not MessageKind.RUN_QUERY:
                raise ProtocolError(f"unexpected message {kind.name}")
            # Busy for the span of the request: a drain never cuts a query
            # already being served (the loop runs `_do` between awaits, so
            # the flag is race-free).
            conn.busy = True
            try:
                alive = await self._handle_request(conn, session, payload)
            finally:
                conn.busy = False
            if not alive or self.draining:
                return

    async def _handle_request(self, conn: _AioConnection, session,
                              payload: bytes) -> bool:
        """Serve one RUN_QUERY under a request-scoped trace.

        Mirrors the threaded `_handle_request` decision-for-decision: same
        span names, same fault sites, same FAILURE texts — the parity suite
        diffs the reply bytes of the two paths.
        """
        engine = self.engine
        hub = engine.tracing
        trace = hub.start_trace("request")
        state = conn.state
        state.wl_class = None
        root = trace.root
        with trace_mod.activate(root):
            outcome = "ok"
            try:
                with trace_mod.span("protocol_decode", bytes=len(payload)):
                    sql = payload.decode("utf-8")
                    fault = (engine.faults.draw("wire", op=sql)
                             if engine.faults is not None else None)
                trace.sql = sql
                trace.root.annotate("sql", sql[:200])
                if fault is not None and fault.kind == flt.WIRE_DISCONNECT:
                    engine.resilience.note("wire_disconnect")
                    engine.faults.record("wire_disconnect", seq=fault.seq)
                    trace_mod.add_event("wire_disconnect", seq=fault.seq)
                    outcome = "wire_disconnect"
                    return False
                if engine.faults is not None \
                        and engine.worker_index is not None:
                    gw_fault = engine.faults.draw(
                        "gateway", op=sql, replica=engine.worker_index)
                    if gw_fault is not None \
                            and gw_fault.kind == flt.WORKER_CRASH:
                        os._exit(86)
                delay = fault.delay if fault is not None \
                    and fault.kind == flt.SLOW_RESULT else 0.0
                try:
                    result = await self._run_request(state, session, sql,
                                                     delay, root)
                except HyperQError as error:  # timeouts, sheds, queue expiry
                    outcome = f"error:{type(error).__name__}"
                    await self._send(conn, MessageKind.FAILURE,
                                     str(error).encode("utf-8"))
                    return True
                except Exception as error:  # noqa: BLE001 — reply, don't drop
                    outcome = f"error:{type(error).__name__}"
                    await self._send(conn, MessageKind.FAILURE,
                                     f"internal error: {error}"
                                     .encode("utf-8"))
                    return True
                await self._send_result(conn, result)
                return True
            except BaseException as error:  # connection died mid-reply
                outcome = f"error:{type(error).__name__}"
                raise
            finally:
                hub.finish_trace(trace, outcome, wl_class=state.wl_class)

    # -- request execution --------------------------------------------------------------

    async def _run_request(self, state: RequestState, session, sql: str,
                           delay: float, root) -> HQResult:
        loop = asyncio.get_running_loop()
        if self.engine.workload is not None:
            # The whole managed flow (straggler drain → classify → submit →
            # wait) is one blocking unit sharing run_managed with the
            # threaded path; it occupies one executor slot while queued,
            # exactly as it occupies one connection thread there.
            return await loop.run_in_executor(
                self._executor,
                functools.partial(self._managed_blocking, state, session,
                                  sql, delay, root))
        return await self._run_direct(state, session, sql, delay, root)

    def _managed_blocking(self, state, session, sql, delay, root) -> HQResult:
        with trace_mod.activate(root):
            return run_managed(self, state, session, sql, delay)

    async def _run_direct(self, state: RequestState, session, sql: str,
                          delay: float, root) -> HQResult:
        # A straggler from a timed-out request must land before the session
        # is touched again — the threaded path serializes via its 1-thread
        # executor; here the executor is shared, so serialize explicitly.
        straggler, state.straggler = state.straggler, None
        if straggler is not None:
            try:
                await asyncio.wrap_future(straggler)
            except Exception:  # noqa: BLE001 — already replied FAILURE
                pass

        import time as time_mod

        def work() -> HQResult:
            with trace_mod.activate(root):
                if delay > 0:
                    time_mod.sleep(delay)
                return session.execute(sql)

        loop = asyncio.get_running_loop()
        timeout = self.request_timeout
        if timeout is None:
            return await loop.run_in_executor(self._executor, work)
        future = self._executor.submit(work)
        wrapped = asyncio.ensure_future(asyncio.wrap_future(future))
        try:
            return await asyncio.wait_for(asyncio.shield(wrapped), timeout)
        except asyncio.TimeoutError:
            engine = self.engine
            engine.resilience.note("timeout")
            if engine.faults is not None:
                engine.faults.record("timeout", timeout=f"{timeout:g}")
            wrapped.add_done_callback(_silence)
            future.add_done_callback(_discard_result)
            if not future.done():
                state.straggler = future
            raise BackendTimeoutError(
                f"request timed out after {timeout:g}s") from None

    # -- reply streaming ----------------------------------------------------------------

    async def _send(self, conn: _AioConnection, kind: MessageKind,
                    payload: bytes = b"") -> None:
        """Write one frame as header + payload views and drain.

        ``drain()`` returns immediately below the transport's high-water
        mark and blocks above it — per-connection backpressure without a
        copy or a syscall per frame.
        """
        if len(payload) > MAX_PAYLOAD:
            raise ProtocolError(
                f"payload of {len(payload)} bytes exceeds limit")
        writer = conn.writer
        writer.write(HEADER.pack(MAGIC, int(kind), len(payload)))
        if payload:
            writer.write(payload)
        size = writer.transport.get_write_buffer_size()
        if size > self.peak_write_buffer:
            self.peak_write_buffer = size
        await writer.drain()

    def _pull_chunk(self, pull, parent):
        # Activate the request's wire_encode span on this executor thread,
        # so the conversion's backend_fetch and result_convert spans nest
        # under it exactly as on the threaded path.
        with self._pull_lock:
            self.active_pulls += 1
        try:
            with trace_mod.activate(parent):
                return pull()
        finally:
            with self._pull_lock:
                self.active_pulls -= 1

    async def _send_result(self, conn: _AioConnection,
                           result: HQResult) -> None:
        """Ship one result, pumping chunks loop↔executor as they convert.

        Each chunk is one executor hop (the pull — decode, convert, encode
        all happen lazily inside ``next``) followed by an awaitable write;
        the drain between pulls is what turns a slow client into
        backpressure on the backend executor.
        """
        loop = asyncio.get_running_loop()
        with trace_mod.span("wire_encode") as span:
            conn.open_result = result
            try:
                if result.kind == "rows":
                    await self._send(conn, MessageKind.RESULT_META,
                                     encode_meta(result.metas))
                    sent = 0
                    chunks = result.iter_chunks()
                    pull = functools.partial(next, chunks, _DONE)
                    parent = trace_mod.current_span()
                    try:
                        while True:
                            future = self._executor.submit(
                                self._pull_chunk, pull, parent)
                            conn.pending_pull = future
                            chunk = await asyncio.wrap_future(future)
                            conn.pending_pull = None
                            if chunk is _DONE:
                                break
                            if chunk:
                                await self._send(conn,
                                                 MessageKind.RESULT_ROWS,
                                                 chunk)
                                sent += len(chunk)
                    except HyperQError as error:
                        # Mid-stream failure: some rows may already be on
                        # the wire; the FAILURE frame marks the result
                        # truncated.
                        await self._send(conn, MessageKind.FAILURE,
                                         str(error).encode("utf-8"))
                        if span is not None:
                            span.annotate("bytes", sent)
                            span.outcome = "truncated"
                        return
                    await self._send(conn, MessageKind.SUCCESS,
                                     struct.pack(">Q", result.rowcount))
                    if span is not None:
                        span.annotate("bytes", sent)
                        span.annotate("rows", result.rowcount)
                elif result.kind == "count":
                    await self._send(conn, MessageKind.RESULT_COUNT,
                                     struct.pack(">Q", result.rowcount))
                    await self._send(conn, MessageKind.SUCCESS,
                                     struct.pack(">Q", result.rowcount))
                    if span is not None:
                        span.annotate("rows", result.rowcount)
                else:
                    await self._send(conn, MessageKind.SUCCESS,
                                     struct.pack(">Q", 0))
            finally:
                conn.open_result = None
                pending, conn.pending_pull = conn.pending_pull, None
                if pending is not None and not pending.done():
                    # Disconnect/cancellation mid-pull: the result must not
                    # close under the executor thread still inside `next` —
                    # chain the close behind the pull, off-loop.
                    try:
                        self._executor.submit(_finish_connection, pending,
                                              result, None, None)
                    except RuntimeError:
                        _finish_connection(pending, result, None, None)
                else:
                    try:
                        result.close()
                    except Exception:  # noqa: BLE001
                        pass


class AioServerThread:
    """Runs an :class:`AioHyperQServer`; drop-in for :class:`ServerThread`.

    Usage::

        with AioServerThread(engine) as address:
            client = TdClient(*address)
    """

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64):
        self.server = AioHyperQServer(engine, host, port,
                                      request_timeout=request_timeout,
                                      max_connections=max_connections)

    def start(self) -> tuple[str, int]:
        return self.server.start()

    def stop(self) -> None:
        self.server.server_close()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
