"""The Protocol Handler: a TCP server speaking the source wire protocol.

Section 4.1: intercepts the application's network message flow, extracts
credentials and request payloads, hands them to the Hyper-Q engine, and
packages responses back into the binary message format the application
expects. One engine session per connection, served by a *bounded* pool of
connection workers (``max_connections``) — the unbounded thread-per-
connection shape fell over exactly where the Section 7.3 stress test
lives, at hundreds of concurrent clients. Excess connections queue at
accept until a worker frees up.

When the engine carries a :class:`~repro.core.workload.WorkloadManager`,
every request additionally routes through it: classification, admission
control (sheds and queue deadlines become FAILURE replies on a live
connection), and deficit-round-robin scheduling onto the manager's bounded
executor pool.

Resilience duties of this layer:

* every session is closed when its connection ends, cleanly or not — an
  abrupt disconnect must not orphan the session's volatile-table overlay;
* with ``request_timeout`` set, a request that overruns its deadline gets a
  timely FAILURE reply instead of hanging the connection (the straggler
  finishes behind the scenes and is awaited before the session's next
  request, so the session is never driven concurrently);
* a request shed or queue-expired by the workload manager gets a clean
  FAILURE reply and the session survives for the next request;
* unexpected internal errors become FAILURE replies, not dropped
  connections;
* the engine's fault schedule is consulted per request (site ``"wire"``):
  :data:`~repro.core.faults.WIRE_DISCONNECT` cuts the connection with no
  reply — the deterministic stand-in for a client yanked mid-conversation —
  and :data:`~repro.core.faults.SLOW_RESULT` stalls the request inside the
  timed region.
"""

from __future__ import annotations

import os
import queue
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Optional

from repro.errors import (BackendTimeoutError, HyperQError, ProtocolError,
                          UnknownTenantError)
from repro.core import faults as flt
from repro.core import trace as trace_mod
from repro.core.engine import HQResult, HyperQ
from repro.protocol.encoding import encode_meta
from repro.protocol.messages import MessageKind, read_message, send_message


class RequestState:
    """Per-connection request bookkeeping shared by both wire paths.

    Holds the straggler (a timed-out request still running on a pool
    thread, which must land before the session's next request) and the
    workload class of the request in flight (for trace finishing). The
    threaded handler owns one per connection; the asyncio server owns one
    per stream pair.
    """

    __slots__ = ("straggler", "wl_class")

    def __init__(self):
        self.straggler = None
        self.wl_class: Optional[str] = None


def await_straggler(state: RequestState) -> None:
    """Block until the connection's timed-out request (if any) lands."""
    straggler, state.straggler = state.straggler, None
    if straggler is None:
        return
    try:
        straggler.result()
    except Exception:  # noqa: BLE001 — its error already became a reply
        pass


def run_managed(server, state: RequestState, session, sql: str,
                delay: float) -> HQResult:
    """Route one request through the workload manager (blocking).

    Shared by both wire paths: the threaded handler calls it on the
    connection thread, the asyncio server calls it on an executor thread
    with the request's root span activated. Shed and queue-deadline
    rejections raise :class:`~repro.errors.WorkloadError` subclasses,
    which callers turn into FAILURE replies on a live connection. A
    request that overruns ``server.request_timeout`` while *running*
    becomes the connection's straggler in *state*: the client gets a
    FAILURE now, and the session's next request waits for the straggler
    to land first.
    """
    manager = server.engine.workload
    # The straggler must land before *anything* touches the session —
    # classification binds on the session's probe stack, so deciding
    # first would race the straggler's execute on shared state.
    await_straggler(state)
    with trace_mod.span("classify") as cspan:
        decision = manager.decide(session, sql)
        if cspan is not None:
            cspan.annotate("wl_class", decision.wl_class)
            cspan.annotate("reason", decision.reason)
    state.wl_class = decision.wl_class
    # The pool worker gets a fresh context; hand the active span across
    # explicitly (the manager records the queue wait under it).
    root = trace_mod.current_span()

    def work() -> HQResult:
        with trace_mod.activate(root):
            # Unconditional: None restores the engine default, clearing
            # a previous request's per-class override.
            session.apply_batch_budget(decision.budget)
            if delay > 0:
                time.sleep(delay)
            return session.execute(sql)

    ticket = manager.submit(session, sql, work, decision)
    timeout = server.request_timeout
    try:
        return manager.wait(ticket, timeout)
    except FutureTimeoutError:
        engine = server.engine
        engine.resilience.note("timeout")
        if engine.faults is not None:
            engine.faults.record("timeout", timeout=f"{timeout:g}")
        # A future cancelled by wait() (timed out while still queued)
        # never ran: there is nothing to discard and no straggler, and
        # registering the callback would fire it synchronously with a
        # CancelledError that no `except Exception` catches.
        if not ticket.future.cancelled():
            ticket.future.add_done_callback(_discard_result)
            if not ticket.future.done():
                state.straggler = ticket.future
        raise BackendTimeoutError(
            f"request timed out after {timeout:g}s") from None


class _ConnectionHandler(socketserver.BaseRequestHandler):
    server: "HyperQServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Straggler + workload-class bookkeeping, shared format with the
        #: asyncio wire path.
        self._state = RequestState()
        self.busy = False
        registered = False
        try:
            kind, payload = read_message(sock)
            if kind is not MessageKind.LOGON_REQUEST:
                raise ProtocolError("expected LOGON_REQUEST")
            # LOGON payload: ``user\0password`` with an optional third
            # ``\0tenant`` field (absent for legacy clients — they land on
            # the default tenant when tenancy is enabled).
            fields = payload.split(b"\0", 2)
            user = fields[0].decode("utf-8", "replace")
            tenant_field = (fields[2].decode("utf-8", "replace")
                            if len(fields) > 2 else "")
            engine = self.server.engine
            if engine.tenancy is not None:
                try:
                    tenant = engine.tenancy.resolve(tenant_field or None)
                except UnknownTenantError as error:
                    # Clean rejection at the door: the client sees a
                    # FAILURE envelope instead of a LOGON_RESPONSE.
                    send_message(sock, MessageKind.FAILURE,
                                 str(error).encode("utf-8"))
                    return
            session = self.server.engine.create_session()
            session.session_params["USER"] = user.upper() or "HYPERQ"
            if engine.tenancy is not None:
                session.session_params["TENANT"] = tenant
            session_id = self.server.next_session_id()
            send_message(sock, MessageKind.LOGON_RESPONSE,
                         struct.pack(">I", session_id))
            registered = self.server.register_handler(self)
            if registered:
                self._serve(sock, session)
        except (ProtocolError, ConnectionError, OSError):
            return
        finally:
            if registered:
                self.server.unregister_handler(self)
            # Sessions close on *every* exit path: a client that vanishes
            # mid-request must not leak its volatile-table overlay or its
            # converter resources. A running straggler is awaited first —
            # closing the session under it would yank its converter away.
            if session is not None:
                await_straggler(self._state)
                session.close()
            if self._executor is not None:
                self._executor.shutdown(wait=False)

    def _serve(self, sock: socket.socket, session) -> None:
        while True:
            kind, payload = read_message(sock)
            if kind is MessageKind.LOGOFF:
                return
            if kind is not MessageKind.RUN_QUERY:
                raise ProtocolError(f"unexpected message {kind.name}")
            # Mark the connection busy for the span of the request so a
            # drain never cuts a query that is already being served; the
            # reply below lands before the draining check closes the loop.
            self.busy = True
            try:
                alive = self._handle_request(sock, session, payload)
            finally:
                self.busy = False
            if not alive or self.server.draining:
                return

    def _handle_request(self, sock: socket.socket, session,
                        payload: bytes) -> bool:
        """Serve one RUN_QUERY message under a request-scoped trace.

        The trace roots here — on the connection thread — so every layer
        below (engine, workload pool via explicit hand-off, converter,
        wire encode) nests under one span tree per wire request. Returns
        False when the connection must drop (injected disconnect).
        """
        engine = self.server.engine
        hub = engine.tracing
        trace = hub.start_trace("request")
        self._state.wl_class = None
        with trace_mod.activate(trace.root):
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
                    # Abrupt: no FAILURE envelope, no LOGOFF — the client
                    # sees the connection die as with a real network cut.
                    return False
                if engine.faults is not None \
                        and engine.worker_index is not None:
                    gw_fault = engine.faults.draw(
                        "gateway", op=sql, replica=engine.worker_index)
                    if gw_fault is not None \
                            and gw_fault.kind == flt.WORKER_CRASH:
                        # Abrupt worker death: no reply, no cleanup — the
                        # gateway supervisor must detect and restart us.
                        os._exit(86)
                delay = fault.delay if fault is not None \
                    and fault.kind == flt.SLOW_RESULT else 0.0
                try:
                    result = self._run_request(session, sql, delay)
                except HyperQError as error:  # timeouts, sheds, queue expiry
                    outcome = f"error:{type(error).__name__}"
                    send_message(sock, MessageKind.FAILURE,
                                 str(error).encode("utf-8"))
                    return True
                except Exception as error:  # noqa: BLE001 — reply, don't drop
                    outcome = f"error:{type(error).__name__}"
                    send_message(
                        sock, MessageKind.FAILURE,
                        f"internal error: {error}".encode("utf-8"))
                    return True
                self._send_result(sock, result)
                return True
            except BaseException as error:  # connection died mid-reply
                outcome = f"error:{type(error).__name__}"
                raise
            finally:
                hub.finish_trace(trace, outcome,
                                 wl_class=self._state.wl_class)

    def _run_request(self, session, sql: str, delay: float) -> HQResult:
        manager = self.server.engine.workload
        if manager is None:
            return self._run_direct(session, sql, delay)
        return run_managed(self.server, self._state, session, sql, delay)

    def _run_direct(self, session, sql: str, delay: float) -> HQResult:
        """Execute one request without a workload manager, enforcing the
        server's per-request deadline.

        The request runs on this connection's single worker thread; on
        deadline overrun the client gets a FAILURE now and the straggler's
        result is discarded (and closed) when it eventually lands. Because
        the worker pool has exactly one thread, a straggler and the next
        request can never touch the session concurrently.
        """
        root = trace_mod.current_span()

        def work() -> HQResult:
            with trace_mod.activate(root):
                if delay > 0:
                    time.sleep(delay)
                return session.execute(sql)

        timeout = self.server.request_timeout
        if timeout is None:
            return work()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="hyperq-request")
        future = self._executor.submit(work)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            engine = self.server.engine
            engine.resilience.note("timeout")
            if engine.faults is not None:
                engine.faults.record("timeout", timeout=f"{timeout:g}")
            future.add_done_callback(_discard_result)
            raise BackendTimeoutError(
                f"request timed out after {timeout:g}s") from None

    def _send_result(self, sock: socket.socket, result: HQResult) -> None:
        """Ship one result, streaming row chunks as they convert.

        Chunks go onto the wire as the converter produces them, so a slow
        client exerts backpressure all the way into the backend executor
        (``sendall`` blocks, the chunk generator stops pulling). The final
        SUCCESS frame carries the row total accumulated by the stream.
        """
        with trace_mod.span("wire_encode") as span:
            try:
                if result.kind == "rows":
                    send_message(sock, MessageKind.RESULT_META,
                                 encode_meta(result.metas))
                    sent = 0
                    try:
                        for chunk in result.iter_chunks():
                            if chunk:
                                send_message(sock, MessageKind.RESULT_ROWS,
                                             chunk)
                                sent += len(chunk)
                    except HyperQError as error:
                        # Mid-stream failure: some rows may already be on
                        # the wire; the FAILURE frame marks the result
                        # truncated.
                        send_message(sock, MessageKind.FAILURE,
                                     str(error).encode("utf-8"))
                        if span is not None:
                            span.annotate("bytes", sent)
                            span.outcome = "truncated"
                        return
                    send_message(sock, MessageKind.SUCCESS,
                                 struct.pack(">Q", result.rowcount))
                    if span is not None:
                        span.annotate("bytes", sent)
                        span.annotate("rows", result.rowcount)
                elif result.kind == "count":
                    send_message(sock, MessageKind.RESULT_COUNT,
                                 struct.pack(">Q", result.rowcount))
                    send_message(sock, MessageKind.SUCCESS,
                                 struct.pack(">Q", result.rowcount))
                    if span is not None:
                        span.annotate("rows", result.rowcount)
                else:
                    send_message(sock, MessageKind.SUCCESS,
                                 struct.pack(">Q", 0))
            finally:
                # Release converted buffers as soon as the last frame ships
                # (or the attempt aborts) — nothing row-sized survives per
                # session.
                result.close()


def _discard_result(future) -> None:
    """Release whatever a timed-out straggler eventually produced."""
    if future.cancelled():
        return  # never ran; result() would raise CancelledError (a
                # BaseException) straight through the pool worker
    try:
        result = future.result()
    except BaseException:  # noqa: BLE001 — its error already became a reply
        return
    if result is not None:
        result.close()


class _ConnectionPool:
    """A lazy, bounded pool of daemon worker threads for connections.

    Deliberately not :class:`~concurrent.futures.ThreadPoolExecutor`: its
    workers are non-daemon and joined at interpreter exit, so one stuck
    client connection would hang shutdown — the property the old
    ``daemon_threads = True`` server relied on. Threads spawn on demand up
    to ``max_workers`` and block on the task queue when idle; beyond the
    cap, accepted connections queue until a worker frees up.
    """

    def __init__(self, max_workers: int, name_prefix: str = "hyperq-conn"):
        if max_workers < 1:
            raise ValueError("connection pool needs at least one worker")
        self._max = max_workers
        self._prefix = name_prefix
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._idle = 0
        self._pending = 0
        self._closed = False

    def submit(self, fn, *args) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("connection pool is closed")
            # Spawn on outstanding demand, not a raw idle count: a worker
            # marks itself idle *before* consuming an earlier queued task,
            # so "an idle worker exists" does not mean one is coming for
            # this task — during an accept burst that under-spawns and
            # strands the connection behind long-lived ones.
            self._pending += 1
            if self._pending > self._idle and len(self._threads) < self._max:
                thread = threading.Thread(
                    target=self._worker,
                    name=f"{self._prefix}-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
        self._tasks.put((fn, args))

    def _worker(self) -> None:
        while True:
            with self._lock:
                self._idle += 1
            task = self._tasks.get()
            with self._lock:
                self._idle -= 1
                if task is not None:  # poison pills are not pending tasks
                    self._pending -= 1
            if task is None:
                return
            fn, args = task
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — handler errors die with the
                pass           # connection, never with the worker

    def close(self, on_cancel=None, join_timeout: float = 2.0) -> None:
        """Drain and join the pool.

        Queued-but-unstarted tasks are cancelled (handed to *on_cancel* so
        the server can close their accepted sockets instead of leaking
        them), every worker is woken with a poison pill, and workers are
        joined up to *join_timeout* seconds total. A worker still serving a
        stuck connection past the deadline is abandoned — threads are
        daemonic, so they never block interpreter exit — but the normal
        stop path sees every worker land before the listening socket
        closes.
        """
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        # Cancel queued tasks first so no worker picks up a new connection
        # between the drain and the pills.
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is None:
                continue
            with self._lock:
                self._pending -= 1
            if on_cancel is not None:
                try:
                    on_cancel(task[1])
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass
        for __ in range(len(threads)):
            self._tasks.put(None)
        deadline = time.monotonic() + join_timeout
        for thread in threads:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)


class HyperQServer(socketserver.TCPServer):
    """TCP server wrapping one Hyper-Q engine.

    Sessions created here share the engine's translation cache, so a hot
    statement warmed by one connection is a cache hit for every other —
    which is why ADV overhead *shrinks* under concurrency (Figure 9b).

    ``max_connections`` bounds concurrently-served connections: accepted
    sockets beyond the cap wait in the pool's task queue, and
    ``request_queue_size`` bounds the kernel listen backlog behind that, so
    connection storms queue instead of spawning unbounded threads.
    ``request_timeout`` (seconds, None = unlimited) is the per-request
    deadline after which the client receives a FAILURE reply.
    """

    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64, bind: bool = True):
        self.engine = engine
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self._pool = _ConnectionPool(max_connections)
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        #: Graceful-drain state: once set, idle connections are closed,
        #: busy ones finish their current request then close, and no new
        #: handler may register.
        self.draining = False
        self._handlers: set = set()
        self._handlers_lock = threading.Lock()
        # bind=False leaves the listening socket unbound: gateway workers
        # never accept themselves — they serve sockets handed off by the
        # acceptor process via process_request().
        super().__init__((host, port), _ConnectionHandler,
                         bind_and_activate=bind)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def next_session_id(self) -> int:
        with self._counter_lock:
            self._session_counter += 1
            return self._session_counter

    # -- graceful drain ---------------------------------------------------------------

    def register_handler(self, handler) -> bool:
        """Track a live connection; refused (False) once draining started,
        so a connection that raced the drain closes instead of serving."""
        with self._handlers_lock:
            if self.draining:
                return False
            self._handlers.add(handler)
            return True

    def unregister_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def begin_drain(self) -> None:
        """Start a graceful drain: no new requests are served, connections
        idle between requests are closed now, and a connection mid-request
        finishes that request (the client gets its full reply) before its
        serve loop exits. Callers stop the accept loop separately and poll
        :meth:`drained` (or just join the serving thread) afterwards."""
        with self._handlers_lock:
            self.draining = True
            handlers = list(self._handlers)
        for handler in handlers:
            if not handler.busy:
                # Shut only the read half: the handler's read_message()
                # unblocks with EOF, while a request that raced the drain
                # (read completed, `busy` not yet set) can still ship its
                # reply on the intact write half before the loop exits.
                try:
                    handler.request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass

    def drained(self) -> bool:
        with self._handlers_lock:
            return not self._handlers

    # -- bounded accept-side concurrency ---------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Serve the connection on the bounded worker pool (replacing
        ThreadingMixIn's unbounded thread-per-connection)."""
        self._pool.submit(self._process_request_pooled, request,
                          client_address)

    def _process_request_pooled(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 — mirror BaseServer's handling
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # Connection-level failures are expected under fault injection and
        # client storms; never spam stderr with tracebacks for them.
        pass

    def server_close(self) -> None:
        # Drain and join the connection pool *before* the listening socket
        # closes: queued accepted sockets are shut down instead of leaked,
        # and no worker thread outlives the server (repeated start/stop in
        # tests must not accumulate threads or ResourceWarnings).
        self._pool.close(on_cancel=self._cancel_queued_connection)
        super().server_close()

    def _cancel_queued_connection(self, args) -> None:
        """Close an accepted socket whose task never reached a worker."""
        request = args[0]
        self.shutdown_request(request)


class ServerThread:
    """Runs a :class:`HyperQServer` on a background thread.

    Usage::

        with ServerThread(engine) as address:
            client = TdClient(*address)

    Setting ``HQ_WIRE=async`` in the environment swaps in the asyncio wire
    path (:class:`repro.protocol.aio_server.AioServerThread`) — the hook CI's
    wire-matrix job uses to run the whole integration/resilience battery
    against both servers without touching any test.
    """

    def __new__(cls, *args, **kwargs):
        if cls is ServerThread \
                and os.environ.get("HQ_WIRE", "").lower() == "async":
            from repro.protocol.aio_server import AioServerThread

            # Returning a non-subclass instance skips cls.__init__; the
            # async thread wrapper exposes the same start/stop/server API.
            return AioServerThread(*args, **kwargs)
        return super().__new__(cls)

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64):
        self.server = HyperQServer(engine, host, port,
                                   request_timeout=request_timeout,
                                   max_connections=max_connections)
        self._thread: Optional[threading.Thread] = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="hyperq-server", daemon=True)
        self._thread.start()
        return self.server.address

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
