"""A bteq-like client library speaking the source wire protocol.

Stands in for the unchanged application + vendor connector of Figure 1: it
submits source-dialect SQL over the binary protocol and decodes the binary
result records, oblivious to the fact that a completely different database
executed the query.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import BackendError, ProtocolError
from repro.protocol.encoding import ColumnMeta, decode_meta, decode_rows
from repro.protocol.messages import MessageKind, read_message, send_message


@dataclass
class ClientResult:
    """Decoded outcome of one request."""

    kind: str  # "rows" | "count" | "ok"
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0


class _BufferedReader:
    """The client's read side of the socket, buffered.

    A response is several small frames (META, ROWS, SUCCESS), each read
    as a header then a payload. Reading whatever has arrived in one
    ``recv`` and serving the frame reads from that buffer makes one
    syscall per burst instead of two per frame; every syscall gives up
    the GIL, which a busy process may take milliseconds to hand back.
    """

    _CHUNK = 65536

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""
        self._pos = 0

    def recv(self, count: int) -> bytes:
        """Up to *count* bytes; ``b""`` once the peer has closed."""
        if self._pos >= len(self._buffer):
            self._buffer = self._sock.recv(max(count, self._CHUNK))
            self._pos = 0
        start = self._pos
        self._pos = min(start + count, len(self._buffer))
        return self._buffer[start:self._pos]


class RowStream:
    """Incremental view of one in-flight response.

    Iterating yields rows frame by frame as RESULT_ROWS messages land;
    :attr:`metas` fills once the RESULT_META frame arrives and
    :attr:`final` holds the terminal :class:`ClientResult` (without rows)
    after exhaustion. An optional :attr:`on_rows` callback fires per frame
    — test instrumentation hooks timestamps through it.
    """

    def __init__(self, reader: _BufferedReader):
        self._reader = reader
        self.metas: list[ColumnMeta] = []
        self.final: Optional[ClientResult] = None
        self.on_rows = None  # callable(frame_rows: list[tuple]) or None

    @property
    def columns(self) -> list[str]:
        return [meta.name for meta in self.metas]

    def __iter__(self):
        count = 0
        saw_count = False
        while True:
            kind, payload = read_message(self._reader)
            if kind is MessageKind.RESULT_META:
                self.metas = decode_meta(payload)
            elif kind is MessageKind.RESULT_ROWS:
                frame = decode_rows(self.metas, payload)
                if self.on_rows is not None:
                    self.on_rows(frame)
                yield from frame
            elif kind is MessageKind.RESULT_COUNT:
                (count,) = struct.unpack(">Q", payload)
                saw_count = True
            elif kind is MessageKind.SUCCESS:
                (total,) = struct.unpack(">Q", payload)
                if self.metas:
                    self.final = ClientResult("rows", self.columns,
                                              rowcount=total)
                elif saw_count:
                    self.final = ClientResult("count", rowcount=count)
                else:
                    self.final = ClientResult("ok")
                return
            elif kind is MessageKind.FAILURE:
                raise BackendError(payload.decode("utf-8", "replace"))
            else:
                raise ProtocolError(f"unexpected message {kind.name}")


class TdClient:
    """A minimal interactive client (the reproduction's ``bteq``)."""

    def __init__(self, host: str, port: int, user: str = "dbc",
                 password: str = "dbc", timeout: float = 60.0,
                 sock: Optional[socket.socket] = None,
                 tenant: Optional[str] = None):
        # A caller-provided socket lets tests pick the client's source
        # port before connecting — the gateway routes on the client
        # address, so this pins a session to a chosen worker.
        if sock is None:
            sock = socket.create_connection((host, port), timeout=timeout)
        else:
            sock.settimeout(timeout)
            try:
                sock.getpeername()
            except OSError:  # bound but not yet connected
                sock.connect((host, port))
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = _BufferedReader(sock)
        self.session_id: Optional[int] = None
        self._logon(user, password, tenant)

    def _logon(self, user: str, password: str,
               tenant: Optional[str]) -> None:
        payload = user.encode("utf-8") + b"\0" + password.encode("utf-8")
        if tenant is not None:
            # Optional third LOGON field; servers without tenancy treat
            # everything after the first NUL as the password, which the
            # reproduction's server never checks.
            payload += b"\0" + tenant.encode("utf-8")
        send_message(self._sock, MessageKind.LOGON_REQUEST, payload)
        kind, response = read_message(self._reader)
        if kind is MessageKind.FAILURE:
            self._sock.close()
            raise BackendError(response.decode("utf-8", "replace"))
        if kind is not MessageKind.LOGON_RESPONSE:
            raise ProtocolError(f"logon failed: got {kind.name}")
        (self.session_id,) = struct.unpack(">I", response)

    def execute(self, sql: str) -> ClientResult:
        """Submit one request and collect the full response."""
        stream = self.execute_stream(sql)
        rows = list(stream)
        final = stream.final
        if final.kind == "rows":
            final.rows = rows
        return final

    def execute_stream(self, sql: str) -> "RowStream":
        """Submit one request and iterate rows as frames arrive.

        The returned :class:`RowStream` yields decoded rows while the server
        is still producing — before the final response frame. It must be
        drained (or the connection closed) before the next request; partial
        iteration leaves response frames on the socket.
        """
        send_message(self._sock, MessageKind.RUN_QUERY, sql.encode("utf-8"))
        return RowStream(self._reader)

    # -- observability admin commands ------------------------------------------------

    def show_metrics(self) -> str:
        """The server's metrics dump (``SHOW HYPERQ METRICS``)."""
        result = self.execute("SHOW HYPERQ METRICS")
        return "\n".join(row[0] for row in result.rows)

    def show_trace(self, trace_id: int) -> str:
        """One request's rendered span tree (``SHOW HYPERQ TRACE <id>``)."""
        result = self.execute(f"SHOW HYPERQ TRACE {trace_id}")
        return "\n".join(row[0] for row in result.rows)

    def show_traces(self) -> str:
        """The ring buffer's trace index (``SHOW HYPERQ TRACES``)."""
        result = self.execute("SHOW HYPERQ TRACES")
        return "\n".join(row[0] for row in result.rows)

    def show_tenants(self) -> str:
        """The per-tenant control-plane report (``SHOW HYPERQ TENANTS``),
        aggregated across the whole worker fleet when served by a gateway."""
        result = self.execute("SHOW HYPERQ TENANTS")
        return "\n".join(row[0] for row in result.rows)

    def show_slow_queries(self) -> str:
        """The slow-query log records (``SHOW HYPERQ SLOW QUERIES``)."""
        result = self.execute("SHOW HYPERQ SLOW QUERIES")
        return "\n".join(row[0] for row in result.rows)

    def close(self) -> None:
        try:
            send_message(self._sock, MessageKind.LOGOFF)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "TdClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
