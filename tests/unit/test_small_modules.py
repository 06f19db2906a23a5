"""Unit tests for the smaller supporting modules: ODBC server, protocol
framing, macro expansion, bench reporting, error hierarchy."""

import pytest

from repro import errors
from repro.backend import Database
from repro.bench.reporting import format_table, percent
from repro.core.engine import HyperQ
from repro.core.emulation import macros
from repro.odbc.api import OdbcServer
from repro.odbc.drivers import InProcessDriver
from repro.protocol import messages
from repro.xtra import relational as r
from repro.xtra import scalars as s
from repro.xtra import types as t


class TestOdbcServer:
    @pytest.fixture
    def server(self):
        database = Database()
        return OdbcServer(InProcessDriver(database), batch_rows=3)

    def test_lazy_connection(self, server):
        assert server._connection is None
        server.execute("CREATE TABLE T (A INTEGER)")
        assert server._connection is not None

    def test_tdf_batches_respect_batch_size(self, server):
        server.execute("CREATE TABLE T (A INTEGER)")
        server.execute("INSERT INTO T VALUES (1), (2), (3), (4), (5), (6), (7)")
        result = server.execute("SELECT A FROM T")
        packets = list(result.tdf_batches())
        assert len(packets) == 3  # 3 + 3 + 1 rows

    def test_non_row_results_yield_no_batches(self, server):
        result = server.execute("CREATE TABLE U (A INTEGER)")
        assert list(result.tdf_batches()) == []
        assert result.kind == "ok"

    def test_raw_rows_for_emulators(self, server):
        server.execute("CREATE TABLE T (A INTEGER)")
        server.execute("INSERT INTO T VALUES (9)")
        assert server.execute("SELECT A FROM T").raw_rows() == [(9,)]

    def test_execute_script(self, server):
        results = server.execute_script([
            "CREATE TABLE T (A INTEGER)",
            "INSERT INTO T VALUES (1)",
            "SELECT A FROM T",
        ])
        assert [result.kind for result in results] == ["ok", "count", "rows"]

    def test_close_and_reconnect(self, server):
        server.execute("CREATE TEMPORARY TABLE TT (A INTEGER)")
        server.close()
        # A new connection is a new backend session: temp table is gone.
        with pytest.raises(errors.HyperQError):
            server.execute("SELECT * FROM TT")


class TestProtocolFraming:
    def test_encode_prepends_header(self):
        packet = messages.encode_message(messages.MessageKind.RUN_QUERY, b"SEL 1")
        assert packet[:2] == messages.MAGIC
        assert len(packet) == messages.HEADER.size + 5

    def test_roundtrip_via_fake_socket(self):
        packet = messages.encode_message(messages.MessageKind.SUCCESS, b"\x00" * 8)

        class FakeSock:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        kind, payload = messages.read_message(FakeSock(packet))
        assert kind is messages.MessageKind.SUCCESS
        assert payload == b"\x00" * 8

    def test_truncated_stream_raises(self):
        class Dead:
            def recv(self, n):
                return b""

        with pytest.raises(errors.ProtocolError):
            messages.read_message(Dead())

    def test_unknown_kind_rejected(self):
        header = messages.HEADER.pack(messages.MAGIC, 200, 0)

        class FakeSock:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        with pytest.raises(errors.ProtocolError):
            messages.read_message(FakeSock(header))

    def test_buffered_reader_serves_a_burst_of_frames_in_one_recv(self):
        from repro.protocol.client import _BufferedReader

        kinds = [messages.MessageKind.RESULT_META,
                 messages.MessageKind.RESULT_ROWS,
                 messages.MessageKind.SUCCESS]
        payloads = [b"meta", b"r" * 100_000, b"\x00" * 8]
        burst = b"".join(messages.encode_message(kind, payload)
                         for kind, payload in zip(kinds, payloads))

        class CountingSock:
            """Hands out the burst in uneven pieces, then EOF."""

            def __init__(self, data):
                self.data = data
                self.calls = 0

            def recv(self, n):
                self.calls += 1
                chunk, self.data = self.data[:min(n, 70_000)], \
                    self.data[min(n, 70_000):]
                return chunk

        sock = CountingSock(burst)
        reader = _BufferedReader(sock)
        for kind, payload in zip(kinds, payloads):
            assert messages.read_message(reader) == (kind, payload)
        # Six header/payload reads over a 100 KB burst: two recv calls,
        # where an unbuffered reader makes one per read at least.
        assert sock.calls == 2
        with pytest.raises(errors.ProtocolError):
            messages.read_message(reader)


class TestMacroExpansion:
    @pytest.fixture
    def session(self):
        engine = HyperQ()
        session = engine.create_session()
        session.execute("CREATE TABLE T (A INTEGER)")
        return session

    def expand(self, session, name, arguments=(), named=None):
        statement = r.ExecMacro(name, list(arguments), dict(named or {}))
        return macros.expand(session, statement)

    def test_positional_substitution(self, session):
        session.execute("CREATE MACRO M (P1 INTEGER) AS "
                        "(SEL A FROM T WHERE A = :P1;)")
        sql = self.expand(session, "M", [s.const_int(7)])
        assert "= 7" in sql
        assert ":P1" not in sql

    def test_string_arguments_quoted(self, session):
        session.execute("CREATE MACRO M2 (P VARCHAR(5)) AS "
                        "(SEL A FROM T WHERE A = :P;)")
        sql = self.expand(session, "M2", [s.const_str("x'y")])
        assert "'x''y'" in sql

    def test_negative_literal_argument(self, session):
        session.execute("CREATE MACRO M3 (P INTEGER) AS "
                        "(SEL A FROM T WHERE A = :P;)")
        negative = s.Negate(s.const_int(5), type=t.INTEGER)
        sql = self.expand(session, "M3", [negative])
        assert "-5" in sql

    def test_too_many_arguments_rejected(self, session):
        session.execute("CREATE MACRO M4 AS (SEL A FROM T;)")
        with pytest.raises(errors.EmulationError):
            self.expand(session, "M4", [s.const_int(1)])

    def test_non_literal_argument_rejected(self, session):
        session.execute("CREATE MACRO M5 (P INTEGER) AS "
                        "(SEL A FROM T WHERE A = :P;)")
        with pytest.raises(errors.EmulationError):
            self.expand(session, "M5", [s.ColumnRef("A")])


class TestReporting:
    def test_percent(self):
        assert percent(0.336) == "33.6%"
        assert percent(0.005, 2) == "0.50%"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [("short", 1), ("a much longer name", 22)],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert len(set(len(line) for line in lines[1:])) <= 2  # aligned

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.HyperQError:
                assert issubclass(obj, errors.HyperQError), name

    def test_sql_errors_carry_position(self):
        error = errors.ParseError("bad", line=3, column=9)
        assert "line 3" in str(error)
        assert error.column == 9

    def test_sql_errors_without_position(self):
        assert str(errors.LexError("oops")) == "oops"
