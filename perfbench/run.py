"""Wire-level benchmark of the Hyper-Q reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The server is ``python -m repro serve``
(see ``server.py``) in a child process; this process is the only load
generator and drives at most two connections over the real wire protocol,
one request at a time. Every reply is checked against an expected answer
computed off the clock (``workloads.py``). The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric with its unit, sample count and
value on the host's own clock, and the run's context.

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``
``end_to_end``), with times scaled by a host-speed kernel timed between
passes (see ``end_to_end``). ``--trace 1`` runs the workload twice for half the time
each, on the same request prefix: untraced, then with per-layer spans
recorded in the server (``tracer.py``), and reports the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Server spawns per run; setup_s is their median, scaled like the other
#: times.
SETUP_SPAWNS = 5
#: Size of the host-speed kernel, runs of it before each pass, and its
#: time on the host the reported times are scaled to (see ``end_to_end``).
KERNEL_SIZE = 8_000
KERNEL_REPEATS = 3
KERNEL_REFERENCE_S = 0.010
#: server_peak_rss_mb is the peak after this many rounds, or at the end of
#: a shorter run.
RSS_ROUNDS = 16
#: Longest a server may take to start listening, or to stop.
SERVER_START_TIMEOUT = 120.0
SERVER_STOP_TIMEOUT = 30.0
#: Printed with the others but left out of the result and BENCHMARK.json:
#: on app_replay a query template near a 1% share straddles the 99th
#: percentile, and the run-to-run spread exceeded any allowed bound.
UNBOUNDED = {"latency_p99_ms"}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# The server child
# ---------------------------------------------------------------------------

class Server:
    """One ``serve`` child process, from spawn to reaped."""

    def __init__(self, workload, tmp: str, trace_out: str | None = None):
        command = [sys.executable, "-u", os.path.join(HERE, "server.py"),
                   workload.name, str(workload.seed)]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += workload.serve_args
        self.options = workload.serve_args
        self.stderr_path = os.path.join(tmp, f"server-{time.time_ns()}.log")
        self._stderr = open(self.stderr_path, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, bufsize=0)
        self.rusage = None
        try:
            self._line("ready-cpu ")
            listening = self._line("Hyper-Q listening on ")
        except BaseException:
            self.stop()
            raise
        address = listening.split()[3]
        host, port = address.rsplit(":", 1)
        self.address = (host, int(port))
        self.wire = listening.split("wire=", 1)[1].split(",", 1)[0]

    def usage(self) -> tuple[float, float]:
        """The server's CPU time (user + system) and peak resident memory
        (MB) so far."""
        os.kill(self.proc.pid, signal.SIGUSR1)
        __, cpu, rss = self._line("cpu ", SERVER_STOP_TIMEOUT).split()
        return float(cpu), int(rss) / 1024.0

    def _line(self, prefix: str, timeout: float = SERVER_START_TIMEOUT) -> str:
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            ready, __, __ = select.select([self.proc.stdout], [], [],
                                          max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"server did not print {prefix!r} within "
                                   f"{timeout:g}s")
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError("server exited:\n" + self.stderr_tail())
            if line.startswith(prefix):
                return line.strip()

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-4000:].decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM (``serve`` drains and exits), then reap the child with
        its resource usage; SIGKILL if it does not stop in time."""
        if self.rusage is not None:
            return
        # Signal by pid: Popen.send_signal would reap an exited child and
        # lose its resource usage.
        os.kill(self.proc.pid, signal.SIGTERM)
        deadline = time.perf_counter() + SERVER_STOP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rusage = usage
        self.proc.stdout.close()
        self._stderr.close()

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

class Record:
    """One request as the client saw it; times are ``perf_counter``."""

    __slots__ = ("request", "start", "first_rows", "end", "answer",
                 "timed_pass")

    def __init__(self, request, start, first_rows, end, answer, timed_pass):
        self.request = request
        self.start = start
        self.first_rows = first_rows
        self.end = end
        self.answer = answer
        self.timed_pass = timed_pass


def send(client, sql: str):
    """Run one request; returns (answer, first RESULT_ROWS time)."""
    from perfbench.workloads import DIGEST_MASK, Answer
    from repro.errors import BackendError

    state = [None, 0, 0]

    def on_rows(frame):
        if state[0] is None:
            state[0] = time.perf_counter()
        state[1] += len(frame)
        state[2] += sum(map(hash, frame))

    stream = client.execute_stream(sql)
    stream.on_rows = on_rows
    try:
        collections.deque(stream, maxlen=0)
    except BackendError:
        return Answer("failed", 0, 0), state[0]
    final = stream.final
    if final.kind == "rows":
        if final.rowcount != state[1]:
            return Answer("rows-miscounted", state[1], 0), state[0]
        return Answer("rows", state[1], state[2] & DIGEST_MASK), state[0]
    if final.kind == "count":
        return Answer("count", final.rowcount, 0), state[0]
    return Answer("ok", 0, 0), state[0]


def connect(server: Server, index: int):
    from repro.protocol.client import TdClient

    host, port = server.address
    return TdClient(host, port, user=f"bench{index}", timeout=120.0)


def kernel_seconds() -> float:
    """The time of one run of a fixed pure-Python kernel: string
    formatting, dict inserts, keyed sorts, tuple hashing, a join and a
    split, the kind of interpreter work the server and this client spend
    their time on, once on a table too big for the CPU caches and then on
    tables small enough to stay in them, as the program's work is. It
    calls nothing of the program, so only the host's speed moves it."""
    start = time.perf_counter()
    table = {}
    for number in range(KERNEL_SIZE):
        key = f"k{number * 7919 % 15013}"
        table[key] = (number, key.upper(), number * 0.5)
    rows = sorted(table.values(), key=lambda row: row[1])
    sum(hash(row) & 0xFF for row in rows)
    ",".join(row[1] for row in rows).split(",")
    for __ in range(KERNEL_SIZE // 250):
        small = {f"c{number}": (number, f"C{number}") for number in range(250)}
        sorted(small.values(), key=lambda row: row[1])
    return time.perf_counter() - start


class Pass:
    """One pass: its span, the server CPU time used in it, the requests
    each connection had sent and the server's peak memory at its end, and
    the kernel times measured just before it, while the server was
    idle."""

    def __init__(self, start: float, kernel: list[float]):
        self.start = start
        self.end = start
        self.cpu = 0.0
        self.sent = 0
        self.rss = 0.0
        self.kernel = kernel


def drive(workload, server: Server, seconds: float, pass_seconds: float,
          limit: int | None = None):
    """Run the workload for about *seconds*, in back-to-back passes of about
    *pass_seconds* each, on the same connections and streams.

    One thread sends every request, taking the connections in turn, one
    request each, so the server works on one request at a time: with two
    CPUs shared by this process and the server, overlapping requests would
    time the scheduler, not the program. A pass ends at the first round
    boundary after its deadline. Replaying a known prefix, the run ends
    once each connection has sent *limit* requests, however long that
    takes. Returns the records of each connection, in send order, and the
    passes."""
    rounds = workload.round_length()
    clients = [connect(server, index) for index in range(workload.connections)]
    streams = [workload.stream(index) for index in range(len(clients))]
    records: list[list[Record]] = [[] for __ in clients]
    timed: list[Pass] = []
    sent = 0

    def run_round() -> None:
        for __ in range(rounds):
            for index, client in enumerate(clients):
                request = next(streams[index])
                start = time.perf_counter()
                answer, first_rows = send(client, request.sql)
                records[index].append(Record(
                    request, start, first_rows, time.perf_counter(), answer,
                    len(timed) - 1))

    # The load generator's own collector pauses would land in the measured
    # latencies; it allocates little, so it runs without one.
    gc.collect()
    gc.disable()
    try:
        end = time.perf_counter() + seconds
        while True:
            kernel = [kernel_seconds() for __ in range(KERNEL_REPEATS)]
            cpu = server.usage()[0]
            timed.append(Pass(time.perf_counter(), kernel))
            deadline = timed[-1].start + pass_seconds
            while True:
                run_round()
                sent += rounds
                if ((limit is not None and sent >= limit)
                        or time.perf_counter() >= deadline):
                    break
            timed[-1].end = time.perf_counter()
            timed[-1].sent = sent
            cpu_after, timed[-1].rss = server.usage()
            timed[-1].cpu = cpu_after - cpu
            if (sent >= limit if limit is not None
                    else time.perf_counter() >= end):
                break
    finally:
        gc.enable()
        for client in clients:
            client.close()
    return records, timed


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------

def check(workload, records: list[list[Record]]) -> tuple[int, int]:
    """Compare every reply with its expected answer, computed in process
    after the server stopped. Returns (mismatches, failed)."""
    engine = workload.oracle_engine()
    mismatches = failed = 0
    for index, connection in enumerate(records):
        expected = workload.expected(
            engine, index, [record.request for record in connection])
        for record, answer in zip(connection, expected, strict=True):
            if record.answer.kind == "failed":
                failed += 1
            if record.answer != answer:
                mismatches += 1
                if mismatches <= 5:
                    log(f"MISMATCH conn {index}: {record.request.sql[:160]!r}"
                        f" got {record.answer} expected {answer}")
    return mismatches, failed


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def timed_metrics(workload, records: list[Record], timed: list[Pass],
                  scale: float) -> dict:
    """The timed end-to-end metrics of the *timed* passes, whose requests
    are *records*, with every time multiplied by *scale*."""
    done = [record for record in records if record.answer.kind != "failed"]
    latency = [(record.end - record.start) * 1000 * scale for record in done]
    by_template: dict[str, list[float]] = collections.defaultdict(list)
    for record, value in zip(done, latency):
        by_template[record.request.template].append(value)
    medians = [statistics.median(values) for values in by_template.values()]
    first_rows = [(record.first_rows - record.start) * 1000 * scale
                  for record in done if record.first_rows is not None]
    seconds = sum(one.end - one.start for one in timed) * scale
    rows = sum(record.answer.count for record in done
               if record.answer.kind == "rows")
    within = sum(1 for value in latency if value <= workload.slo_ms)
    return {
        "latency_p50_ms": statistics.median(latency),
        "latency_p99_ms": nearest_rank(latency, 0.99),
        "throughput_qps": len(done) / seconds,
        "query_geomean_ms": math.exp(sum(map(math.log, medians))
                                     / len(medians)),
        "rows_per_s": rows / seconds,
        "first_row_p50_ms": statistics.median(first_rows),
        "slo_met_pct": 100.0 * within / len(records),
        "server_cpu_ms_per_req": sum(one.cpu for one in timed) * 1000
        * scale / len(done),
    }


UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
         "throughput_qps": "1/s", "query_geomean_ms": "ms",
         "rows_per_s": "1/s", "first_row_p50_ms": "ms", "slo_met_pct": "%",
         "server_cpu_ms_per_req": "ms", "server_peak_rss_mb": "MB"}


def host_scale(timed: list[Pass]) -> tuple[float, float]:
    """The median kernel time over *timed*, and the factor that scales a
    time measured then to the reference host."""
    kernel = statistics.median(sample for one in timed
                               for sample in one.kernel)
    return kernel, KERNEL_REFERENCE_S / kernel


def end_to_end(workload, records: list[Record], timed: list[Pass],
               setups: list[float], server: Server):
    """The end-to-end metrics as ``{name: (value, unit, samples,
    measured)}``: *value* is reported, *measured* is the same metric on
    the host's clock.

    The first pass warms the caches and is not timed. Every time is
    scaled to a host on which the kernel (:func:`kernel_seconds`) takes
    ``KERNEL_REFERENCE_S``: on a shared host the speed the program gets
    drifts by half or more over minutes, in its CPU time as much as in
    wall time, and a kernel timed between the passes drifts with it."""
    warm = 1 if len(timed) > 1 else 0
    kernel, scale = host_scale(timed)
    measured = [record for record in records if record.timed_pass >= warm]
    values = timed_metrics(workload, measured, timed[warm:], scale)
    host = timed_metrics(workload, measured, timed[warm:], 1.0)
    done = [record for record in measured if record.answer.kind != "failed"]
    samples = {"latency_p50_ms": len(done), "latency_p99_ms": len(done),
               "throughput_qps": len(done),
               "query_geomean_ms": len({record.request.template
                                        for record in done}),
               "rows_per_s": sum(record.answer.count for record in done
                                 if record.answer.kind == "rows"),
               "first_row_p50_ms": sum(1 for record in done
                                       if record.first_rows is not None),
               "slo_met_pct": len(measured),
               "server_cpu_ms_per_req": len(done)}
    setup = statistics.median(setups)
    metrics = {"setup_s": (setup * scale, "s", len(setups), setup)}
    for name, value in values.items():
        metrics[name] = (value, UNITS[name], samples[name], host[name])
    # The caches grow with every new query text, so peak memory is read
    # after a fixed number of rounds, not after a fixed time.
    rss = next((one.rss for one in timed
                if one.sent >= RSS_ROUNDS * workload.round_length()),
               server.peak_rss_mb)
    metrics["server_peak_rss_mb"] = (rss, "MB", 1, rss)
    context = {"passes": len(timed), "warm_up_passes": warm,
               "kernel_ms": round(kernel * 1000, 4),
               "kernel_samples": sum(len(one.kernel) for one in timed),
               "time_scale": round(scale, 4),
               "samples_above_p99": len(done) - math.ceil(0.99 * len(done)),
               "slo_ms": workload.slo_ms,
               "latency_max_ms": round(max(
                   record.end - record.start for record in done) * 1000, 3)}
    return metrics, context


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout, or one inside another repo
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measured_run(workload, seconds: float, tmp: str):
    setups = []
    server = None
    try:
        for spawn in range(SETUP_SPAWNS):
            server = Server(workload, tmp)
            probe = connect(server, 99)
            setups.append(time.perf_counter() - server.spawned)
            probe.close()
            if spawn < SETUP_SPAWNS - 1:
                server.stop()
        records, timed = drive(workload, server, seconds,
                               workload.pass_seconds)
    finally:
        if server is not None:
            server.stop()
    mismatches, failed = check(workload, records)
    flat = [record for connection in records for record in connection]
    metrics, context = end_to_end(workload, flat, timed, setups, server)
    return len(flat), mismatches, failed, metrics, context, server


def traced_run(workload, seconds: float, tmp: str):
    """Half the time untraced, then the same request prefix traced, on a
    fresh server each."""
    from perfbench import tracer

    spans_path = os.path.join(tmp, "spans.json")
    halves = []
    limit = None
    for traced in (False, True):
        server = Server(workload, tmp, spans_path if traced else None)
        try:
            records, timed = drive(workload, server, seconds / 2.0,
                                   workload.pass_seconds, limit)
        finally:
            server.stop()
        limit = len(records[0])
        halves.append((records, timed))
    mismatches = failed = 0
    for records, __ in halves:
        bad, lost = check(workload, records)
        mismatches += bad
        failed += lost
    # Request time of each half, scaled to the reference host like the
    # end-to-end metrics: the halves run at different moments.
    untraced, traced = (host_scale(timed)[1]
                        * sum(record.end - record.start
                              for connection in records
                              for record in connection)
                        for records, timed in halves)
    with open(spans_path, encoding="utf-8") as handle:
        written = json.load(handle)
    summary = tracer.summarize(written["spans"], written["counters"])
    metrics = {name: (value, unit, summary["requests"], None)
               for name, (value, unit) in summary["metrics"].items()}
    metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100, "%",
                                     limit * workload.connections, None)
    context = {"traced_requests": summary["requests"],
               "spans": summary["spans"],
               "spans_outside_requests": summary["orphan_spans"],
               "untraced_request_s": round(untraced, 4),
               "traced_request_s": round(traced, 4)}
    attempted = 2 * limit * workload.connections
    return attempted, mismatches, failed, metrics, context, server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no program sources under {SRC}; run from the root "
            "of a checkout")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tmp = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        run = traced_run if args.trace else measured_run
        attempted, mismatches, failed, metrics, context, server = run(
            workload, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    run_context = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "wire": server.wire,
        "serve_options": server.options or ["(serve defaults)"],
        "connections": workload.connections, "loop": "closed",
        **context}
    print("context " + json.dumps(run_context, sort_keys=True))
    for name, (value, unit, samples, host) in metrics.items():
        print(f"metric {name:<42} {value:>14.4f} {unit:<10} "
              f"samples={samples}"
              + ("" if host is None else f" host_clock={host:.4f}")
              + (" (unbounded, not in the result)" if name in UNBOUNDED
                 else ""))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, __, __) in metrics.items()
                    if name not in UNBOUNDED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
