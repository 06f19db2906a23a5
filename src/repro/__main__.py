"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``shell``  — interactive Teradata-dialect SQL shell against a fresh
  in-memory target (a single-user bteq).
* ``run``    — execute a ';'-separated SQL script file through the pipeline.
* ``serve``  — start the wire-protocol server so real client processes
  (``repro.TdClient``, `examples/replatform_tpch.py`) can connect.
* ``tpch``   — load TPC-H at a given scale and run the 22 queries, printing
  the Figure 9a overhead split.
"""

from __future__ import annotations

import argparse
import sys

from repro import HyperQ, ServerThread
from repro.errors import HyperQError


def _print_result(result) -> None:
    if result.kind == "rows":
        print("\t".join(result.columns))
        for row in result.rows:
            print("\t".join("NULL" if value is None else str(value)
                            for value in row))
        print(f"({result.rowcount} rows)")
    elif result.kind == "count":
        print(f"({result.rowcount} rows affected)")
    else:
        print("ok")


def cmd_shell(args: argparse.Namespace) -> int:
    engine = HyperQ(target=args.target, source=args.source)
    session = engine.create_session()
    print(f"repro shell — source={args.source}, target={args.target}; "
          "end statements with ';', exit with \\q")
    buffer: list[str] = []
    while True:
        try:
            prompt = "sql> " if not buffer else "...> "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        if line.strip() in ("\\q", "exit", "quit"):
            return 0
        buffer.append(line)
        if not line.rstrip().endswith(";"):
            continue
        text = "\n".join(buffer)
        buffer = []
        try:
            for result in session.execute_script(text):
                _print_result(result)
        except HyperQError as error:
            print(f"error: {error}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.trace import render_trace

    engine = HyperQ(target=args.target, source=args.source,
                    dml_batching=args.batch_dml)
    session = engine.create_session()
    with open(args.script, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        for result in session.execute_script(text):
            _print_result(result)
    except HyperQError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            hub = engine.tracing
            for trace_id in hub.trace_ids():
                trace = hub.get_trace(trace_id)
                if trace is not None:
                    print("\n".join(render_trace(trace)), file=sys.stderr)
    if args.metrics:
        print(engine.tracing.render_metrics(), file=sys.stderr)
    return 0


def _tenancy_config(args: argparse.Namespace):
    """The multi-tenant control-plane config from ``--tenants`` (inline
    JSON or ``@path``) or ``HQ_TENANCY_CONFIG``; None when unset."""
    from repro.core.tenancy import TenancyConfig

    if args.tenants:
        return TenancyConfig.parse(args.tenants)
    return TenancyConfig.from_env()


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    if args.workers > 1:
        return _serve_gateway(args)
    tenancy = _tenancy_config(args)
    registry = None
    if tenancy is not None:
        from repro.core.tenancy import TenantRegistry

        registry = TenantRegistry(tenancy)
    workload = None
    if args.workload or tenancy is not None \
            or os.environ.get("HQ_WORKLOAD_CONFIG"):
        from repro.core.workload import WorkloadConfig, WorkloadManager

        workload = WorkloadManager(WorkloadConfig.from_env(),
                                   tenancy=registry)
    engine = HyperQ(target=args.target, source=args.source, workload=workload,
                    tracing=not args.no_trace, trace_ring=args.trace_ring,
                    trace_log=args.trace_log,
                    slow_query_log=args.slow_query_log,
                    result_cache_bytes=args.result_cache_bytes,
                    tenancy=registry)
    if args.wire == "async":
        from repro.protocol.aio_server import AioServerThread

        thread = AioServerThread(engine, host=args.host, port=args.port,
                                 max_connections=args.max_connections)
    else:
        thread = ServerThread(engine, host=args.host, port=args.port,
                              max_connections=args.max_connections)
    host, port = thread.start()
    managed = "on" if workload is not None else "off"
    traced = "off" if args.no_trace else "on"
    tenanted = (f"{len(registry.tenant_names)} tenants"
                if registry is not None else "tenancy off")
    print(f"Hyper-Q listening on {host}:{port} "
          f"(wire={args.wire}, source={args.source}, target={args.target}, "
          f"workload management {managed}, tracing {traced}, {tenanted}) "
          "— Ctrl-C to stop, SIGTERM to drain")
    done = threading.Event()
    # SIGTERM drains: in-flight requests finish, idle connections close,
    # then the server stops — no reply is ever cut mid-stream.
    signal.signal(signal.SIGTERM, lambda signum, frame: done.set())
    try:
        done.wait()
        thread.server.begin_drain()
        deadline = args.drain_deadline
        import time as time_mod

        until = time_mod.monotonic() + deadline
        while not thread.server.drained() \
                and time_mod.monotonic() < until:
            time_mod.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        thread.stop()
    return 0


def _serve_gateway(args: argparse.Namespace) -> int:
    """``serve --workers N``: the multi-process sharded gateway — one
    acceptor process routing sessions to N engine workers, a shared
    translation-cache tier, and fleet-wide SHOW HYPERQ aggregation."""
    import os
    import signal
    import threading

    from repro.core.gateway import Gateway, GatewayConfig

    tenancy = _tenancy_config(args)
    workload = None
    if args.workload or tenancy is not None \
            or os.environ.get("HQ_WORKLOAD_CONFIG"):
        from repro.core.workload import WorkloadConfig

        workload = WorkloadConfig.from_env()
    setup_sql = ""
    if args.setup_script:
        with open(args.setup_script, "r", encoding="utf-8") as handle:
            setup_sql = handle.read()
    gateway = Gateway(GatewayConfig(
        workers=args.workers, host=args.host, port=args.port,
        target=args.target, source=args.source, setup_sql=setup_sql,
        max_connections=args.max_connections, workload=workload,
        tenancy=tenancy, tracing=not args.no_trace,
        result_cache_bytes=args.result_cache_bytes,
        engine_options={"trace_ring": args.trace_ring},
        wire=args.wire))
    host, port = gateway.start()
    managed = "on" if workload is not None else "off"
    traced = "off" if args.no_trace else "on"
    tenanted = (f"{len(tenancy.tenants)} tenants" if tenancy is not None
                else "tenancy off")
    print(f"Hyper-Q gateway listening on {host}:{port} "
          f"({args.workers} workers, wire={args.wire}, source={args.source}, "
          f"target={args.target}, workload management {managed}, "
          f"tracing {traced}, {tenanted}) — Ctrl-C to stop, "
          "SIGTERM to drain")
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: done.set())
    drained = False
    try:
        done.wait()
        # Graceful fleet drain: every worker finishes its in-flight
        # requests (deadline, then SIGKILL) before the supervisor exits.
        outcomes = gateway.drain(deadline=args.drain_deadline)
        drained = True
        print(f"gateway drained: {outcomes}")
    except KeyboardInterrupt:
        pass
    finally:
        if not drained:
            gateway.stop()
    return 0


def cmd_tpch(args: argparse.Namespace) -> int:
    from repro.bench.harness import prepare_tpch_engine, run_tpch_sequential
    from repro.bench.reporting import percent

    print(f"loading TPC-H at scale {args.scale} ...")
    engine = prepare_tpch_engine(scale=args.scale)
    log = run_tpch_sequential(engine)
    split = log.breakdown()
    print(f"22 queries in {log.total:.2f}s")
    print(f"  query translation     {percent(split['translation'], 2)}")
    print(f"  execution             {percent(split['execution'], 2)}")
    print(f"  result transformation {percent(split['result_conversion'], 2)}")
    print(f"  cache lookup + probe  {percent(split['cache_lookup'], 2)}")
    print(f"  total overhead        {percent(log.overhead_fraction, 2)} "
          "(paper: < 2%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Hyper-Q reproduction CLI")
    parser.add_argument("--target", default="hyperion",
                        help="target capability profile (default: hyperion)")
    parser.add_argument("--source", default="teradata",
                        choices=["teradata", "ansi"],
                        help="source dialect the frontend speaks")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("shell", help="interactive SQL shell")

    run_cmd = commands.add_parser("run", help="execute a SQL script file")
    run_cmd.add_argument("script")
    run_cmd.add_argument("--batch-dml", action="store_true",
                         help="merge contiguous single-row inserts")
    run_cmd.add_argument("--trace", action="store_true",
                         help="print each statement's span tree to stderr")
    run_cmd.add_argument("--metrics", action="store_true",
                         help="print the metrics dump to stderr at the end")

    serve_cmd = commands.add_parser("serve", help="start the wire server")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=10250)
    serve_cmd.add_argument("--max-connections", type=int, default=64,
                           help="bound on concurrently served connections "
                                "(fleet-wide with --workers)")
    serve_cmd.add_argument("--wire", choices=("threaded", "async"),
                           default="threaded",
                           help="wire path: one thread per connection, or "
                                "all sessions multiplexed on one asyncio "
                                "event loop per worker (default: threaded)")
    serve_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes; >1 starts the sharded "
                                "gateway (process-per-core engines behind "
                                "one acceptor, shared translation-cache "
                                "tier, fleet-wide SHOW HYPERQ METRICS)")
    serve_cmd.add_argument("--setup-script", default=None, metavar="PATH",
                           help="SQL script each gateway worker runs at "
                                "boot (DDL/data for its backend)")
    serve_cmd.add_argument("--workload", action="store_true",
                           help="enable the workload manager (classification"
                                ", admission control, fair scheduling); "
                                "configure via HQ_WORKLOAD_CONFIG")
    serve_cmd.add_argument("--tenants", default=None, metavar="CONFIG",
                           help="enable the multi-tenant control plane: "
                                "inline JSON or @path to a config file "
                                "({\"tenants\": {name: {weight, rate, "
                                "max_concurrency, ...}}}); implies the "
                                "workload manager; also read from "
                                "HQ_TENANCY_CONFIG")
    serve_cmd.add_argument("--drain-deadline", type=float, default=10.0,
                           metavar="SECONDS",
                           help="on SIGTERM, seconds each gateway worker "
                                "gets to finish in-flight requests before "
                                "SIGKILL (default: 10)")
    serve_cmd.add_argument("--result-cache-bytes", type=int, default=0,
                           metavar="N",
                           help="semantic result cache budget in bytes "
                                "(0 disables; hits replay stored result "
                                "batches with zero backend calls, "
                                "invalidated per table on DML)")
    serve_cmd.add_argument("--no-trace", action="store_true",
                           help="keep no traces: no ring buffer, trace log "
                                "or slow-query log (SHOW HYPERQ TRACES "
                                "returns empty; metrics still count)")
    serve_cmd.add_argument("--trace-ring", type=int, default=256,
                           help="finished traces kept in memory for "
                                "SHOW HYPERQ TRACE <id> (default: 256)")
    serve_cmd.add_argument("--trace-log", default=None, metavar="PATH",
                           help="append every finished trace to PATH as "
                                "JSONL (one trace per line)")
    serve_cmd.add_argument("--slow-query-log", default=None, metavar="PATH",
                           help="append requests exceeding their workload "
                                "class's latency threshold to PATH as JSONL")

    tpch_cmd = commands.add_parser("tpch", help="load + run TPC-H")
    tpch_cmd.add_argument("--scale", type=float, default=0.001)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"shell": cmd_shell, "run": cmd_run, "serve": cmd_serve,
                "tpch": cmd_tpch}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
