"""The benchmark's server process: ``python -m repro serve`` with the
workload's warehouse loaded before it listens.

Usage: ``server.py WORKLOAD SEED [--trace-out PATH] [serve options...]``

The engine is built by ``serve`` itself, from its own defaults (wire path,
tracing, caches) plus the workload's options; this script only wraps the
engine constructor ``serve`` calls, to load the warehouse into the engine
before the listener starts. Run with unbuffered stdout: the parent reads
the ``ready-cpu`` line, then ``serve``'s listening line, from the pipe.
On SIGUSR1 it prints a ``cpu`` line with the CPU time used so far and
the peak resident memory (KiB) so far.
With ``--trace-out``, per-layer spans are recorded from the moment the
warehouse is loaded and written to PATH when the server stops.
"""

from __future__ import annotations

import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, os.path.dirname(HERE))
    import repro.__main__ as cli
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    name, seed, rest = argv[0], int(argv[1]), argv[2:]
    trace_out = None
    if rest[:1] == ["--trace-out"]:
        trace_out, rest = rest[1], rest[2:]
    workload = WORKLOADS[name](seed)
    tracer = Tracer() if trace_out else None
    build_engine = cli.HyperQ

    def print_cpu(label: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        print(f"{label} {usage.ru_utime + usage.ru_stime:.6f} "
              f"{usage.ru_maxrss}", flush=True)

    def loaded_engine(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        workload.load(engine)
        if tracer is not None:
            tracer.install()
        # SIGUSR1 asks for the CPU time and peak memory so far: the parent
        # reads them around each pass.
        signal.signal(signal.SIGUSR1, lambda signum, frame: print_cpu("cpu"))
        print_cpu("ready-cpu")
        return engine

    cli.HyperQ = loaded_engine
    code = cli.main(["serve", "--port", "0", *rest])
    if tracer is not None:
        tracer.write(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
