"""The service-mix server process: a ServiceServer with forked workers.

Started by ``leg.py`` for each service-mix repetition.  It prints a
``ready`` record once the server listens and its workers are forked,
drains when a ``drain`` line arrives on stdin, and then prints a
``drained`` record with the drain time, the service threads and worker
processes still alive after the drain, and the diagnostics (worker
deltas included) of the server process.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from leg import emit, peak_rss_mb, snapshot  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--run-id", default="service")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service import ServiceServer
    from repro.soc._native import native_lib

    started = time.perf_counter()
    native_lib()
    native_build_s = time.perf_counter() - started
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    server = ServiceServer(socket_path=args.socket,
                           workers=args.workers).start()
    base = snapshot()
    emit("ready", {
        "native_build_s": native_build_s,
        "worker_pids": [p.pid for p in multiprocessing.active_children()],
    })

    sys.stdin.readline()
    started = time.perf_counter()
    server.drain()
    drain_s = time.perf_counter() - started
    leaked_threads = [t.name for t in threading.enumerate()
                      if t.name.startswith("service-") and t.is_alive()]
    leaked_processes = [p.pid for p in multiprocessing.active_children()]
    emit("drained", {
        "drain_s": drain_s,
        "leaked_threads": leaked_threads,
        "leaked_processes": leaked_processes,
        "diagnostics": snapshot(),
        "diagnostics_base": base,
        "worker": tracer.worker if tracer else {},
        "extra": tracer.extra if tracer else {},
        "peak_rss_mb": peak_rss_mb(),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
