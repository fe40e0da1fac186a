"""Standalone service runner: ``python -m repro.service``.

Starts a :class:`~repro.service.server.ServiceServer` on the given
(or a fresh) socket path, prints a one-line JSON readiness record to
stdout (``{"socket": ...}``) so harnesses can wait for it, then blocks
until SIGTERM/SIGINT triggers a graceful drain.  The drain summary
(final counters, breaker states, merged diagnostics) is printed as a
JSON object on exit — the CI smoke leg asserts on it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a standalone compile/simulate service.",
    )
    parser.add_argument("--socket", default=None,
                        help="Unix socket path (default: fresh tempdir)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: "
                             "REPRO_WORKERS or min(4, cpus))")
    parser.add_argument("--queue-max", type=int, default=None,
                        help="admission queue bound (default: "
                             "REPRO_SERVICE_QUEUE_MAX)")
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="default request deadline (default: "
                             "REPRO_SERVICE_TIMEOUT_S)")
    args = parser.parse_args(argv)

    from .server import ServiceServer

    server = ServiceServer(socket_path=args.socket, workers=args.workers,
                           queue_max=args.queue_max,
                           timeout_s=args.timeout_s).start()
    print(json.dumps({"socket": server.address,
                      "workers": server.workers}), flush=True)

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()

    summary = server.drain()
    from ..execution import diagnostics

    summary["diagnostics"] = diagnostics()
    print(json.dumps(summary, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
