"""One supervised fork pool for the model jobs, the service and the sweep.

This module owns worker *lifecycle* and nothing else; every caller keeps
its own dispatch policy (the service's per-slot dispatcher threads and
deadline kills, the sweep's event loop with retries and backoff, the
model jobs' plain map).

* :class:`Worker` — one forked process and its duplex pipe.  The child
  runs a caller-supplied handler per job.  Every reply carries the
  diagnostics *delta* since the previous reply, which :meth:`Worker.recv`
  folds into this process's totals, so ``diagnostics()`` keeps counting
  work done in workers.  :meth:`Worker.close` is the shutdown handshake:
  the child answers ``bye`` with its final delta and exits.
* :func:`seams` — the breaker verdicts (store / native seam disabled)
  applied around one job, plus the seam-health evidence the breakers
  record.  The forked and the inline paths both run jobs through it.
* :func:`pool_size` — the single ``REPRO_WORKERS`` knob.
* :func:`can_fork` — the nesting rule: code already inside a pool
  worker never forks a nested pool and runs inline instead.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import Any, Callable, Dict, Optional

from . import counters
from .envutil import env_int

#: Worker count for every pool (default: min(4, cpu_count)).
WORKERS_ENV = "REPRO_WORKERS"

#: Set in forked children, so nested pools run inline.
_IN_WORKER = False

#: Seconds a worker gets to answer the close handshake, and to exit.
_JOIN_TIMEOUT_S = 5.0


def pool_size(requested: Optional[int] = None) -> int:
    """``requested`` when given, else REPRO_WORKERS, else min(4, cpus)."""
    if requested is not None:
        return requested
    default = max(1, min(4, os.cpu_count() or 1))
    return env_int(WORKERS_ENV, default, minimum=1)


def can_fork() -> bool:
    """True when this process may fork pool workers."""
    return not _IN_WORKER \
        and "fork" in multiprocessing.get_all_start_methods()


def _store_errors() -> int:
    store = counters.SECTIONS["store"]
    return store["store_io_errors"] + store["store_write_failures"]


@contextlib.contextmanager
def seams(disable_store: bool, disable_native: bool):
    """Run the body under the breakers' verdicts; yield its evidence.

    An open store breaker routes the body through the memory-only
    compile path (``suspend_disk_store``); an open native breaker forces
    the pure-Python kernels (``suspend_native``).  Both rungs are
    bit-identical, only slower.  The yielded dict is filled when the
    body exits: ``store_failures`` (store I/O and write failures during
    the body) and ``native_ok`` (the C fast path is not broken).
    """
    from .compiler import suspend_disk_store
    from .soc._native import native_status, suspend_native

    evidence: Dict[str, Any] = {}
    before = _store_errors()
    try:
        with contextlib.ExitStack() as stack:
            if disable_store:
                stack.enter_context(suspend_disk_store())
            if disable_native:
                stack.enter_context(suspend_native())
            yield evidence
    finally:
        evidence["store_failures"] = _store_errors() - before
        evidence["native_ok"] = native_status()["status"] not in (
            "compile-failed", "load-failed", "fault-injected")


def _child_main(conn, parent_end, handler: Callable[[dict], dict]) -> None:
    """Job loop of one forked worker."""
    global _IN_WORKER
    _IN_WORKER = True
    # Hold no copy of the owner's end, so the owner's death (even by
    # SIGKILL) reaches this worker as EOF and it exits.
    parent_end.close()
    # Looked up at call time: a tracer may wrap these module attributes.
    from .execution import model_plan

    last = model_plan.snapshot_diagnostics()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to report to
        shutdown = job.get("op") == "shutdown"
        reply = {"op": "bye"} if shutdown else handler(job)
        snapshot = model_plan.snapshot_diagnostics()
        reply["delta"] = model_plan._diagnostics_delta(snapshot, last)
        last = snapshot
        try:
            conn.send(reply)
        except OSError:
            break
        if shutdown:
            break
    conn.close()


class Worker:
    """One forked pool worker running ``handler`` per job.

    ``index`` is the slot the worker fills; a restarted slot keeps it.
    """

    def __init__(self, index: int, handler: Callable[[dict], dict]) -> None:
        # Load the native fast path once in the parent: forked workers
        # inherit the compiled library instead of each re-running the C
        # compiler probe.
        from .soc._native import native_lib

        native_lib()
        context = multiprocessing.get_context("fork")
        self.index = index
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_child_main, args=(child_conn, self.conn, handler),
            daemon=True)
        self.process.start()
        child_conn.close()

    def send(self, job: dict) -> bool:
        """Hand the worker one job; False when its pipe is broken."""
        try:
            self.conn.send(job)
            return True
        except OSError:
            return False

    def recv(self) -> Optional[dict]:
        """The next reply, its delta merged; None when the worker died."""
        from .execution import model_plan

        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            return None
        if not isinstance(reply, dict):
            return None
        model_plan.merge_worker_diagnostics(reply.pop("delta", {}))
        return reply

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=_JOIN_TIMEOUT_S)
        try:
            self.conn.close()
        except OSError:
            pass

    def close(self) -> bool:
        """Shutdown handshake; True when the final delta was merged.

        The worker must be idle.  A worker that is dead, or does not
        answer within ``_JOIN_TIMEOUT_S``, is killed without a merge.
        """
        merged = False
        if self.send({"op": "shutdown"}):
            try:
                if self.conn.poll(_JOIN_TIMEOUT_S):
                    reply = self.recv()
                    merged = reply is not None and reply.get("op") == "bye"
            except OSError:
                pass
        if merged:
            counters.add("model_plan", "model_plan_workers")
            self.process.join(timeout=_JOIN_TIMEOUT_S)
        self.kill()
        return merged
