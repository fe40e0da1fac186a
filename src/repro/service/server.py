"""The multi-tenant compile/simulate server.

One long-lived process owns a listener socket, a bounded admission
queue, and a pool of forked worker processes sharing the on-disk
:class:`~repro.store.KernelStore` (``REPRO_KERNEL_CACHE_DIR``).
Clients submit kernel requests (:mod:`repro.service.protocol`) and get
back ``PerfCounters`` + outputs bit-identical to a local run.

The robustness ladder, top to bottom:

* **Deadlines** — every request carries one (``deadline_s``, default
  ``REPRO_SERVICE_TIMEOUT_S``).  Expired-while-queued requests are shed
  without touching a worker; expired-while-executing requests get a
  ``TIMEOUT`` response immediately while the worker cancels
  cooperatively at its next stage boundary.  A worker that blows
  through the cooperative grace window is killed and restarted.
* **Backpressure** — the admission queue is bounded
  (``REPRO_SERVICE_QUEUE_MAX``); an overflowing submit is answered
  with a structured ``BUSY`` + ``retry_after_s`` instead of stalling
  the socket, so load sheds at the edge.
* **Single-flight coalescing** — identical in-flight requests (same
  spec digest, inputs included) execute once; followers receive the
  leader's response.  The computation is deterministic, so this is
  observationally identical and strictly cheaper.
* **Idempotency** — completed ``request_id``s are remembered (LRU);
  a client retrying because a *response* was lost gets the cached
  result instead of a re-execution.
* **Circuit breakers** — consecutive store-I/O or native-compile
  failures open a breaker (:mod:`repro.service.breaker`); requests
  then run with that seam pre-disabled (memory-only compile / Python
  kernels — PR 6's bit-identical rungs) until a half-open probe heals
  it.
* **Crash recovery** — a worker death (including injected
  ``service.worker:crash`` faults) is detected on its pipe, the worker
  is restarted deterministically in the same slot, and the request is
  requeued at the front of the queue; past the requeue budget the
  client gets ``WORKER_CRASH``.
* **Graceful drain** — :meth:`ServiceServer.drain` (SIGTERM in the
  ``python -m repro.service`` runner) stops admissions, finishes every
  in-flight request, then closes each worker through the shared pool's
  handshake (:meth:`repro.pool.Worker.close`), which merges its final
  diagnostics delta into :func:`repro.execution.diagnostics`.

Workers are :class:`repro.pool.Worker` slots, sized by ``REPRO_WORKERS``;
where fork is unavailable, each slot's dispatcher runs jobs inline
through the same :func:`repro.service.worker.execute`.

``health``/``stats`` RPCs expose queue depth, breaker states, fault
counters, and the full diagnostics bundle for observability.
"""

from __future__ import annotations

import collections
import os
import socket
import tempfile
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from .. import counters, faults, pool
from ..envutil import env_float, env_int
# Unused here: perfbench's tracer wraps this module attribute.
from ..execution.model_plan import merge_worker_diagnostics  # noqa: F401
from . import errors, protocol
from .breaker import CircuitBreaker
from .worker import execute, serve

#: Env knobs (see README switch matrix).
QUEUE_MAX_ENV = "REPRO_SERVICE_QUEUE_MAX"
TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT_S"
BREAKER_THRESHOLD_ENV = "REPRO_SERVICE_BREAKER_THRESHOLD"
BREAKER_COOLDOWN_ENV = "REPRO_SERVICE_BREAKER_COOLDOWN_S"

_DEFAULT_QUEUE_MAX = 32
_DEFAULT_TIMEOUT_S = 60.0
_DEFAULT_BREAKER_THRESHOLD = 3
_DEFAULT_BREAKER_COOLDOWN_S = 1.0

#: Grace period for cooperative cancellation: how long after a
#: deadline expiry the dispatcher waits for the worker to abort at a
#: stage boundary before killing and restarting it.
_KILL_GRACE_S = 10.0

#: Times a request is requeued after worker crashes before the client
#: sees WORKER_CRASH (so a single unlucky crash never fails a request).
_MAX_ATTEMPTS = 3

#: Completed request_id -> response LRU (idempotent retries).
_IDEMPOTENCY_LRU = 64

#: Live view of the diagnostics registry's ``service`` section (see
#: :mod:`repro.counters`); also reported by the health RPC.
SERVICE_COUNTERS = counters.SECTIONS["service"]


class _Connection:
    """One accepted client socket plus its write lock.

    Reader thread and dispatcher threads both write responses; the
    lock keeps frames whole.
    """

    __slots__ = ("sock", "lock")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()

    def respond(self, message: dict) -> bool:
        try:
            with self.lock:
                protocol.send_message(self.sock, message)
            return True
        except (OSError, errors.ProtocolError):
            counters.add("service", "service_rpc_errors")
            return False


class _Pending:
    """One admitted request: the leader plus coalesced followers."""

    __slots__ = ("spec", "digest", "deadline", "attempts", "waiters",
                 "responded")

    def __init__(self, spec: dict, digest: str, deadline: float) -> None:
        self.spec = spec
        self.digest = digest
        self.deadline = deadline
        self.attempts = 0
        #: [(connection, request_id)] — leader first.
        self.waiters: List[Tuple[_Connection, str]] = []
        self.responded = False


class ServiceServer:
    """The long-lived compile/simulate service (see module docstring).

    Construct, :meth:`start`, hand :attr:`address` to clients, and
    :meth:`drain` when done.  All knobs fall back to ``REPRO_SERVICE_*``
    environment variables (``workers``: ``REPRO_WORKERS``), then to
    defaults.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 workers: Optional[int] = None,
                 queue_max: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 breaker_threshold: Optional[int] = None,
                 breaker_cooldown_s: Optional[float] = None) -> None:
        self.socket_path = socket_path
        self.workers = pool.pool_size(workers)
        self.queue_max = queue_max if queue_max is not None else env_int(
            QUEUE_MAX_ENV, _DEFAULT_QUEUE_MAX, minimum=1)
        self.timeout_s = timeout_s if timeout_s is not None else env_float(
            TIMEOUT_ENV, _DEFAULT_TIMEOUT_S, minimum=0.001)
        threshold = breaker_threshold if breaker_threshold is not None \
            else env_int(BREAKER_THRESHOLD_ENV,
                         _DEFAULT_BREAKER_THRESHOLD, minimum=1)
        cooldown = breaker_cooldown_s if breaker_cooldown_s is not None \
            else env_float(BREAKER_COOLDOWN_ENV,
                           _DEFAULT_BREAKER_COOLDOWN_S, minimum=0.0)
        self.store_breaker = CircuitBreaker("store", threshold, cooldown)
        self.native_breaker = CircuitBreaker("native", threshold, cooldown)

        self._cond = threading.Condition()
        self._queue: "collections.deque[_Pending]" = collections.deque()
        self._inflight: Dict[str, _Pending] = {}
        self._completed: "collections.OrderedDict[str, dict]" = \
            collections.OrderedDict()
        self._executing = 0
        self._draining = False
        self._stopping = False
        self._stopped = False
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._handles: List[Optional[pool.Worker]] = []
        self._tmpdir: Optional[str] = None
        self._fork_ok = pool.can_fork()
        # No-fork slots share this process's store counters, so they run
        # one at a time: each job's seam evidence is then its own.
        self._inline_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> str:
        if self.socket_path is None:
            raise RuntimeError("server not started")
        return self.socket_path

    def start(self) -> "ServiceServer":
        if self.socket_path is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-service-")
            self.socket_path = os.path.join(self._tmpdir, "service.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(128)
        if self._fork_ok:
            self._handles = [pool.Worker(i, serve)
                             for i in range(self.workers)]
        else:
            self._handles = [None] * self.workers
        for index in range(self.workers):
            thread = threading.Thread(target=self._dispatch_loop,
                                      args=(index,), daemon=True,
                                      name=f"service-dispatch-{index}")
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(target=self._accept_loop, daemon=True,
                                    name="service-accept")
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def drain(self, timeout_s: float = 60.0) -> dict:
        """Graceful shutdown: finish in-flight work, merge worker deltas.

        Returns a summary dict (final service counters + queue state).
        Idempotent; safe to call from a signal handler's main thread.
        """
        with self._cond:
            already = self._stopped
            self._draining = True
            self._cond.notify_all()
        self._close_listener()
        if already:
            return self._summary()
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while (self._queue or self._executing) \
                    and time.monotonic() < deadline:
                self._cond.wait(timeout=0.1)
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5)
        # Dispatchers are parked; the pipes are ours now.
        for handle in self._handles:
            if handle is not None and handle.close():
                counters.add("service", "service_workers_merged")
        with self._cond:
            self._stopped = True
        return self._summary()

    def _close_listener(self) -> None:
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the acceptor exits instead of being
            # waited out by drain()'s join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _summary(self) -> dict:
        with self._cond:
            queued, executing = len(self._queue), self._executing
        return {
            "counters": counters.snapshot()["service"],
            "queued": queued,
            "executing": executing,
            "breakers": {"store": self.store_breaker.snapshot(),
                         "native": self.native_breaker.snapshot()},
        }

    # -- accept / read -----------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: draining
            connection = _Connection(sock)
            thread = threading.Thread(target=self._read_loop,
                                      args=(connection,), daemon=True)
            thread.start()

    def _read_loop(self, connection: _Connection) -> None:
        try:
            while True:
                try:
                    message = protocol.recv_message(connection.sock)
                except (errors.ProtocolError, OSError):
                    counters.add("service", "service_rpc_errors")
                    return
                if message is None:
                    return
                self._handle_message(connection, message)
        finally:
            try:
                connection.sock.close()
            except OSError:
                pass

    def _handle_message(self, connection: _Connection,
                        message: dict) -> None:
        op = message.get("op")
        request_id = message.get("request_id") or uuid.uuid4().hex
        if op == "health":
            connection.respond({"request_id": request_id, "status": "ok",
                                "health": self.health()})
        elif op == "stats":
            from ..execution import diagnostics

            connection.respond({"request_id": request_id, "status": "ok",
                                "health": self.health(),
                                "diagnostics": diagnostics()})
        elif op == "submit":
            self._handle_submit(connection, request_id, message)
        else:
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST,
                                f"unknown op {op!r}")

    # -- admission ---------------------------------------------------------
    def _handle_submit(self, connection: _Connection, request_id: str,
                       message: dict) -> None:
        spec = message.get("spec")
        if not isinstance(spec, dict):
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST, "missing spec")
            return
        deadline_s = message.get("deadline_s")
        if deadline_s is None:
            deadline_s = self.timeout_s
        if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
            self._respond_error(connection, request_id,
                                errors.BAD_REQUEST,
                                f"bad deadline_s {deadline_s!r}")
            return
        digest = protocol.canonical_spec_digest(spec)
        # Decide under the lock, respond outside it: a slow client
        # socket must never stall dispatchers waiting on the condition.
        cached = None
        verdict = None
        retry_after = None
        with self._cond:
            cached = self._completed.get(request_id)
            if cached is not None:
                self._completed.move_to_end(request_id)
                counters.add("service", "service_idempotent_hits")
            elif self._draining:
                verdict = errors.SHUTTING_DOWN
            elif digest in self._inflight:
                self._inflight[digest].waiters.append(
                    (connection, request_id))
                counters.add("service", "service_coalesced")
                return
            else:
                depth = len(self._queue)
                if depth >= self.queue_max \
                        or faults.fires("service.queue") == "full":
                    verdict = errors.BUSY
                    retry_after = round(
                        0.05 * (1.0 + depth / max(1, self.workers)), 3)
                    counters.add("service", "service_shed_busy")
                else:
                    pending = _Pending(spec, digest,
                                       time.time() + float(deadline_s))
                    pending.waiters.append((connection, request_id))
                    self._inflight[digest] = pending
                    self._queue.append(pending)
                    counters.add("service", "service_requests")
                    self._cond.notify()
                    return
        if cached is not None:
            connection.respond({**cached, "request_id": request_id,
                                "idempotent": True})
        elif verdict == errors.SHUTTING_DOWN:
            self._respond_error(connection, request_id,
                                errors.SHUTTING_DOWN,
                                "server is draining")
        elif verdict == errors.BUSY:
            self._respond_error(
                connection, request_id, errors.BUSY,
                "admission queue full",
                retry_after_s=retry_after)

    # -- responses ---------------------------------------------------------
    def _respond_error(self, connection: _Connection, request_id: str,
                       code: str, message_text: str,
                       retry_after_s: Optional[float] = None) -> None:
        counters.add("service", "service_errors")
        payload: Dict[str, Any] = {"request_id": request_id,
                                   "status": "error", "code": code,
                                   "message": message_text}
        if retry_after_s is not None:
            payload["retry_after_s"] = retry_after_s
        connection.respond(payload)

    def _finish(self, pending: _Pending, payload: dict,
                cache: bool = True) -> None:
        """Respond to the leader and every coalesced follower."""
        with self._cond:
            if self._inflight.get(pending.digest) is pending:
                del self._inflight[pending.digest]
            if pending.responded:
                return
            pending.responded = True
            waiters = list(pending.waiters)
            if cache:
                for _, request_id in waiters:
                    self._completed[request_id] = payload
                while len(self._completed) > _IDEMPOTENCY_LRU:
                    self._completed.popitem(last=False)
        ok = payload.get("status") == "ok"
        counters.add("service", "service_ok" if ok else "service_errors",
                     len(waiters))
        for connection, request_id in waiters:
            connection.respond({**payload, "request_id": request_id})

    # -- dispatch ----------------------------------------------------------
    def _next_pending(self) -> Optional[_Pending]:
        with self._cond:
            while True:
                if self._stopping:
                    return None
                if self._queue:
                    pending = self._queue.popleft()
                    self._executing += 1
                    return pending
                self._cond.wait(timeout=0.5)

    def _done_executing(self) -> None:
        with self._cond:
            self._executing -= 1
            self._cond.notify_all()

    def _requeue_front(self, pending: _Pending) -> None:
        with self._cond:
            self._queue.appendleft(pending)
            self._cond.notify()

    def _dispatch_loop(self, index: int) -> None:
        while True:
            pending = self._next_pending()
            if pending is None:
                return
            try:
                self._dispatch_one(index, pending)
            finally:
                self._done_executing()

    def _dispatch_one(self, index: int, pending: _Pending) -> None:
        if time.time() >= pending.deadline:
            counters.add("service", "service_timeouts")
            self._finish(pending, {
                "status": "error", "code": errors.TIMEOUT,
                "message": "deadline expired while queued",
            }, cache=False)
            return
        pending.attempts += 1
        store_verdict = self.store_breaker.allow()
        native_verdict = self.native_breaker.allow()
        job = {
            "op": "run", "spec": pending.spec,
            "deadline": pending.deadline,
            "disable_store": not store_verdict["enabled"],
            "disable_native": not native_verdict["enabled"],
        }
        if self._handles[index] is None and self._fork_ok:
            # Deterministic restart point: a fresh worker at the same
            # slot, forked from the same parent image.
            self._handles[index] = pool.Worker(index, serve)
            counters.add("service", "service_worker_restarts")
        reply = self._run_job(index, job, pending)
        if reply is None:
            # Worker crashed mid-request: restart the slot and requeue
            # (or fail) the request.
            counters.add("service", "service_worker_crashes")
            handle = self._handles[index]
            if handle is not None:
                handle.kill()
                self._handles[index] = None
            if self._fork_ok and not self._stopping:
                # Restart eagerly, not at the next dispatch: the pool
                # keeps its capacity, and a crash on a slot's *last*
                # job doesn't leave the slot dead at drain time (its
                # replacement's delta still gets merged).
                self._handles[index] = pool.Worker(index, serve)
                counters.add("service", "service_worker_restarts")
            if pending.responded:
                return
            if pending.attempts < _MAX_ATTEMPTS:
                counters.add("service", "service_requeues")
                self._requeue_front(pending)
                return
            self._finish(pending, {
                "status": "error", "code": errors.WORKER_CRASH,
                "message": f"worker died {pending.attempts} times "
                           "running this request",
            }, cache=False)
            return
        # Breaker evidence: only seams that were actually enabled for
        # this request carry information about the seam's health.
        if store_verdict["enabled"]:
            self.store_breaker.record(
                reply.get("store_failures", 0) == 0,
                probe=store_verdict["probe"])
        if native_verdict["enabled"]:
            self.native_breaker.record(bool(reply.get("native_ok", True)),
                                       probe=native_verdict["probe"])
        if reply.get("ok"):
            self._finish(pending, {
                "status": "ok",
                "counters": reply.get("counters"),
                "output": reply.get("output"),
                "worker": index,
            })
        else:
            code = reply.get("code", errors.INTERNAL)
            if code == errors.TIMEOUT:
                counters.add("service", "service_timeouts")
            self._finish(pending, {
                "status": "error", "code": code,
                "message": reply.get("message", "worker error"),
            }, cache=False)

    def _run_job(self, index: int, job: dict,
                 pending: _Pending) -> Optional[dict]:
        """Execute one job on the slot's worker; None = worker crashed.

        Handles the deadline-while-executing case: the waiters get a
        TIMEOUT response the moment the deadline passes, then the
        worker gets a cooperative-cancellation grace window before the
        slot is recycled.
        """
        handle = self._handles[index]
        if handle is None:
            # No-fork platforms: run the job in this thread (ladder
            # rung).  Counters advance directly in this process.
            with self._inline_lock:
                return execute(job)
        if not handle.send(job):
            return None
        timed_out = False
        while True:
            remaining = pending.deadline - time.time()
            if not timed_out and remaining <= 0:
                counters.add("service", "service_timeouts")
                self._finish(pending, {
                    "status": "error", "code": errors.TIMEOUT,
                    "message": "deadline expired during execution "
                               "(cooperative cancellation)",
                }, cache=False)
                timed_out = True
            wait = _KILL_GRACE_S if timed_out else max(0.01, remaining)
            try:
                if handle.conn.poll(wait):
                    return handle.recv()
            except OSError:
                return None
            if not handle.process.is_alive():
                return None
            if timed_out:
                # The worker ignored its cooperative checkpoints for a
                # whole grace window: recycle the slot.
                return None

    # -- observability -----------------------------------------------------
    def health(self) -> dict:
        with self._cond:
            queued, executing = len(self._queue), self._executing
            draining = self._draining
        snapshot = counters.snapshot()
        return {
            "status": "draining" if draining else "ok",
            "queue_depth": queued,
            "queue_max": self.queue_max,
            "executing": executing,
            "workers": self.workers,
            "breakers": {"store": self.store_breaker.snapshot(),
                         "native": self.native_breaker.snapshot()},
            "counters": snapshot["service"],
            "faults": snapshot["faults"],
        }
