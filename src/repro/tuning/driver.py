"""Supervised, resumable execution of a sweep space.

:class:`SweepDriver` walks a :class:`~repro.tuning.space.SweepSpace`
and produces one journaled outcome record per point.  Failure is the
common case it is built for:

* **Pruning before paying** — each point is compiled, then its exact
  DMA traffic is predicted with
  :func:`repro.analysis.traffic.estimate_traffic`; points predicted to
  move more than ``prune_ratio`` times their group's cheapest
  closed-form configuration are journaled as ``pruned`` without
  simulating.  Plans the analyzer cannot model
  (:class:`~repro.analysis.traffic.TrafficUnsupported`) are counted
  and simulated anyway.
* **Supervision** — points run in forked pool workers (the service
  worker idiom: duplex pipes, crash detection via process sentinels,
  deterministic restarts).  A worker death costs one attempt of one
  point, never the sweep.  Per-point deadlines are enforced both
  cooperatively in the worker and by a hard parent-side kill.
* **Retries with taxonomy** — crashes and deadline kills are
  retryable (seeded :class:`~repro.retry.BackoffSchedule` per point);
  in-worker exceptions are permanent (``failed``).  A point whose
  workers crash ``max_attempts`` times is quarantined as ``poisoned``
  instead of wedging the run.
* **Degradation over abortion** — store and native seams sit behind
  :class:`~repro.service.breaker.CircuitBreaker` instances; repeated
  seam failures route subsequent points through the memory-only store
  or pure-Python kernels (both bit-identical rungs).  Journal I/O
  failures degrade to memory-only progress tracking.

Determinism is the load-bearing property: evaluation is deterministic
per point, injected crash/poison verdicts are keyed on point digests
(:func:`repro.faults.keyed_fires` — pure functions of the digest, not
of consultation order), and interrupted points resume from attempt
zero.  Whether a point completes, gets pruned, or is poisoned is
therefore a function of the point alone, which is what makes a resumed
sweep's report bit-identical to an uninterrupted one.

Knobs: ``REPRO_TUNING_WORKERS`` (pool size, default ``min(4, cpus)``)
and ``REPRO_TUNING_DEADLINE_S`` (per-point deadline, default 60) —
both with the envutil one-shot-warning fallback on malformed values.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from typing import Dict, List, Optional, Tuple

from .. import faults
from ..envutil import env_float, env_int
from ..execution.trace import add_stage_time
from ..retry import BackoffSchedule, retryable
from ..service import protocol
from ..service.breaker import CircuitBreaker
from .counters import count
from .journal import SweepJournal
from .report import build_report, write_report
from .space import SweepSpace, group_floors

#: Pool-size knob (default min(4, cpu_count)).
TUNING_WORKERS_ENV = "REPRO_TUNING_WORKERS"

#: Per-point deadline knob, seconds (default 60).
TUNING_DEADLINE_ENV = "REPRO_TUNING_DEADLINE_S"

_DEFAULT_DEADLINE_S = 60.0

#: Exit code of an injected sweep-worker crash (tests assert on it).
CRASH_EXIT_CODE = 23

#: Crashes are quarantined as poisoned after this many attempts.
DEFAULT_MAX_ATTEMPTS = 3

#: Outcome codes the retry ladder considers transient.
RETRYABLE_OUTCOMES = frozenset({"crash", "deadline"})


def tuning_workers() -> int:
    """Requested pool size: REPRO_TUNING_WORKERS, else min(4, cpus)."""
    default = max(1, min(4, os.cpu_count() or 1))
    return env_int(TUNING_WORKERS_ENV, default, minimum=1)


def tuning_deadline_s() -> float:
    """Per-point deadline: REPRO_TUNING_DEADLINE_S, else 60 seconds."""
    return env_float(TUNING_DEADLINE_ENV, _DEFAULT_DEADLINE_S,
                     minimum=0.001)


class DeadlinePassed(RuntimeError):
    """Cooperative cancellation: the point's deadline expired."""


def _injected_crash(digest: str, attempt: int) -> bool:
    """Prefix-budget crash verdict for ``tuning.worker:crash``.

    Attempt ``a`` crashes iff the keyed draws for attempts ``1..a``
    *all* fire.  The set of crashing attempts per point is then a
    prefix ``1..budget`` — a pure function of the digest — so a point
    completes at attempt ``budget+1`` (or is poisoned when the budget
    reaches ``max_attempts``) regardless of where any earlier run of
    the sweep was interrupted.  Independent per-attempt draws would
    not have this property: a clean run and a resumed run could
    classify the same point differently.
    """
    return all(
        faults.keyed_fires("tuning.worker", f"{digest}:attempt{j}")
        == "crash"
        for j in range(1, attempt + 1)
    )


def _poisoned(digest: str) -> bool:
    return faults.keyed_fires("tuning.point", digest) == "poison"


# -- point evaluation (runs in pool workers and inline) ---------------------

def evaluate_point(spec: dict, prune_bytes: Optional[int] = None,
                   deadline: Optional[float] = None) -> dict:
    """Compile, maybe prune, simulate, verify one point.

    Returns the outcome payload (metric, counters, traffic estimate);
    deterministic for a given spec.  ``deadline`` is absolute
    wall-clock (cooperative checkpoints between the pipeline stages).
    """
    import numpy as np

    from ..accelerators import make_matmul_system
    from ..analysis import TrafficUnsupported, estimate_traffic
    from ..compiler import AXI4MLIRCompiler
    from ..dialects import linalg
    from ..experiments.harness import expected_matmul, matmul_inputs
    from ..soc import make_pynq_z2

    def check_deadline(stage: str) -> None:
        if deadline is not None and time.time() >= deadline:
            raise DeadlinePassed(f"deadline expired before {stage}")

    check_deadline("compile")
    started = time.perf_counter()
    accel_size = tuple(spec["tiles"]) if spec["version"] == 4 else None
    hw, info = make_matmul_system(spec["version"], spec["size"],
                                  flow=spec["flow"],
                                  accel_size=accel_size)
    compiler = AXI4MLIRCompiler(
        info,
        permutation=tuple(spec["permutation"])
        if spec.get("permutation") else None,
        enable_cpu_tiling=bool(spec["cpu_tiling"]),
    )
    kernel = compiler.compile_matmul(spec["m"], spec["n"], spec["k"])
    add_stage_time("sweep_compile_s", time.perf_counter() - started)

    started = time.perf_counter()
    est_bytes: Optional[int] = None
    try:
        estimate = estimate_traffic(kernel.plan, info.opcode_map,
                                    linalg.matmul_maps())
        est_bytes = estimate.bytes_to_accel + estimate.bytes_from_accel
    except TrafficUnsupported:
        # CPU-tiled plans are outside the traffic model: count, then
        # simulate unconditionally instead of guessing.
        count("tuning_prune_unsupported")
    add_stage_time("sweep_estimate_s", time.perf_counter() - started)
    if est_bytes is not None and prune_bytes is not None \
            and est_bytes > prune_bytes:
        return {"status": "pruned", "est_bytes": est_bytes,
                "prune_bytes": prune_bytes}

    check_deadline("simulation")
    started = time.perf_counter()
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    a, b = matmul_inputs(spec["m"], spec["n"], spec["k"])
    out = np.zeros((spec["m"], spec["n"]), np.int32)
    counters = kernel.run(board, a, b, out, trace=True)
    add_stage_time("sweep_simulate_s", time.perf_counter() - started)
    if not np.array_equal(out, expected_matmul(a, b)):
        raise AssertionError("sweep point produced wrong results")
    return {
        "status": "ok",
        "metric": counters.elapsed_seconds,
        "counters": protocol.encode_value(counters),
        "est_bytes": est_bytes,
    }


@contextlib.contextmanager
def _seam_overrides(disable_store: bool, disable_native: bool):
    """Breaker verdicts -> the PR 6/PR 8 degradation rungs."""
    from ..compiler import suspend_disk_store
    from ..soc._native import suspend_native

    with contextlib.ExitStack() as stack:
        if disable_store:
            stack.enter_context(suspend_disk_store())
        if disable_native:
            stack.enter_context(suspend_native())
        yield


def _store_failures(store_counters: Dict[str, int]) -> int:
    return store_counters.get("store_io_errors", 0) \
        + store_counters.get("store_write_failures", 0)


def worker_main(conn, worker_index: int) -> None:
    """Job loop of one sweep pool worker (runs in a forked child)."""
    from ..execution.model_plan import (
        _diagnostics_delta,
        snapshot_diagnostics,
    )
    from ..soc._native import native_status
    from ..store import STORE_COUNTERS

    last_snapshot = snapshot_diagnostics()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        op = job.get("op")
        if op == "shutdown":
            snapshot = snapshot_diagnostics()
            try:
                conn.send({"op": "bye", "worker": worker_index,
                           "delta": _diagnostics_delta(snapshot,
                                                       last_snapshot)})
            except (BrokenPipeError, OSError):
                pass
            break
        if op != "run":
            continue
        digest = job["digest"]
        if _poisoned(digest) or _injected_crash(digest, job["attempt"]):
            # Hard process death, skipping every Python cleanup layer —
            # exactly what the parent's crash ladder must absorb.
            os._exit(CRASH_EXIT_CODE)
        reply: Dict = {"op": "result", "worker": worker_index,
                       "digest": digest, "ok": False}
        store_before = dict(STORE_COUNTERS)
        try:
            with _seam_overrides(job.get("disable_store", False),
                                 job.get("disable_native", False)):
                outcome = evaluate_point(job["spec"],
                                         job.get("prune_bytes"),
                                         job.get("deadline"))
            reply.update(ok=True, outcome=outcome)
        except DeadlinePassed as exc:
            reply.update(code="deadline", error=str(exc))
        except Exception as exc:
            reply.update(
                code="error",
                error=f"{type(exc).__name__}: {exc}",
                trace=traceback.format_exc(limit=8),
            )
        reply["store_failures"] = \
            _store_failures(STORE_COUNTERS) - _store_failures(store_before)
        reply["native_ok"] = native_status()["status"] not in (
            "compile-failed", "load-failed", "fault-injected",
        )
        snapshot = snapshot_diagnostics()
        reply["delta"] = _diagnostics_delta(snapshot, last_snapshot)
        last_snapshot = snapshot
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _WorkerHandle:
    """One forked sweep worker and its duplex pipe."""

    def __init__(self, index: int, context) -> None:
        self.index = index
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=worker_main, args=(child_conn, index), daemon=True,
        )
        self.process.start()
        child_conn.close()
        #: Digest of the in-flight point, None when idle.
        self.busy: Optional[str] = None
        #: Monotonic hard-kill time for the in-flight point.
        self.kill_at: Optional[float] = None
        self.seam_probe: Tuple[bool, bool] = (False, False)
        self.seam_enabled: Tuple[bool, bool] = (True, True)

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):
            pass
        self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass


class SweepDriver:
    """Run (or resume) one sweep; see the module docstring."""

    def __init__(self, space: SweepSpace, journal_path,
                 report_path=None,
                 workers: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 prune_ratio: Optional[float] = 4.0,
                 seed: int = 0,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 1.0,
                 sleep=time.sleep) -> None:
        self.space = space
        self.journal = SweepJournal(journal_path)
        self.report_path = report_path
        self.workers = workers if workers is not None else tuning_workers()
        self.deadline_s = deadline_s if deadline_s is not None \
            else tuning_deadline_s()
        self.max_attempts = max(1, max_attempts)
        self.prune_ratio = prune_ratio
        self.seed = seed
        self.store_breaker = CircuitBreaker("tuning-store",
                                            breaker_threshold,
                                            breaker_cooldown_s)
        self.native_breaker = CircuitBreaker("tuning-native",
                                             breaker_threshold,
                                             breaker_cooldown_s)
        self._sleep = sleep
        self._stop = False
        self._attempts: Dict[str, int] = {}
        self._crashes: Dict[str, int] = {}
        self._backoffs: Dict[str, BackoffSchedule] = {}
        self._retry_at: Dict[str, float] = {}
        self._results: Dict[str, dict] = {}
        self._pending: collections.deque = collections.deque()
        self._by_digest: Dict[str, object] = {}

    # -- public control ------------------------------------------------------
    def request_stop(self) -> None:
        """Graceful drain: stop dispatching, finish in-flight points."""
        self._stop = True

    # -- helpers -------------------------------------------------------------
    def _backoff(self, digest: str) -> BackoffSchedule:
        if digest not in self._backoffs:
            self._backoffs[digest] = BackoffSchedule(
                self.seed, site=f"tuning.point.{digest}")
        return self._backoffs[digest]

    def _prune_thresholds(self, points) -> Dict[str, Optional[int]]:
        # ``prune_ratio <= 0`` disables pruning, same as the CLI flag:
        # a zero threshold would prune every point.
        if self.prune_ratio is None or self.prune_ratio <= 0:
            return {point.digest: None for point in points}
        floors = group_floors(points)
        return {
            point.digest: int(self.prune_ratio * floors[point.group])
            for point in points
        }

    def _resolve(self, point, record_fields: dict) -> None:
        """Journal one point's final outcome and account for it."""
        record = {"digest": point.digest, "spec": point.spec(),
                  **record_fields}
        self._results[point.digest] = record
        self.journal.append_result(point.digest, record)
        status = record["status"]
        count({"ok": "tuning_points_completed",
               "pruned": "tuning_points_pruned",
               "poisoned": "tuning_points_poisoned",
               "failed": "tuning_points_failed"}[status])

    def _classify_failure(self, point, code: str,
                          error: str) -> Optional[float]:
        """One failed attempt: retry delay, or None when final.

        Crashes and deadline kills are transient
        (:data:`RETRYABLE_OUTCOMES`); anything a worker *reported* is a
        deterministic failure and final on the first occurrence.
        """
        digest = point.digest
        if code == "crash":
            self._crashes[digest] = self._crashes.get(digest, 0) + 1
        attempts = self._attempts.get(digest, 0)
        if retryable(RuntimeError(error), code=code,
                     retryable_codes=RETRYABLE_OUTCOMES) \
                and attempts < self.max_attempts:
            count("tuning_retries")
            return self._backoff(digest).next_delay()
        if code == "crash" \
                and self._crashes.get(digest, 0) >= attempts:
            self._resolve(point, {"status": "poisoned",
                                  "crashes": self._crashes[digest]})
        else:
            self._resolve(point, {"status": "failed", "error": error})
        return None

    def _seam_flags(self) -> Tuple[dict, dict]:
        store = self.store_breaker.allow()
        native = self.native_breaker.allow()
        if not store["enabled"]:
            count("tuning_store_degraded")
        if not native["enabled"]:
            count("tuning_native_degraded")
        return store, native

    def _record_seams(self, handle: "_WorkerHandle", reply: dict) -> None:
        store_enabled, native_enabled = handle.seam_enabled
        store_probe, native_probe = handle.seam_probe
        if store_enabled:
            self.store_breaker.record(reply.get("store_failures", 0) == 0,
                                      store_probe)
        if native_enabled:
            self.native_breaker.record(bool(reply.get("native_ok", True)),
                                       native_probe)

    # -- the run -------------------------------------------------------------
    def run(self) -> dict:
        started = time.perf_counter()
        points = self.space.points()
        space_digest = self.space.digest()
        count("tuning_points_total", len(points))

        journal_started = time.perf_counter()
        replay = self.journal.replay(expect_space=space_digest)
        add_stage_time("sweep_journal_s",
                       time.perf_counter() - journal_started)
        known = {point.digest for point in points}
        for digest, record in replay.results.items():
            if digest in known:
                self._results[digest] = record
        count("tuning_points_resumed", len(self._results))
        count("tuning_points_inflight",
              len([d for d in replay.inflight() if d in known]))
        if replay.meta is None:
            self.journal.append_meta(space_digest)

        thresholds = self._prune_thresholds(points)
        pending = collections.deque(
            point for point in points
            if point.digest not in self._results
        )
        if pending:
            if self.workers > 1 and "fork" in \
                    multiprocessing.get_all_start_methods():
                self._run_pool(pending, thresholds)
            else:
                self._run_inline(pending, thresholds)

        complete = all(point.digest in self._results for point in points)
        report = None
        if complete:
            journal_started = time.perf_counter()
            self.journal.compact(space_digest, self._results)
            add_stage_time("sweep_journal_s",
                           time.perf_counter() - journal_started)
            report = build_report(self.space, self._results)
            if self.report_path is not None:
                write_report(self.report_path, report)
        self.journal.close()
        add_stage_time("sweep_run_s", time.perf_counter() - started)
        return {
            "complete": complete,
            "points": len(points),
            "resolved": len(self._results),
            "report": report,
        }

    # -- inline execution (workers <= 1 or no fork) --------------------------
    def _run_inline(self, pending, thresholds) -> None:
        """Sequential fallback: same classification ladder, no forks.

        Injected crash/poison verdicts are simulated as failed attempts
        (killing the only process would end the sweep, not degrade it);
        the resulting outcome records are identical to the pool's.
        """
        while pending and not self._stop:
            point = pending.popleft()
            digest = point.digest
            attempt = self._attempts.get(digest, 0) + 1
            self._attempts[digest] = attempt
            self.journal.append_attempt(digest, attempt)
            if _poisoned(digest) or _injected_crash(digest, attempt):
                count("tuning_worker_crashes")
                delay = self._classify_failure(point, "crash",
                                               "injected crash")
                if delay is not None:
                    self._sleep(delay)
                    pending.appendleft(point)
                continue
            store, native = self._seam_flags()
            deadline = time.time() + self.deadline_s
            try:
                with _seam_overrides(not store["enabled"],
                                     not native["enabled"]):
                    from ..store import STORE_COUNTERS

                    store_before = dict(STORE_COUNTERS)
                    outcome = evaluate_point(point.spec(),
                                             thresholds[digest],
                                             deadline)
            except DeadlinePassed as exc:
                count("tuning_deadline_kills")
                delay = self._classify_failure(point, "deadline", str(exc))
                if delay is not None:
                    self._sleep(delay)
                    pending.appendleft(point)
                continue
            except Exception as exc:
                self._classify_failure(
                    point, "error", f"{type(exc).__name__}: {exc}")
                continue
            from ..soc._native import native_status
            from ..store import STORE_COUNTERS

            if store["enabled"]:
                self.store_breaker.record(
                    _store_failures(STORE_COUNTERS)
                    - _store_failures(store_before) == 0,
                    store["probe"])
            if native["enabled"]:
                self.native_breaker.record(
                    native_status()["status"] not in (
                        "compile-failed", "load-failed",
                        "fault-injected"),
                    native["probe"])
            self._resolve(point, outcome)

    # -- pool execution -------------------------------------------------------
    def _spawn(self, context, index: int) -> _WorkerHandle:
        return _WorkerHandle(index, context)

    def _dispatch(self, handle: _WorkerHandle, point,
                  thresholds) -> None:
        digest = point.digest
        attempt = self._attempts.get(digest, 0) + 1
        self._attempts[digest] = attempt
        self.journal.append_attempt(digest, attempt)
        store, native = self._seam_flags()
        handle.seam_enabled = (store["enabled"], native["enabled"])
        handle.seam_probe = (store["probe"], native["probe"])
        handle.busy = digest
        handle.kill_at = time.monotonic() + self.deadline_s * 1.5 + 0.25
        handle.conn.send({
            "op": "run", "digest": digest, "spec": point.spec(),
            "attempt": attempt,
            "prune_bytes": thresholds[digest],
            "deadline": time.time() + self.deadline_s,
            "disable_store": not store["enabled"],
            "disable_native": not native["enabled"],
        })

    def _run_pool(self, pending, thresholds) -> None:
        context = multiprocessing.get_context("fork")
        # Warm the native library once; forked workers inherit it.
        from ..soc._native import native_lib

        native_lib()
        size = min(self.workers, len(pending))
        handles: List[_WorkerHandle] = [
            self._spawn(context, index) for index in range(size)
        ]
        next_index = size
        self._pending = pending
        self._by_digest = {point.digest: point for point in pending}

        def requeue_or_finalize(handle, code, error):
            point = self._by_digest[handle.busy]
            delay = self._classify_failure(point, code, error)
            if delay is not None:
                self._retry_at[point.digest] = time.monotonic() + delay
                pending.append(point)

        try:
            while pending or any(h.busy for h in handles):
                now = time.monotonic()
                # Dispatch ready work onto idle workers.
                if not self._stop:
                    idle = [h for h in handles if h.busy is None]
                    for handle in idle:
                        point = self._next_ready(pending, now)
                        if point is None:
                            break
                        self._dispatch(handle, point, thresholds)
                elif all(h.busy is None for h in handles):
                    break  # drained: nothing in flight, stop dispatching
                busy = [h for h in handles if h.busy is not None]
                if not busy:
                    wait_until = self._next_event_time(pending)
                    if wait_until is None:
                        continue
                    self._sleep(min(0.05, max(0.0,
                                              wait_until - time.monotonic())))
                    continue
                timeout = self._wait_timeout(busy, pending)
                waitables = {h.conn: h for h in busy}
                waitables.update({h.process.sentinel: h for h in busy})
                ready = multiprocessing.connection.wait(
                    list(waitables), timeout)
                seen = set()
                for waitable in ready:
                    handle = waitables[waitable]
                    if id(handle) in seen:
                        continue
                    seen.add(id(handle))
                    self._service_handle(handle, handles, context,
                                         requeue_or_finalize)
                # Hard deadline kills for hung workers.
                now = time.monotonic()
                for position, handle in enumerate(handles):
                    if handle.busy is not None and handle.kill_at is not None \
                            and now >= handle.kill_at:
                        count("tuning_deadline_kills")
                        handle.kill()
                        requeue_or_finalize(handle, "deadline",
                                            "hard deadline kill")
                        handles[position] = self._spawn(context, next_index)
                        next_index += 1
                        count("tuning_worker_restarts")
        finally:
            self._shutdown_pool(handles)

    def _next_ready(self, pending, now: float):
        """Pop the first pending point whose retry backoff has elapsed."""
        for _ in range(len(pending)):
            point = pending.popleft()
            if self._retry_at.get(point.digest, 0.0) <= now:
                return point
            pending.append(point)
        return None

    def _next_event_time(self, pending) -> Optional[float]:
        times = [self._retry_at[p.digest] for p in pending
                 if p.digest in self._retry_at]
        return min(times) if times else None

    def _wait_timeout(self, busy, pending) -> float:
        deadlines = [h.kill_at for h in busy if h.kill_at is not None]
        event = self._next_event_time(pending)
        if event is not None:
            deadlines.append(event)
        horizon = min(deadlines) - time.monotonic() if deadlines else 0.25
        return min(0.25, max(0.01, horizon))

    def _service_handle(self, handle, handles, context,
                        requeue_or_finalize) -> None:
        """Drain one worker's reply, or absorb its death."""
        if handle.conn.poll():
            try:
                reply = handle.conn.recv()
            except (EOFError, OSError):
                reply = None
        else:
            reply = None
        if reply is None:
            # The worker died (injected crash, OOM-shaped failure).
            handle.process.join(timeout=5)
            count("tuning_worker_crashes")
            position = handles.index(handle)
            if handle.busy is not None:
                requeue_or_finalize(handle, "crash",
                                    f"worker {handle.index} crashed "
                                    f"(exit {handle.process.exitcode})")
            handle.kill()
            handles[position] = self._spawn(context, handle.index)
            count("tuning_worker_restarts")
            return
        if reply.get("op") != "result" or handle.busy is None:
            return
        point_digest = handle.busy
        handle.busy = None
        handle.kill_at = None
        self._record_seams(handle, reply)
        from ..execution.model_plan import merge_worker_diagnostics

        merge_worker_diagnostics(reply.get("delta", {}),
                                 count_worker=False)
        point = self._by_digest.get(point_digest)
        if point is None:
            return
        if reply.get("ok"):
            self._resolve(point, reply["outcome"])
        elif reply.get("code") == "deadline":
            count("tuning_deadline_kills")
            delay = self._classify_failure(point, "deadline",
                                           reply.get("error", "deadline"))
            if delay is not None:
                self._retry_at[point.digest] = time.monotonic() + delay
                self._pending_append(point)
        else:
            self._classify_failure(point, "error",
                                   reply.get("error", "worker error"))

    def _pending_append(self, point) -> None:
        # Set by _run_pool before the loop; dispatching back onto it.
        self._pending.append(point)

    def _shutdown_pool(self, handles) -> None:
        for handle in handles:
            if not handle.process.is_alive():
                handle.kill()
                continue
            try:
                handle.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                handle.kill()
                continue
            if handle.conn.poll(5):
                try:
                    reply = handle.conn.recv()
                except (EOFError, OSError):
                    reply = None
                if reply and reply.get("op") == "bye":
                    from ..execution.model_plan import (
                        merge_worker_diagnostics,
                    )

                    merge_worker_diagnostics(reply.get("delta", {}),
                                             count_worker=False)
                    count("tuning_workers_merged")
            handle.process.join(timeout=5)
            handle.kill()
