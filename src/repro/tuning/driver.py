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
* **Supervision** — points run on :class:`repro.pool.Worker` slots
  (forked workers on duplex pipes); the driver detects crashes via
  process sentinels and restarts the slot.  A worker death costs one
  attempt of one point, never the sweep.  Per-point deadlines are
  enforced both cooperatively in the worker and by a hard parent-side
  kill.
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

Knobs: ``REPRO_WORKERS`` (pool size, see :func:`repro.pool.pool_size`)
and ``REPRO_TUNING_DEADLINE_S`` (per-point deadline, default 60, with
the envutil one-shot-warning fallback on malformed values).
"""

from __future__ import annotations

import collections
import multiprocessing.connection
import os
import time
import traceback
from typing import Dict, Optional, Tuple

from .. import counters, faults, pool
from ..envutil import env_float
from ..retry import BackoffSchedule, retryable
from ..service import protocol
from ..service.breaker import CircuitBreaker
from .journal import SweepJournal
from .report import build_report, write_report
from .space import SweepSpace, group_floors

#: Per-point deadline knob, seconds (default 60).
TUNING_DEADLINE_ENV = "REPRO_TUNING_DEADLINE_S"

_DEFAULT_DEADLINE_S = 60.0

#: Exit code of an injected sweep-worker crash (tests assert on it).
CRASH_EXIT_CODE = 23

#: Crashes are quarantined as poisoned after this many attempts.
DEFAULT_MAX_ATTEMPTS = 3

#: Outcome codes the retry ladder considers transient.
RETRYABLE_OUTCOMES = frozenset({"crash", "deadline"})


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


def _crashes(digest: str, attempt: int) -> bool:
    """Injected death (crash or poison) for this attempt of a point."""
    return _poisoned(digest) or _injected_crash(digest, attempt)


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
    counters.add("stage_timings", "sweep_compile_s",
                 time.perf_counter() - started)

    started = time.perf_counter()
    est_bytes: Optional[int] = None
    try:
        estimate = estimate_traffic(kernel.plan, info.opcode_map,
                                    linalg.matmul_maps())
        est_bytes = estimate.bytes_to_accel + estimate.bytes_from_accel
    except TrafficUnsupported:
        # CPU-tiled plans are outside the traffic model: count, then
        # simulate unconditionally instead of guessing.
        counters.add("tuning", "tuning_prune_unsupported")
    counters.add("stage_timings", "sweep_estimate_s",
                 time.perf_counter() - started)
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
    perf = kernel.run(board, a, b, out, trace=True)
    counters.add("stage_timings", "sweep_simulate_s",
                 time.perf_counter() - started)
    if not np.array_equal(out, expected_matmul(a, b)):
        raise AssertionError("sweep point produced wrong results")
    return {
        "status": "ok",
        "metric": perf.elapsed_seconds,
        "counters": protocol.encode_value(perf),
        "est_bytes": est_bytes,
    }


def _evaluate_job(job: dict) -> dict:
    """Evaluate one attempt under its seam verdicts; returns the reply."""
    reply: Dict = {"ok": False}
    with pool.seams(job["disable_store"], job["disable_native"]) \
            as evidence:
        try:
            outcome = evaluate_point(job["spec"], job["prune_bytes"],
                                     job["deadline"])
            reply.update(ok=True, outcome=outcome)
        except DeadlinePassed as exc:
            reply.update(code="deadline", error=str(exc))
        except Exception as exc:
            reply.update(
                code="error",
                error=f"{type(exc).__name__}: {exc}",
                trace=traceback.format_exc(limit=8),
            )
    reply.update(evidence)
    return reply


def _worker_job(job: dict) -> dict:
    """Pool handler of a forked sweep worker."""
    if _crashes(job["digest"], job["attempt"]):
        # Hard process death, skipping every Python cleanup layer —
        # exactly what the parent's crash ladder must absorb.
        os._exit(CRASH_EXIT_CODE)
    return _evaluate_job(job)


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
        self.workers = pool.pool_size(workers)
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
        counters.add("tuning", {"ok": "tuning_points_completed",
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
            counters.add("tuning", "tuning_retries")
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
            counters.add("tuning", "tuning_store_degraded")
        if not native["enabled"]:
            counters.add("tuning", "tuning_native_degraded")
        return store, native

    def _next_attempt(self, point) -> int:
        attempt = self._attempts.get(point.digest, 0) + 1
        self._attempts[point.digest] = attempt
        self.journal.append_attempt(point.digest, attempt)
        return attempt

    def _job(self, point, attempt: int,
             thresholds) -> Tuple[dict, dict, dict]:
        """One attempt's job under the breakers' current verdicts."""
        store, native = self._seam_flags()
        job = {
            "digest": point.digest, "spec": point.spec(),
            "attempt": attempt,
            "prune_bytes": thresholds[point.digest],
            "deadline": time.time() + self.deadline_s,
            "disable_store": not store["enabled"],
            "disable_native": not native["enabled"],
        }
        return job, store, native

    def _account(self, point, reply: dict, store: dict,
                 native: dict) -> Optional[float]:
        """One evaluated attempt: retry delay, or None when final."""
        # Breaker evidence: only seams that were actually enabled for
        # this attempt carry information about the seam's health.
        if store["enabled"]:
            self.store_breaker.record(reply["store_failures"] == 0,
                                      store["probe"])
        if native["enabled"]:
            self.native_breaker.record(reply["native_ok"],
                                       native["probe"])
        if reply["ok"]:
            self._resolve(point, reply["outcome"])
            return None
        if reply["code"] == "deadline":
            counters.add("tuning", "tuning_deadline_kills")
        return self._classify_failure(point, reply["code"], reply["error"])

    # -- the run -------------------------------------------------------------
    def run(self) -> dict:
        started = time.perf_counter()
        points = self.space.points()
        space_digest = self.space.digest()
        counters.add("tuning", "tuning_points_total", len(points))

        journal_started = time.perf_counter()
        replay = self.journal.replay(expect_space=space_digest)
        counters.add("stage_timings", "sweep_journal_s",
                     time.perf_counter() - journal_started)
        known = {point.digest for point in points}
        for digest, record in replay.results.items():
            if digest in known:
                self._results[digest] = record
        counters.add("tuning", "tuning_points_resumed", len(self._results))
        counters.add("tuning", "tuning_points_inflight",
                     len([d for d in replay.inflight() if d in known]))
        if replay.meta is None:
            self.journal.append_meta(space_digest)

        thresholds = self._prune_thresholds(points)
        pending = collections.deque(
            point for point in points
            if point.digest not in self._results
        )
        if pending:
            if self.workers > 1 and pool.can_fork():
                self._run_pool(pending, thresholds)
            else:
                self._run_inline(pending, thresholds)

        complete = all(point.digest in self._results for point in points)
        report = None
        if complete:
            journal_started = time.perf_counter()
            self.journal.compact(space_digest, self._results)
            counters.add("stage_timings", "sweep_journal_s",
                         time.perf_counter() - journal_started)
            report = build_report(self.space, self._results)
            if self.report_path is not None:
                write_report(self.report_path, report)
        self.journal.close()
        counters.add("stage_timings", "sweep_run_s",
                     time.perf_counter() - started)
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
            attempt = self._next_attempt(point)
            if _crashes(point.digest, attempt):
                counters.add("tuning", "tuning_worker_crashes")
                delay = self._classify_failure(point, "crash",
                                               "injected crash")
            else:
                job, store, native = self._job(point, attempt, thresholds)
                delay = self._account(point, _evaluate_job(job), store,
                                      native)
            if delay is not None:
                self._sleep(delay)
                pending.appendleft(point)

    # -- pool execution -------------------------------------------------------
    def _run_pool(self, pending, thresholds) -> None:
        size = min(self.workers, len(pending))
        workers = [pool.Worker(slot, _worker_job) for slot in range(size)]
        #: slot -> (point, store verdict, native verdict, hard-kill time).
        inflight: Dict[int, tuple] = {}

        def settle(slot: int, delay: Optional[float]) -> None:
            point = inflight.pop(slot)[0]
            if delay is not None:
                self._retry_at[point.digest] = time.monotonic() + delay
                pending.append(point)

        def fail(slot: int, code: str, error: str) -> None:
            point = inflight[slot][0]
            settle(slot, self._classify_failure(point, code, error))
            workers[slot].kill()
            workers[slot] = pool.Worker(slot, _worker_job)
            counters.add("tuning", "tuning_worker_restarts")

        try:
            while pending or inflight:
                now = time.monotonic()
                # Dispatch ready work onto idle workers.
                if not self._stop:
                    for worker in workers:
                        if worker.index in inflight:
                            continue
                        point = self._next_ready(pending, now)
                        if point is None:
                            break
                        job, store, native = self._job(
                            point, self._next_attempt(point), thresholds)
                        inflight[worker.index] = (
                            point, store, native,
                            time.monotonic() + self.deadline_s * 1.5 + 0.25)
                        worker.send(job)
                elif not inflight:
                    break  # drained: nothing in flight, stop dispatching
                if not inflight:
                    wait_until = self._next_event_time(pending)
                    if wait_until is not None:
                        self._sleep(min(0.05, max(
                            0.0, wait_until - time.monotonic())))
                    continue
                busy = [workers[slot] for slot in inflight]
                waitables = {w.conn: w for w in busy}
                waitables.update({w.process.sentinel: w for w in busy})
                ready = multiprocessing.connection.wait(
                    list(waitables), self._wait_timeout(inflight, pending))
                for worker in dict.fromkeys(waitables[r] for r in ready):
                    reply = worker.recv() if worker.conn.poll() else None
                    if reply is not None:
                        point, store, native, _ = inflight[worker.index]
                        settle(worker.index,
                               self._account(point, reply, store, native))
                        continue
                    # The worker died (injected crash, OOM-shaped failure).
                    worker.process.join(timeout=5)
                    counters.add("tuning", "tuning_worker_crashes")
                    fail(worker.index, "crash",
                         f"worker {worker.index} crashed "
                         f"(exit {worker.process.exitcode})")
                # Hard deadline kills for hung workers.
                now = time.monotonic()
                for slot in [s for s, a in inflight.items() if now >= a[3]]:
                    counters.add("tuning", "tuning_deadline_kills")
                    fail(slot, "deadline", "hard deadline kill")
        finally:
            for worker in workers:
                worker.close()

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

    def _wait_timeout(self, inflight, pending) -> float:
        deadlines = [attempt[3] for attempt in inflight.values()]
        event = self._next_event_time(pending)
        if event is not None:
            deadlines.append(event)
        horizon = min(deadlines) - time.monotonic() if deadlines else 0.25
        return min(0.25, max(0.01, horizon))
