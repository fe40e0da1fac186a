"""The model-job worker pool for the fig16/fig17 kernel sequences.

The model figures run each kernel sequence on one shared board (see
:func:`repro.experiments.harness.run_conv_model`), so consecutive
kernels see the cache warm-state the previous one left behind; every
step obtains its metrics plane through the ordinary per-kernel
:func:`repro.execution.metrics.obtain_plan` path.

**run_model_jobs** runs independent model jobs (the manual and
generated legs of fig16, the two fig17 strategies) concurrently on
:class:`repro.pool.Worker` slots over the shared sharded store.  Each
reply carries the worker's diagnostics *delta* — stage timings,
trace/metrics/model/store/fault counters, kernel-cache stats — which
the parent merges back under a lock, so ``stage_timings()`` and
``diagnostics()`` keep counting work that happened in workers.
``REPRO_WORKERS=N`` sizes the pool.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Sequence, Tuple

from .. import faults, pool
from . import metrics
from .trace import TRACE_COUNTERS, merge_stage_timings

#: Pool activity.
MODEL_PLAN_COUNTERS: Dict[str, int] = {
    "model_plan_workers": 0,     # pool workers whose close delta merged
    "model_plan_step_hits": 0,   # always 0; perfbench/leg.py reads it
}

_MERGE_LOCK = threading.Lock()


def _fresh_lock_after_fork() -> None:
    # Forked children (service workers, model-pool workers) must not
    # inherit a merge lock another parent thread held.
    global _MERGE_LOCK
    _MERGE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def reset_model_plan_counters() -> None:
    for key in MODEL_PLAN_COUNTERS:
        MODEL_PLAN_COUNTERS[key] = 0


def snapshot_diagnostics() -> dict:
    """Flat snapshot of every cumulative counter a worker can advance."""
    from ..compiler import default_kernel_cache
    from ..store import STORE_COUNTERS
    from ..tuning.counters import tuning_counters
    from .trace import STAGE_TIMINGS

    cache = default_kernel_cache()
    return {
        "stage_timings": dict(STAGE_TIMINGS),
        "trace": dict(TRACE_COUNTERS),
        "metrics": dict(metrics.METRICS_PLAN_COUNTERS),
        "model": dict(MODEL_PLAN_COUNTERS),
        "store": dict(STORE_COUNTERS),
        "tuning": tuning_counters(),
        "faults": faults.fault_counters(),
        "kernel_cache": {
            "hits": cache.hits, "misses": cache.misses,
            "disk_hits": cache.disk_hits, "disk_misses": cache.disk_misses,
            "disk_corrupt": cache.disk_corrupt,
            "disk_stale": cache.disk_stale,
        },
    }


def _diagnostics_delta(end: dict, base: dict) -> dict:
    return {
        section: {
            key: value - base.get(section, {}).get(key, 0)
            for key, value in counters.items()
            if value - base.get(section, {}).get(key, 0)
        }
        for section, counters in end.items()
    }


def merge_worker_diagnostics(delta: dict) -> None:
    """Fold one worker's diagnostics delta into this process's totals."""
    from ..compiler import default_kernel_cache
    from ..store import STORE_COUNTERS

    merge_stage_timings(delta.get("stage_timings", {}))
    with _MERGE_LOCK:
        for key, value in delta.get("trace", {}).items():
            TRACE_COUNTERS[key] = TRACE_COUNTERS.get(key, 0) + value
        for key, value in delta.get("metrics", {}).items():
            metrics.METRICS_PLAN_COUNTERS[key] = \
                metrics.METRICS_PLAN_COUNTERS.get(key, 0) + value
        for key, value in delta.get("model", {}).items():
            MODEL_PLAN_COUNTERS[key] = \
                MODEL_PLAN_COUNTERS.get(key, 0) + value
        for key, value in delta.get("store", {}).items():
            STORE_COUNTERS[key] = STORE_COUNTERS.get(key, 0) + value
    if delta.get("tuning"):
        from ..tuning.counters import merge_tuning_counters

        merge_tuning_counters(delta["tuning"])
    faults.merge_fault_counters(delta.get("faults", {}))
    default_kernel_cache().merge_stats(delta.get("kernel_cache", {}))


def count_pool_worker() -> None:
    """Count one pool worker whose close delta was merged."""
    with _MERGE_LOCK:
        MODEL_PLAN_COUNTERS["model_plan_workers"] += 1


def _run_job(job: dict) -> dict:
    """Pool handler: one model job; an exception travels back pickled."""
    try:
        return {"ok": True, "result": job["fn"](*job["args"])}
    except Exception as exc:
        return {"ok": False, "error": exc}


def run_model_jobs(jobs: Sequence[Tuple[Callable, tuple]]) -> list:
    """Run independent model jobs, in parallel when the pool allows.

    ``jobs`` is a sequence of ``(callable, args)`` pairs; results come
    back in submission order, and a job's exception is re-raised here.
    Falls back to inline sequential execution — bit-identical, the jobs
    are deterministic — when the pool is sized <= 1 or cannot fork.
    """
    jobs = list(jobs)
    size = min(pool.pool_size(), len(jobs))
    if size <= 1 or not pool.can_fork():
        return [fn(*args) for fn, args in jobs]
    workers = [pool.Worker(index, _run_job) for index in range(size)]
    replies = []
    try:
        for start in range(0, len(jobs), size):
            wave = list(zip(workers, jobs[start:start + size]))
            for worker, (fn, args) in wave:
                worker.send({"fn": fn, "args": args})
            replies.extend(worker.recv() for worker, _ in wave)
    finally:
        for worker in workers:
            worker.close()
    results = []
    for reply in replies:
        if reply is None:
            raise RuntimeError("a model-job worker died")
        if not reply["ok"]:
            raise reply["error"]
        results.append(reply["result"])
    return results
