"""The model-job worker pool for the fig16/fig17 kernel sequences.

The model figures run each kernel sequence on one shared board (see
:func:`repro.experiments.harness.run_conv_model`), so consecutive
kernels see the cache warm-state the previous one left behind; every
step obtains its metrics plane through the ordinary per-kernel
:func:`repro.execution.metrics.obtain_plan` path.

**run_model_jobs** forks independent model jobs (the manual and
generated legs of fig16, the two fig17 strategies) into a
``ProcessPoolExecutor`` over the shared sharded store and runs them
concurrently.  Each worker returns its diagnostics *delta* — stage
timings, trace/metrics/model/store/fault counters, kernel-cache stats —
which the parent merges back under a lock, so ``stage_timings()`` and
``diagnostics()`` keep counting work that happened in workers.
``REPRO_MODEL_WORKERS=N`` sizes the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Sequence, Tuple

from .. import faults
from ..envutil import env_int
from . import metrics
from .trace import TRACE_COUNTERS, merge_stage_timings

#: Worker-pool size for run_model_jobs (default: min(4, cpu_count)).
MODEL_WORKERS_ENV = "REPRO_MODEL_WORKERS"

#: Set in pool workers so nested run_model_jobs calls stay inline.
_WORKER_FLAG_ENV = "_REPRO_MODEL_POOL_WORKER"

#: Pool activity.
MODEL_PLAN_COUNTERS: Dict[str, int] = {
    "model_plan_workers": 0,     # pool workers merged back into the parent
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


def model_workers() -> int:
    """Requested pool size: REPRO_MODEL_WORKERS, else min(4, cpus)."""
    default = max(1, min(4, os.cpu_count() or 1))
    return env_int(MODEL_WORKERS_ENV, default, minimum=1)


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


def merge_worker_diagnostics(delta: dict, count_worker: bool = True) -> None:
    """Fold one worker's diagnostics delta into this process's totals.

    ``count_worker=False`` merges without advancing the
    ``model_plan_workers`` tally — the service layer reports one delta
    per *request* and counts each worker process exactly once itself.
    """
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
    if count_worker:
        MODEL_PLAN_COUNTERS["model_plan_workers"] += 1


def _init_worker() -> None:
    os.environ[_WORKER_FLAG_ENV] = "1"


def _pool_entry(fn: Callable, args: tuple):
    """Worker-side wrapper: run the job, return (result, counter delta).

    Forked workers inherit the parent's cumulative counters, so the
    delta against the at-entry snapshot is exactly the work this job
    did — the parent merges it and loses nothing to process isolation.
    """
    base = snapshot_diagnostics()
    result = fn(*args)
    return result, _diagnostics_delta(snapshot_diagnostics(), base)


def run_model_jobs(jobs: Sequence[Tuple[Callable, tuple]]) -> list:
    """Run independent model jobs, in parallel when the pool allows.

    ``jobs`` is a sequence of ``(callable, args)`` pairs; both must be
    picklable (module-level functions, plain-data args).  Results come
    back in submission order.  Falls back to inline sequential execution
    — bit-identical, the jobs are deterministic — when the pool is
    sized <= 1, fork is unavailable, or we are already inside a worker.
    """
    jobs = list(jobs)
    workers = min(model_workers(), len(jobs))
    if (workers <= 1 or os.environ.get(_WORKER_FLAG_ENV)
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(*args) for fn, args in jobs]
    # Load the native fast path once in the parent: forked workers
    # inherit the compiled library instead of each re-running the C
    # compiler probe (~0.2s of duplicated subprocess work per worker).
    from ..soc._native import native_lib

    native_lib()
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=_init_worker) as pool:
        futures = [pool.submit(_pool_entry, fn, args) for fn, args in jobs]
        results = []
        for future in futures:
            result, delta = future.result()
            merge_worker_diagnostics(delta)
            results.append(result)
    return results
