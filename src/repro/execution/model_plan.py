"""The model-job worker pool for the fig16/fig17 kernel sequences.

The model figures run each kernel sequence on one shared board (see
:func:`repro.experiments.harness.run_conv_model`), so consecutive
kernels see the cache warm-state the previous one left behind; every
step obtains its metrics plane through the ordinary per-kernel
:func:`repro.execution.metrics.obtain_plan` path.

**run_model_jobs** runs independent model jobs (the manual and
generated legs of fig16, the two fig17 strategies) concurrently on
:class:`repro.pool.Worker` slots over the shared sharded store.  Each
reply carries the worker's diagnostics *delta* — every
:mod:`repro.counters` section plus the kernel-cache stats — which the
parent merges back, so ``stage_timings()`` and ``diagnostics()`` keep
counting work that happened in workers.
``REPRO_WORKERS=N`` sizes the pool.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from .. import counters, pool

#: Live view of the diagnostics registry's ``model_plan`` section
#: (see :mod:`repro.counters`).
MODEL_PLAN_COUNTERS = counters.SECTIONS["model_plan"]


def snapshot_diagnostics() -> dict:
    """Every cumulative counter a worker can advance, plus the kernel
    cache's hit/miss stats."""
    from ..compiler import default_kernel_cache

    cache = default_kernel_cache()
    return {
        **counters.snapshot(),
        "kernel_cache": {
            "hits": cache.hits, "misses": cache.misses,
            "disk_hits": cache.disk_hits, "disk_misses": cache.disk_misses,
            "disk_corrupt": cache.disk_corrupt,
            "disk_stale": cache.disk_stale,
        },
    }


_diagnostics_delta = counters.delta


def merge_worker_diagnostics(delta: dict) -> None:
    """Fold one worker's diagnostics delta into this process's totals."""
    from ..compiler import default_kernel_cache

    counters.merge(delta)
    default_kernel_cache().merge_stats(delta.get("kernel_cache", {}))


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
