"""Model-granularity replay: fused metrics plans + a replay worker pool.

The per-kernel pipeline (trace -> decoded plan -> MetricsPlan) treats
every invocation independently: each replay re-fingerprints the full
runtime/board state — including an export of both cache levels' LRU
contents — before it can reuse a cached MetricsPlan.  For the model
figures (fig16's ResNet-18 layer sequence, fig17's TinyBERT matmul
schedule) the invocation sequence itself is static, so this module
lifts the caching to model granularity:

**ModelSession** runs a named sequence of kernel invocations against
one shared board.  Because the board is shared, the cache warm-state
carries between kernels exactly the way ``OfflineLruSimulator`` already
carries it *within* one kernel: each step's metrics plane starts from
the previous step's live LRU contents, so back-to-back layers see a
realistically warm cache instead of the cold-cache-per-kernel
accounting the figure harnesses used to do.

**ModelPlan** is the fused artifact a session records: one fingerprint
pinning the board configuration and start state, plus the ordered
per-step ``(config, MetricsPlan)`` pairs.  On the next session with the
same name/fingerprint each step's sub-plan is served by an O(1) config
comparison — no per-step state pickling, hashing, or cache-ways export
— and the stitched timeline of per-step final states is available via
:meth:`ModelPlan.timeline`.  Plans persist in the PR 6
:class:`~repro.store.KernelStore` under ``model-*`` entry names with
their own schema version; a stale schema evicts only the model plan,
never the kernel entries it refers to.

Correctness is inductive: the fingerprint pins the start state, each
recorded sub-plan deterministically reproduces the exact state the
per-kernel path would compute from that state, and any step that falls
off the fused plan (kill switch, injected ``model.plan`` fault, config
divergence) degrades to :func:`repro.execution.metrics.obtain_plan`
for that step — bit-identical by the per-kernel guarantees.

Switches: ``REPRO_NO_MODEL_PLAN=1`` disables recording and replaying of
fused plans (each step takes the per-kernel path); ``REPRO_MODEL_CHECK=1``
rebuilds every fused-step hit from the live metrics plane and raises
:class:`ModelPlanMismatch` on divergence (``REPRO_METRICS_CHECK=1``
implies the same check, so the CI cross-check leg covers fused steps
too); ``REPRO_MODEL_WORKERS=N`` sizes the replay worker pool.

**run_model_jobs** is the worker pool: independent model jobs (the
manual and generated legs of fig16, the two fig17 strategies) fork into
a ``ProcessPoolExecutor`` over the shared sharded store and run
concurrently.  Each worker returns its diagnostics *delta* — stage
timings, trace/metrics/model/store/fault counters, kernel-cache stats —
which the parent merges back under locks, so ``stage_timings()`` and
``diagnostics()`` keep counting work that happened in workers.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..envutil import env_int
from . import metrics
from .trace import TRACE_COUNTERS, add_stage_time, merge_stage_timings

#: Env kill-switch: set REPRO_NO_MODEL_PLAN=1 to run every session step
#: through the per-kernel metrics-plan path.
MODEL_PLAN_KILL_SWITCH = "REPRO_NO_MODEL_PLAN"

#: Cross-check mode: set REPRO_MODEL_CHECK=1 to rebuild every fused-step
#: hit from the live metrics plane and fail loudly on divergence.
MODEL_CHECK_ENV = "REPRO_MODEL_CHECK"

#: Worker-pool size for run_model_jobs (default: min(4, cpu_count)).
MODEL_WORKERS_ENV = "REPRO_MODEL_WORKERS"

#: Set in pool workers so nested run_model_jobs calls stay inline.
_WORKER_FLAG_ENV = "_REPRO_MODEL_POOL_WORKER"

#: On-disk ModelPlan schema version.  Bump whenever the fused payload
#: (step-config encoding, fingerprint recipe, MetricsPlan shape) changes
#: so stale persisted model plans are evicted — the kernel entries the
#: plan's steps were recorded against still load.
MODEL_PLAN_SCHEMA_VERSION = 1

#: How session steps obtained their metrics plane, plus pool activity.
MODEL_PLAN_COUNTERS: Dict[str, int] = {
    "model_plan_hits": 0,        # sessions fully replayed from a fused plan
    "model_plan_misses": 0,      # sessions that recorded a fresh fused plan
    "model_plan_step_hits": 0,   # steps served from a fused sub-plan
    "model_plan_fallback": 0,    # steps forced onto the per-kernel path
    "model_plan_divergence": 0,  # steps that fell off a fused plan
    "model_plan_stale": 0,       # persisted plans evicted (bad schema)
    "model_plan_workers": 0,     # pool workers merged back into the parent
}

#: In-process fused-plan registry, LRU over (name, fingerprint).
_MAX_MEMORY_PLANS = 16
_MODEL_PLANS: "OrderedDict[Tuple[str, str], ModelPlan]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()

_STORES: Dict[Path, object] = {}
_STORE_LOCK = threading.Lock()


def _fresh_locks_after_fork() -> None:
    # Forked children (service workers, model-pool workers) must not
    # inherit registry/store locks another parent thread held.
    global _REGISTRY_LOCK, _STORE_LOCK
    _REGISTRY_LOCK = threading.Lock()
    _STORE_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)

def model_plan_enabled() -> bool:
    """Fused model plans are on unless killed (theirs or the metrics one)."""
    return os.environ.get(MODEL_PLAN_KILL_SWITCH, "") != "1" \
        and metrics.metrics_plan_enabled()


def model_check_requested() -> bool:
    return os.environ.get(MODEL_CHECK_ENV, "") == "1" \
        or metrics.metrics_check_requested()


def reset_model_plan_counters() -> None:
    for key in MODEL_PLAN_COUNTERS:
        MODEL_PLAN_COUNTERS[key] = 0


def reset_model_plans() -> None:
    """Drop the in-process fused-plan registry (tests)."""
    with _REGISTRY_LOCK:
        _MODEL_PLANS.clear()


class ModelPlanMismatch(RuntimeError):
    """A fused sub-plan diverges from the live metrics plane."""


class ModelPlan:
    """One fused, replayable metrics plane for a whole kernel sequence.

    ``steps`` is the ordered list of ``(config, plan)`` pairs: ``config``
    is the repr of the cheap per-step identity tuple (step key, decode
    key, runtime knobs, descriptor addresses, engine regions, trace
    shape) and ``plan`` the step's :class:`MetricsPlan`.  Everything
    global to the sequence — board timing/cache geometry and the exact
    start state, cache contents included — is pinned once by
    ``fingerprint`` instead of being re-hashed per step.
    """

    __slots__ = ("name", "fingerprint", "steps")

    def __init__(self, name: str, fingerprint: str,
                 steps: List[Tuple[str, "metrics.MetricsPlan"]]) -> None:
        self.name = name
        self.fingerprint = fingerprint
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)

    def timeline(self) -> np.ndarray:
        """Stitched (num_steps, 9) matrix of per-step metrics end states.

        Row *i* is step *i*'s ``MetricsPlan.final_state``: the absolute
        counter/clock values after that kernel, so consecutive rows show
        the model's cumulative trajectory.
        """
        if not self.steps:
            return np.zeros((0, 9))
        return np.stack([np.asarray(plan.final_state, dtype=np.float64)
                         for _, plan in self.steps])


# -- fingerprinting ---------------------------------------------------------

def board_fingerprint(board) -> str:
    """Digest of the board configuration and exact start state.

    The per-step configs deliberately exclude board-global inputs; this
    fingerprint pins them once per session: timing model, cache
    geometry, every perf counter, the clock domain state, and the exact
    LRU contents of both cache levels (the warm-state carry's input).
    """
    caches = board.caches
    config = (
        MODEL_PLAN_SCHEMA_VERSION,
        astuple(board.timing),
        (caches.l1.size_bytes, caches.l1.line_size, caches.l1.associativity),
        (caches.l2.size_bytes, caches.l2.line_size, caches.l2.associativity),
        caches.line_size,
    )
    state = (
        astuple(board.counters),
        board.clock, board.accel_ready_at, board.dma_busy_until,
        (caches.l1.hits, caches.l1.misses,
         caches.l2.hits, caches.l2.misses),
    )
    digest = hashlib.sha256(pickle.dumps((config, state), protocol=4))
    digest.update(metrics._cache_digest(caches.l1))
    digest.update(metrics._cache_digest(caches.l2))
    return digest.hexdigest()


def _step_config(step_key, ex, decode_key: Tuple) -> str:
    """The cheap per-step identity: everything plan_fingerprint hashes
    except the board-global config/state the session fingerprint pins.

    A repr string rather than the tuple itself so the comparison is
    exact after a store round-trip (the JSON manifest cannot carry
    arbitrary step-key objects, but their reprs are deterministic).
    """
    engine = ex.engine
    return repr((
        step_key,
        decode_key,
        ex.rt.copy_style,
        ex.rt._call_cost,
        bool(ex.double_buffered),
        tuple((d.base_address, d.offset) for d in ex.descriptors),
        tuple(ex.trace.arg_specs),
        (engine.input_region.base, engine.input_region.size,
         engine.output_region.base, engine.output_region.size),
        ex.trace.init_params is None,
        int(ex.trace.num_events),
    ))


# -- persistence ------------------------------------------------------------

def _resolve_store():
    """The shared KernelStore (same REPRO_KERNEL_CACHE_DIR as kernels)."""
    from ..compiler import KERNEL_CACHE_DIR_ENV, disk_store_suspended
    from ..store import KernelStore

    directory = os.environ.get(KERNEL_CACHE_DIR_ENV)
    if not directory or disk_store_suspended():
        return None
    path = Path(directory)
    with _STORE_LOCK:
        store = _STORES.get(path)
        if store is None:
            store = _STORES[path] = KernelStore(path)
        return store


def _store_entry_name(name: str) -> str:
    """Entry name: ``model-<src digest>-<name digest>``.

    Mirrors KernelCache._entry_name: the source-tree digest prefix lets
    CI prune entries no current source can hit, and the key digest folds
    in the store + model schema versions so bumps can never alias.
    """
    from ..compiler import KERNEL_STORE_VERSION, _source_tree_digest

    source_digest = _source_tree_digest()
    digest = hashlib.sha256(
        repr((KERNEL_STORE_VERSION, MODEL_PLAN_SCHEMA_VERSION,
              source_digest, name)).encode()
    ).hexdigest()
    return f"model-{source_digest[:12]}-{digest}"


def _register_plan(plan: "ModelPlan") -> None:
    with _REGISTRY_LOCK:
        _MODEL_PLANS[(plan.name, plan.fingerprint)] = plan
        while len(_MODEL_PLANS) > _MAX_MEMORY_PLANS:
            _MODEL_PLANS.popitem(last=False)


def _lookup_plan(name: str, fingerprint: str) -> Optional["ModelPlan"]:
    key = (name, fingerprint)
    with _REGISTRY_LOCK:
        plan = _MODEL_PLANS.get(key)
        if plan is not None:
            _MODEL_PLANS.move_to_end(key)
            return plan
    store = _resolve_store()
    if store is None:
        return None
    from ..compiler import KERNEL_STORE_VERSION

    entry = _store_entry_name(name)
    status, payload = store.load(entry)
    if status != "hit":
        return None
    plan = payload.get("plan") if isinstance(payload, dict) else None
    if (not isinstance(payload, dict)
            or payload.get("store_version") != KERNEL_STORE_VERSION
            or payload.get("model_schema") != MODEL_PLAN_SCHEMA_VERSION
            or not isinstance(plan, ModelPlan)):
        # Semantically stale/foreign container: evict just this model
        # plan — the kernel entries its steps point at are untouched.
        store.quarantine(entry)
        MODEL_PLAN_COUNTERS["model_plan_stale"] += 1
        return None
    if plan.fingerprint != fingerprint:
        # Same model name from a different board/start state (not
        # stale): leave the entry for the config that wrote it.
        return None
    plan.steps = [tuple(step) for step in plan.steps]
    _register_plan(plan)
    return plan


def _persist_plan(plan: "ModelPlan") -> None:
    store = _resolve_store()
    if store is None:
        return
    from ..compiler import KERNEL_STORE_VERSION

    store.store(_store_entry_name(plan.name), {
        "store_version": KERNEL_STORE_VERSION,
        "model_schema": MODEL_PLAN_SCHEMA_VERSION,
        "plan": plan,
    })


# -- the session ------------------------------------------------------------

class ModelSession:
    """A named, ordered sequence of kernel invocations on one board.

    Run each generated kernel through :meth:`run` with a deterministic
    ``step_key``; the session threads a ``plan_source`` hook down to the
    replay executor so the step's MetricsPlan comes from the fused
    ModelPlan when one matches (recording a fresh one otherwise), and
    the shared board carries the cache warm-state between steps.  Call
    :meth:`finish` once the sequence is complete to fuse + persist.

    Hand-written (manual-driver) steps don't route through
    ``CompiledKernel.run``; call the driver against ``session.board``
    with ``plan_source=session.plan_source(step_key)`` so its trace
    replay joins the fused plan too (without it the step still gets the
    warm-state carry, just not a fused sub-plan).
    """

    def __init__(self, name: str, board) -> None:
        self.name = name
        self.board = board
        self._fingerprint = board_fingerprint(board)
        self._steps: List[Tuple[str, "metrics.MetricsPlan"]] = []
        self._cursor = 0
        self._plan: Optional[ModelPlan] = None
        self._replaying = False
        self._dirty = False
        self._finished = False
        self._result: Optional[ModelPlan] = None
        if model_plan_enabled():
            self._plan = _lookup_plan(name, self._fingerprint)
            self._replaying = self._plan is not None

    # -- step execution ---------------------------------------------------
    def run(self, kernel, *arrays, step_key, runtime=None, trace=None):
        """Execute one step; returns the step's perf-counter delta."""
        if self._finished:
            raise RuntimeError(f"ModelSession {self.name!r} already finished")
        return kernel.run(self.board, *arrays, runtime=runtime, trace=trace,
                          plan_source=self.plan_source(step_key))

    def plan_source(self, step_key) -> Callable:
        """The per-step metrics-plane hook for one ``step_key``.

        Pass the returned callable as the ``plan_source=`` of any replay
        entry point that accepts one (``CompiledKernel.run`` does this
        automatically via :meth:`run`; the manual drivers take it as a
        keyword) to make that invocation a session step.
        """
        def source(ex, decode_key):
            return self._step_plan(step_key, ex, decode_key)
        return source

    def _step_plan(self, step_key, ex, decode_key):
        if not model_plan_enabled() \
                or faults.fires("model.plan") == "fail":
            MODEL_PLAN_COUNTERS["model_plan_fallback"] += 1
            return metrics.obtain_plan(ex, decode_key)
        config = _step_config(step_key, ex, decode_key)
        if self._replaying:
            steps = self._plan.steps
            if self._cursor < len(steps) \
                    and steps[self._cursor][0] == config:
                start = time.perf_counter()
                plan = steps[self._cursor][1]
                self._cursor += 1
                MODEL_PLAN_COUNTERS["model_plan_step_hits"] += 1
                add_stage_time("model_plan_apply_s",
                               time.perf_counter() - start)
                if model_check_requested():
                    problems = metrics.diff_plans(
                        plan, metrics._timed_build(ex)
                    )
                    if problems:
                        raise ModelPlanMismatch(
                            f"fused ModelPlan {self.name!r} step "
                            f"{self._cursor - 1} diverges from the live "
                            "metrics plane on: " + ", ".join(problems)
                        )
                return plan
            # The live sequence fell off the fused plan: keep the
            # matched prefix (it IS the live prefix) and record on.
            MODEL_PLAN_COUNTERS["model_plan_divergence"] += 1
            self._steps = [tuple(step) for step in steps[:self._cursor]]
            self._replaying = False
            self._plan = None
            self._dirty = True
        plan = self._record_build(ex)
        self._steps.append((config, plan))
        self._dirty = True
        return plan

    def _record_build(self, ex) -> "metrics.MetricsPlan":
        """Build one recording step's MetricsPlan, fingerprint-free.

        While recording, the fused fingerprint plus the step config
        already pin every metrics-plane input, so the per-step
        ``plan_fingerprint`` — a pickle + sha256 over the board state
        *including an export of both cache levels' LRU ways* — is pure
        overhead; build directly instead.  The build is the identical
        deterministic computation ``obtain_plan`` runs on a miss, so
        the accounting mirrors it too.
        """
        if faults.fires("metrics.plan") == "fail":
            metrics.METRICS_PLAN_COUNTERS["metrics_plan_fallback"] += 1
        else:
            metrics.METRICS_PLAN_COUNTERS["metrics_plan_misses"] += 1
        return metrics._timed_build(ex)

    # -- fusion -----------------------------------------------------------
    def finish(self) -> Optional[ModelPlan]:
        """Fuse and persist the recorded plan (idempotent).

        Returns the session's fused ModelPlan: the replayed one on a
        full hit, the freshly recorded one otherwise, or ``None`` when
        nothing was recorded (kill switch, no replayed steps).
        """
        if self._finished:
            return self._result
        self._finished = True
        if self._replaying and not self._dirty:
            if self._cursor:
                MODEL_PLAN_COUNTERS["model_plan_hits"] += 1
            self._result = self._plan
            return self._result
        if not self._steps or not model_plan_enabled():
            return None
        start = time.perf_counter()
        plan = ModelPlan(self.name, self._fingerprint, list(self._steps))
        _register_plan(plan)
        _persist_plan(plan)
        MODEL_PLAN_COUNTERS["model_plan_misses"] += 1
        add_stage_time("model_plan_build_s", time.perf_counter() - start)
        self._result = plan
        return plan


# -- the worker pool --------------------------------------------------------

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
    with _REGISTRY_LOCK:
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
