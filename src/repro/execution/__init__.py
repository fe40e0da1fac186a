"""Execution of lowered host IR: interpreter, trace synthesis, replay."""

from .interpreter import Interpreter, interpret_function
from .trace import (
    STAGE_TIMINGS,
    TRACE_COUNTERS,
    TraceRecorder,
    TraceUnsupported,
    record_trace,
    reset_trace_counters,
    trace_enabled,
)
from .synthesize import (
    SynthesisUnsupported,
    TraceMismatch,
    cross_check_requested,
    diff_traces,
    synthesis_enabled,
    synthesize_trace,
)
from .metrics import (
    METRICS_PLAN_COUNTERS,
    METRICS_PLAN_SCHEMA_VERSION,
    MetricsPlan,
    MetricsPlanMismatch,
    metrics_check_requested,
    metrics_plan_enabled,
    reset_metrics_plan_counters,
)
from .model_plan import (
    MODEL_PLAN_COUNTERS,
    merge_worker_diagnostics,
    reset_model_plan_counters,
    run_model_jobs,
)
from .replay import ReplayExecutor, replay_kernel


def diagnostics() -> dict:
    """Where execution time goes and where each kernel's trace came from.

    ``stage_timings`` is cumulative wall-clock per pipeline stage for
    this process; ``trace_sources`` counts how kernels obtained their
    DriverTrace (synthesized / recorded / synth_fallback / disk_loaded)
    — a benchmark run that silently fell back to recording shows up
    here as a nonzero ``recorded`` count.  ``metrics_plan`` counts how
    replays obtained their metrics plane (cached-plan hits, fresh
    builds, kill-switch fallbacks) — a nonzero
    ``metrics_plan_fallback`` means the plan path was bypassed.
    ``model_plan`` counts how many pool workers (model jobs, service,
    sweep) merged their final delta back at close.

    All counters include work merged back from pool workers (see
    :mod:`repro.pool`) — they are totals for the work this process
    *observed*, not just the work it did on its own threads.

    ``store`` counts on-disk kernel-store events — ``store_corrupt`` /
    ``store_quarantined`` are distinct from ``store_misses``, so a
    corrupted cache directory is visible as such rather than as a cold
    cache.  ``faults`` counts injected faults per ``REPRO_FAULTS``
    site, and ``native`` reports why the C fast path is (un)available.
    ``service`` counts compile/simulate-service events in this process
    (admissions, sheds, coalesced submits, worker crashes, drain-time
    worker merges) — nonzero only in a server process.  ``tuning``
    counts autotuning sweep events (points completed / pruned /
    poisoned, journal appends and recovery anomalies, sweep-worker
    crashes and restarts) — nonzero only after a sweep ran.
    """
    # Lazy imports: repro.store and repro.soc._native both import
    # execution machinery, so pulling them in at module scope would be
    # circular.
    from ..faults import fault_counters
    from ..service.server import service_counters
    from ..soc._native import native_status
    from ..store import STORE_COUNTERS
    from ..tuning.counters import tuning_counters

    return {
        "stage_timings": dict(STAGE_TIMINGS),
        "trace_sources": dict(TRACE_COUNTERS),
        "metrics_plan": dict(METRICS_PLAN_COUNTERS),
        "model_plan": dict(MODEL_PLAN_COUNTERS),
        "store": dict(STORE_COUNTERS),
        "tuning": tuning_counters(),
        "faults": fault_counters(),
        "native": native_status(),
        "service": service_counters(),
    }


__all__ = [
    "Interpreter", "interpret_function",
    "STAGE_TIMINGS", "TRACE_COUNTERS", "TraceRecorder", "TraceUnsupported",
    "record_trace", "reset_trace_counters", "trace_enabled",
    "SynthesisUnsupported", "TraceMismatch", "cross_check_requested",
    "diff_traces", "synthesis_enabled", "synthesize_trace",
    "METRICS_PLAN_COUNTERS", "METRICS_PLAN_SCHEMA_VERSION", "MetricsPlan",
    "MetricsPlanMismatch", "metrics_check_requested",
    "metrics_plan_enabled", "reset_metrics_plan_counters",
    "MODEL_PLAN_COUNTERS", "merge_worker_diagnostics",
    "reset_model_plan_counters", "run_model_jobs",
    "ReplayExecutor", "replay_kernel",
    "diagnostics",
]
