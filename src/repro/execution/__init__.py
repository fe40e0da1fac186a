"""Execution of lowered host IR: interpreter, trace synthesis, replay."""

from .. import counters
from ..soc._native import native_status
from .interpreter import Interpreter, interpret_function
from .trace import (
    STAGE_TIMINGS,
    TRACE_COUNTERS,
    TraceRecorder,
    TraceUnsupported,
    record_trace,
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
)
from .model_plan import (
    MODEL_PLAN_COUNTERS,
    run_model_jobs,
)
from .replay import ReplayExecutor, replay_kernel


def diagnostics() -> dict:
    """Where this process's time went and what hit or missed where.

    Every section but ``native`` is one section of the
    :mod:`repro.counters` registry, which declares each key:

    * ``stage_timings`` — cumulative wall-clock per pipeline stage.
    * ``trace_sources`` — how kernels obtained their DriverTrace
      (synthesized / recorded / synth_fallback / disk_loaded, and the
      hand-written baselines' manual_recorded / manual_fallback); a
      benchmark run that silently fell back to recording shows up as
      a nonzero ``recorded`` count.
    * ``metrics_plan`` — how replays obtained their metrics plane
      (cached-plan hits, fresh builds, kill-switch fallbacks).
    * ``model_plan`` — pool workers (model jobs, service, sweep) whose
      final delta merged back at close.
    * ``store`` — on-disk kernel-store events; ``store_corrupt`` /
      ``store_quarantined`` are distinct from ``store_misses``.
    * ``tuning`` — autotuning sweep events (points, journal, workers);
      nonzero only after a sweep ran.
    * ``faults`` — injected faults fired, per ``REPRO_FAULTS`` site.
    * ``service`` — compile/simulate-service events; nonzero only in a
      server process.
    * ``native`` — why the C fast path is (un)available.

    The counters include the deltas merged back from every pool worker
    (:mod:`repro.pool`: model jobs, service workers, sweep workers), so
    they are totals for the work this process *observed*, not just the
    work it did on its own threads.
    """
    return {**counters.snapshot(), "native": native_status()}


__all__ = [
    "Interpreter", "interpret_function",
    "STAGE_TIMINGS", "TRACE_COUNTERS", "TraceRecorder", "TraceUnsupported",
    "record_trace", "trace_enabled",
    "SynthesisUnsupported", "TraceMismatch", "cross_check_requested",
    "diff_traces", "synthesis_enabled", "synthesize_trace",
    "METRICS_PLAN_COUNTERS", "METRICS_PLAN_SCHEMA_VERSION", "MetricsPlan",
    "MetricsPlanMismatch", "metrics_check_requested",
    "metrics_plan_enabled",
    "MODEL_PLAN_COUNTERS", "run_model_jobs",
    "ReplayExecutor", "replay_kernel",
    "diagnostics",
]
