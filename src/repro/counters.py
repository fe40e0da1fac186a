"""The process's diagnostics counters: one schema, one lock, one fork rule.

Every cumulative counter that ``repro.execution.diagnostics()`` reports
lives here, in :data:`SECTIONS`, under its ``diagnostics()`` section
name.  Each section is a plain dict that is never rebound, so the
module-level names other modules export (``STAGE_TIMINGS``,
``TRACE_COUNTERS``, ``STORE_COUNTERS``, ...) are live views of it.

* :func:`add` is the only writer: every increment and every stage time
  goes through it, under the one lock.
* :func:`snapshot` copies every section; :func:`delta` subtracts two
  snapshots; :func:`merge` folds a pool worker's delta into this
  process.  A worker's delta uses the same section names as
  ``diagnostics()``; ``merge`` ignores sections it does not own.
* :func:`reset` zeroes sections (tests).

A child forked while another thread held the lock gets a fresh one, so
its first ``add`` cannot deadlock.  This module imports nothing from
``repro``.
"""

from __future__ import annotations

import os
import threading
from typing import Dict

#: Section name -> {key: zero}, in ``diagnostics()`` order.
SECTIONS: Dict[str, dict] = {
    # Wall-clock seconds per pipeline stage, cumulative for the process.
    "stage_timings": {
        "compile_s": 0.0,
        "trace_record_s": 0.0,
        "trace_synth_s": 0.0,
        "manual_record_s": 0.0,
        "replay_s": 0.0,
        # Metrics-plane breakdown (both are *subsets* of replay_s):
        # building a MetricsPlan from scratch vs applying a cached one.
        "metrics_plan_build_s": 0.0,
        "metrics_plan_apply_s": 0.0,
        # Autotuning sweep breakdown: total sweep wall-clock, journal
        # I/O, and the per-point stages measured inside the workers.
        "sweep_run_s": 0.0,
        "sweep_journal_s": 0.0,
        "sweep_compile_s": 0.0,
        "sweep_estimate_s": 0.0,
        "sweep_simulate_s": 0.0,
    },
    # How each kernel's DriverTrace was obtained.
    "trace_sources": {
        "synthesized": 0,      # ahead-of-time from the schedule table
        "recorded": 0,         # shadow-runtime run of the emitted driver
        "synth_fallback": 0,   # synthesis attempted, fell back to recording
        "disk_loaded": 0,      # deserialized from the kernel store
        "manual_recorded": 0,  # hand-written baseline bodies, traced
        "manual_fallback": 0,  # hand-written bodies left per-tile
    },
    # How replays obtained their metrics plane.
    "metrics_plan": {
        "metrics_plan_hits": 0,      # a cached plan applied in O(state)
        "metrics_plan_misses": 0,    # built live, then cached
        "metrics_plan_fallback": 0,  # kill switch or fault: built live
        # Always 0 (no build memo); perfbench/leg.py still reads both.
        "component_memo_hits": 0,
        "component_memo_misses": 0,
    },
    # Pool activity.
    "model_plan": {
        "model_plan_workers": 0,    # pool workers whose close delta merged
        "model_plan_step_hits": 0,  # always 0; perfbench/leg.py reads it
    },
    # On-disk kernel-store events; corrupt/quarantined are not misses.
    "store": {
        "store_hits": 0,
        "store_misses": 0,
        "store_corrupt": 0,
        "store_stale": 0,
        "store_io_errors": 0,
        "store_writes": 0,
        "store_write_failures": 0,
        "store_quarantined": 0,
        "store_evictions": 0,
        "store_lock_timeouts": 0,
    },
    # Autotuning sweep events.
    "tuning": {
        "tuning_points_total": 0,        # points enumerated for the run
        "tuning_points_completed": 0,    # simulated + verified this run
        "tuning_points_pruned": 0,       # skipped via traffic estimate
        "tuning_points_poisoned": 0,     # quarantined after repeated crashes
        "tuning_points_failed": 0,       # permanent non-crash failures
        "tuning_points_resumed": 0,      # served from the journal
        "tuning_points_inflight": 0,     # in-flight at interrupt, re-run
        "tuning_prune_unsupported": 0,   # TrafficUnsupported: simulated
        "tuning_retries": 0,             # point re-dispatches after failures
        "tuning_worker_crashes": 0,      # workers that died mid-point
        "tuning_worker_restarts": 0,     # replacement workers forked
        "tuning_deadline_kills": 0,      # workers killed past the deadline
        "tuning_store_degraded": 0,      # points run with the store seam open
        "tuning_native_degraded": 0,     # points run with native forced off
        "tuning_journal_appends": 0,     # records durably appended
        "tuning_journal_io_errors": 0,   # appends lost to I/O errors
        "tuning_journal_replayed": 0,    # records recovered on resume
        "tuning_journal_torn_tail": 0,   # unterminated final records dropped
        "tuning_journal_corrupt": 0,     # checksum/JSON-invalid records
        "tuning_journal_duplicates": 0,  # re-journaled results (first wins)
        "tuning_journal_compactions": 0,
    },
    # Fired injected faults, one key per REPRO_FAULTS site.
    "faults": {},
    # Compile/simulate-service events (nonzero only in a server).
    "service": {
        "service_requests": 0,         # submits admitted into the queue
        "service_ok": 0,               # successful responses
        "service_errors": 0,           # error responses (all codes)
        "service_coalesced": 0,        # served by an in-flight leader
        "service_idempotent_hits": 0,  # served from the response LRU
        "service_shed_busy": 0,        # answered BUSY at admission
        "service_timeouts": 0,         # deadline expiries
        "service_worker_crashes": 0,   # worker deaths observed
        "service_requeues": 0,         # requests requeued after a crash
        "service_worker_restarts": 0,  # workers restarted (crash or hang)
        "service_workers_merged": 0,   # drain-time worker deltas merged
        "service_rpc_errors": 0,       # connection-level failures
    },
}

#: Sections whose keys are not declared up front.
_OPEN_SECTIONS = frozenset({"faults"})

_ZEROS = {name: dict(counts) for name, counts in SECTIONS.items()}

_lock = threading.Lock()


def _fresh_lock_after_fork() -> None:
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


def add(section: str, key: str, amount: float = 1) -> None:
    """Add ``amount`` to one counter (or seconds to one stage)."""
    with _lock:
        counts = SECTIONS[section]
        if section in _OPEN_SECTIONS:
            counts.setdefault(key, 0)
        counts[key] += amount


def snapshot() -> Dict[str, dict]:
    """A copy of every section."""
    with _lock:
        return {name: dict(counts) for name, counts in SECTIONS.items()}


def delta(end: dict, base: dict) -> dict:
    """``end - base`` per section, nonzero keys only.

    Covers every section of ``end``, including ones this module does
    not own, so a snapshot extended by its caller travels whole.
    """
    return {
        section: {
            key: value - base.get(section, {}).get(key, 0)
            for key, value in counts.items()
            if value - base.get(section, {}).get(key, 0)
        }
        for section, counts in end.items()
    }


def merge(worker_delta: dict) -> None:
    """Fold a pool worker's delta into this process's totals."""
    with _lock:
        for section, values in worker_delta.items():
            counts = SECTIONS.get(section)
            if counts is None:
                continue
            for key, value in values.items():
                counts[key] = counts.get(key, 0) + value


def reset(*sections: str) -> None:
    """Zero the named sections, or all of them (tests)."""
    with _lock:
        for name in sections or SECTIONS:
            SECTIONS[name].clear()
            SECTIONS[name].update(_ZEROS[name])
