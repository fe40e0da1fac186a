"""Span recording around the program's public layer entry points.

The traced leg installs wrappers on the names callers look up at call
time (module attributes and class methods), records one span per call
in memory, and writes the spans as JSONL when the leg ends.  Nothing
under ``src/`` is modified: the wrappers live only in the traced leg's
process.

Forked pool workers inherit the wrappers but record nothing (spans are
kept only in the process that installed them).  Their work reaches the
parent through the program's own diagnostics deltas, which the wrapper
on ``merge_worker_diagnostics`` accumulates under ``worker.*``; the
wrapper on ``snapshot_diagnostics`` adds the store bytes and rewrites a
worker published, so those deltas carry them too.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Dict, List

#: (span name, per-layer metric that receives its self time).
SELF_TIME_METRICS = {
    "compiler.compile": "compiler.compile_s",
    "synth.synthesize": "synth.s",
    "synth.record": "synth.s",
    "manual.record": "manual.record_s",
    "replay": "replay.self_s",
    "plan.build": "plan.build_s",
    "plan.apply": "plan.apply_s",
    "model.jobs": "model.jobs_s",
    "store.load": "store.load_s",
    "store.decode": "store.decode_s",
    "store.encode": "store.encode_s",
    "store.write": "store.write_s",
    "tuning.sweep": "tuning.sweep_s",
    "tuning.journal": "tuning.journal_s",
    "tuning.pool_wait": "tuning.pool_wait_s",
    "service.request": "service.request_s",
}

_EXTRA_SECTION = "perfbench"


class Tracer:
    """In-memory span recorder for one leg process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.worker: Dict[str, float] = {}
        #: Store publishes seen in this process (and, through the
        #: diagnostics snapshot, in each forked worker).
        self.extra = {"bytes_written": 0, "rewrites": 0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(span["name"] == name for span in self._stack())

    def call(self, name: str, fn, args, kwargs):
        if os.getpid() != self.pid:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = {"id": span_id, "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(), "run": self.run_id,
                "start": time.perf_counter()}
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, when=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return original(*args, **kwargs)
            return tracer.call(name, original, args, kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        import multiprocessing.connection

        import repro.baselines.manual as manual
        import repro.compiler as compiler
        import repro.execution as execution
        import repro.execution.metrics as metrics
        import repro.execution.model_plan as model_plan
        import repro.service.client as client
        import repro.service.server as server
        import repro.store as store
        import repro.tuning.driver as tuning_driver
        import repro.tuning.journal as journal

        self.wrap(compiler.AXI4MLIRCompiler, "compile_matmul",
                  "compiler.compile")
        self.wrap(compiler.AXI4MLIRCompiler, "compile_conv",
                  "compiler.compile")
        self.wrap(compiler, "synthesize_trace", "synth.synthesize")
        self.wrap(compiler, "record_trace", "synth.record")
        self.wrap(compiler, "replay_kernel", "replay")
        self.wrap(manual, "record_trace", "manual.record")
        self.wrap(manual, "replay_kernel", "replay")
        self.wrap(metrics, "build_plan", "plan.build")
        self.wrap(metrics, "apply_plan", "plan.apply")
        self.wrap(execution, "run_model_jobs", "model.jobs")
        self.wrap(store.KernelStore, "load", "store.load")
        original_store = store.KernelStore.store

        def count_rewrite(kernel_store, name, payload):
            if kernel_store.entry_path(name).exists():
                self.extra["rewrites"] += 1
            return original_store(kernel_store, name, payload)

        store.KernelStore.store = count_rewrite
        self._restore.append((store.KernelStore, "store", original_store))
        self.wrap(store.KernelStore, "store", "store.write")
        self.wrap(store, "decode_payload", "store.decode")
        self.wrap(store, "encode_payload", "store.encode")
        self.wrap(tuning_driver.SweepDriver, "run", "tuning.sweep")
        for method in ("append", "compact", "replay"):
            self.wrap(journal.SweepJournal, method, "tuning.journal")
        self.wrap(multiprocessing.connection, "wait", "tuning.pool_wait",
                  when=lambda: self.inside("tuning.sweep"))
        self.wrap(client.ServiceClient, "submit", "service.request")

        original_pack = store.pack_entry

        def pack_entry(manifest, npz):
            blob = original_pack(manifest, npz)
            self.extra["bytes_written"] += len(blob)
            return blob

        store.pack_entry = pack_entry
        self._restore.append((store, "pack_entry", original_pack))

        # Worker deltas: the snapshot a worker takes carries its store
        # publishes; the parent's merge accumulates every delta.
        original_snapshot = model_plan.snapshot_diagnostics

        def snapshot_diagnostics():
            snapshot = original_snapshot()
            snapshot[_EXTRA_SECTION] = dict(self.extra)
            return snapshot

        model_plan.snapshot_diagnostics = snapshot_diagnostics
        self._restore.append((model_plan, "snapshot_diagnostics",
                              original_snapshot))

        for owner in (model_plan, server):
            original_merge = owner.merge_worker_diagnostics
            self._wrap_merge(owner, original_merge)

    def _wrap_merge(self, owner, original) -> None:
        tracer = self

        @functools.wraps(original)
        def merge(delta, *args, **kwargs):
            if os.getpid() == tracer.pid:
                with tracer._lock:
                    tracer.worker["deltas"] = \
                        tracer.worker.get("deltas", 0) + 1
                    for stage, seconds in \
                            delta.get("stage_timings", {}).items():
                        tracer.worker[stage] = \
                            tracer.worker.get(stage, 0.0) + seconds
                    for key, value in delta.get("store", {}).items():
                        tracer.worker[key] = \
                            tracer.worker.get(key, 0) + value
                    for key, value in delta.get(_EXTRA_SECTION, {}).items():
                        tracer.worker[key] = \
                            tracer.worker.get(key, 0) + value
            return original(delta, *args, **kwargs)

        setattr(owner, "merge_worker_diagnostics", merge)
        self._restore.append((owner, "merge_worker_diagnostics", original))

    # -- output --------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span) + "\n")


def self_times(spans: List[dict], thread_walls: Dict[int, float]) -> dict:
    """Per-layer self seconds plus the untraced residual.

    A span's self time is its duration minus the part of it that its
    child spans cover.  ``thread_walls`` maps each traced thread to
    the wall seconds it was active; what no top-level span covers on a
    thread is its ``untraced`` share.  The self times and the residual
    therefore sum to the total thread wall time.
    """
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    top_level: Dict[int, float] = {}
    for span in spans:
        covered = _union(children.get(span["id"], []))
        seconds = span["end"] - span["start"] - covered
        metric = SELF_TIME_METRICS[span["name"]]
        totals[metric] = totals.get(metric, 0.0) + seconds
        counts[span["name"]] = counts.get(span["name"], 0) + 1
        if span["parent"] is None:
            top_level[span["thread"]] = top_level.get(span["thread"], 0.0) \
                + span["end"] - span["start"]
    untraced = sum(wall - top_level.get(thread, 0.0)
                   for thread, wall in thread_walls.items())
    return {"self_s": totals, "counts": counts, "untraced_s": untraced,
            "thread_wall_s": sum(thread_walls.values())}


def _union(spans: List[dict]) -> float:
    covered = 0.0
    end = None
    for span in sorted(spans, key=lambda s: s["start"]):
        start = span["start"] if end is None else max(span["start"], end)
        if span["end"] > start:
            covered += span["end"] - start
            end = span["end"]
    return covered
