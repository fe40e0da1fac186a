"""Top-level AXI4MLIR driver: configuration to executable host code.

Typical use (see ``examples/quickstart.py``)::

    accel_hw, accel_info = make_matmul_system(version=3, size=8, flow="Cs")
    compiler = AXI4MLIRCompiler(accel_info)
    kernel = compiler.compile_matmul(64, 64, 64)
    board = make_pynq_z2()
    board.attach_accelerator(accel_hw)
    counters = kernel.run(board, A, B, C)      # C += A @ B on the accelerator
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from threading import Lock
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import counters
from .accel_config import AcceleratorInfo, CPUInfo
from .codegen import (
    compile_host_function,
    emit_function,
    schedule_event_count,
)
from .dialects import func, linalg
from .execution import interpret_function
from .execution.metrics import (
    METRICS_PLAN_COUNTERS,
    METRICS_PLAN_SCHEMA_VERSION,
)
from .execution.replay import replay_kernel
from .execution.synthesize import (
    TraceMismatch,
    cross_check_requested,
    diff_traces,
    synthesis_enabled,
    synthesize_trace,
)
from .execution.trace import (
    TRACE_COUNTERS,
    TRACE_SCHEMA_VERSION,
    TraceUnsupported,
    record_trace,
    trace_enabled,
)
from .ir import Module, MemRefType, element_type_from_string, parse_module
from .ir.printer import print_module
from .runtime import AxiRuntime, CALL_STYLE_GENERATED, DoubleBufferedRuntime
from .soc import Board
from .store import STORE_COUNTERS, KernelStore
from .transforms import CompileError, build_axi4mlir_pipeline
from .transforms.lower_to_accel import LoweringPlan

#: Environment variable holding the on-disk kernel-store directory
#: (conventionally ``.repro_cache/`` at the repo root).
KERNEL_CACHE_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: On-disk store format/compatibility version.  Folded into every entry
#: filename and payload: bump it whenever lowering, emission, or the
#: CompiledKernel payload changes shape, so stale entries from an older
#: library version can never load silently.  (The serialized trace has
#: its own schema version, TRACE_SCHEMA_VERSION: a trace-only schema
#: bump evicts just the trace, not the lowered kernel.)
#: Version 3: pickle entries replaced by the checksummed JSON+npz
#: container of :mod:`repro.store`.
KERNEL_STORE_VERSION = 3


# -- disk-store suspension (circuit-breaker seam) ---------------------------
#
# The service layer's store circuit breaker needs a way to run one
# request on the no-store degradation path (PR 6's rung: memory-only
# compilation, bit-identical results) without mutating process-global
# environment from a worker thread.  The flag is thread-local so
# concurrent requests in one process degrade independently.

_disk_suspension = threading.local()


def disk_store_suspended() -> bool:
    """True while the calling thread is inside :func:`suspend_disk_store`."""
    return getattr(_disk_suspension, "count", 0) > 0


@contextmanager
def suspend_disk_store():
    """Temporarily disable the on-disk kernel store for this thread.

    Inside the context every :class:`KernelCache` behaves as if
    ``REPRO_KERNEL_CACHE_DIR`` were unset: compiles stay memory-only
    and no disk I/O is attempted.  Nestable; never affects other
    threads.
    """
    _disk_suspension.count = getattr(_disk_suspension, "count", 0) + 1
    try:
        yield
    finally:
        _disk_suspension.count -= 1


_SOURCE_TREE_DIGEST: Optional[str] = None


def _source_tree_digest() -> str:
    """Content hash of the installed ``repro`` package sources.

    Folded into every on-disk kernel-store entry name so that *any*
    source change — not just ones remembered in a manual version bump —
    invalidates persisted kernels/traces.  Without this, a restored
    cache (e.g. CI's ``actions/cache`` prefix restore) could silently
    serve drivers emitted by an older compiler.  Hashed once per
    process (~100 small files).
    """
    global _SOURCE_TREE_DIGEST
    if _SOURCE_TREE_DIGEST is None:
        root = Path(__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            try:
                hasher.update(path.read_bytes())
            except OSError:
                pass
        _SOURCE_TREE_DIGEST = hasher.hexdigest()
    return _SOURCE_TREE_DIGEST


def _np_dtype(element_type) -> np.dtype:
    text = str(element_type)
    return np.dtype({"f32": np.float32, "f64": np.float64,
                     "i32": np.int32, "i64": np.int64}.get(text, np.int32))


def build_matmul_module(m: int, n: int, k: int, element_type) -> Module:
    """A module holding ``matmul_call``: C(m,n) += A(m,k) * B(k,n)."""
    module = Module()
    func_op = func.define(
        "matmul_call",
        [
            MemRefType((m, k), element_type),
            MemRefType((k, n), element_type),
            MemRefType((m, n), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    a, rhs, out = func.arguments(func_op)
    linalg.matmul(b, a, rhs, out)
    func.ret(b)
    return module


def build_conv_module(batch: int, in_ch: int, in_hw: int, out_ch: int,
                      f_hw: int, stride: int, element_type) -> Module:
    """A module holding ``conv_call`` for one NCHW/FCHW convolution."""
    out_hw = (in_hw - f_hw) // stride + 1
    module = Module()
    func_op = func.define(
        "conv_call",
        [
            MemRefType((batch, in_ch, in_hw, in_hw), element_type),
            MemRefType((out_ch, in_ch, f_hw, f_hw), element_type),
            MemRefType((batch, out_ch, out_hw, out_hw), element_type),
        ],
    )
    module.add_function(func_op)
    b = func.builder_at_entry(func_op)
    image, weights, out = func.arguments(func_op)
    linalg.conv_2d_nchw_fchw(b, image, weights, out, stride=stride)
    func.ret(b)
    return module


def accelerator_fingerprint(info: AcceleratorInfo) -> Tuple:
    """A hashable digest of everything that affects lowering.

    Two :class:`AcceleratorInfo` objects with equal fingerprints produce
    identical host code for the same kernel/shape/flow, so compiled
    kernels can be shared between compiler instances.
    """
    return (
        info.name,
        info.kernel,
        info.accel_size,
        str(info.data_type),
        info.dims,
        info.data,
        str(info.opcode_map),
        tuple((name, str(flow)) for name, flow in info.opcode_flows),
        info.selected_flow,
        str(info.init_opcodes) if info.init_opcodes is not None else None,
        info.dma_config.as_operand_list(),
        info.flexible_size,
        info.flex_quantum,
        info.buffer_capacity,
        info.loop_permutation,
        info.version,
    )


def cpu_fingerprint(cpu: CPUInfo) -> Tuple:
    """The CPU-config half of a kernel cache key (tiling decisions)."""
    return (cpu.cache_levels, cpu.cache_types, cpu.line_size,
            cpu.associativity, cpu.frequency_hz)


class KernelCache:
    """LRU cache of lowered kernels, shared across compiler instances.

    Flow-exploration sweeps (Fig. 11's 38 flows, fig12's specialized/
    unspecialized panels, ``examples/dataflow_exploration.py``) compile
    the same (accelerator, kernel, shape, flow, permutation, tiling)
    configuration repeatedly; the lowering pipeline and Python emission
    are deterministic, so each configuration is lowered at most once and
    later requests rebind the cached entry.  ``specialized_copies`` is a
    runtime knob, not a lowering input, so it is deliberately absent
    from the key.

    With ``REPRO_KERNEL_CACHE_DIR`` set (or ``disk_dir`` passed), the
    cache is additionally backed by the on-disk :class:`~repro.store.
    KernelStore` keyed by the same fingerprint: a memory miss first
    tries to load the lowered module + emitted source from disk, and
    fresh compilations are persisted, so repeated processes skip the
    lowering pipeline entirely.  Entries are checksummed JSON+npz
    containers (no pickle: an untrusted cache dir can fail to load but
    never execute code); corrupt files are quarantined and counted as
    ``disk_corrupt``, distinct from honest ``disk_misses``.  Concurrent
    processes sharing one store coordinate through per-entry advisory
    build locks, so each kernel is compiled once.
    """

    def __init__(self, maxsize: int = 256,
                 disk_dir: Optional[str] = None):
        self.maxsize = maxsize
        self.disk_dir = disk_dir
        self._entries: "OrderedDict[Tuple, CompiledKernel]" = OrderedDict()
        self._lock = Lock()
        self._stores: dict = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_corrupt = 0
        self.disk_stale = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_misses = 0
            self.disk_corrupt = 0
            self.disk_stale = 0

    def merge_stats(self, delta: dict) -> None:
        """Fold a pool worker's hit/miss deltas into this cache's totals."""
        with self._lock:
            self.hits += delta.get("hits", 0)
            self.misses += delta.get("misses", 0)
            self.disk_hits += delta.get("disk_hits", 0)
            self.disk_misses += delta.get("disk_misses", 0)
            self.disk_corrupt += delta.get("disk_corrupt", 0)
            self.disk_stale += delta.get("disk_stale", 0)

    def stats(self) -> dict:
        stats = {"hits": self.hits, "misses": self.misses,
                 "entries": len(self._entries),
                 "trace": {**TRACE_COUNTERS, **METRICS_PLAN_COUNTERS}}
        disk_dir = self._resolve_disk_dir()
        if disk_dir is not None:
            stats.update(disk_hits=self.disk_hits,
                         disk_misses=self.disk_misses,
                         disk_corrupt=self.disk_corrupt,
                         disk_stale=self.disk_stale,
                         disk_dir=str(disk_dir),
                         store={**STORE_COUNTERS})
        return stats

    # -- disk store -------------------------------------------------------
    def _resolve_disk_dir(self) -> Optional[Path]:
        if disk_store_suspended():
            return None
        directory = self.disk_dir or os.environ.get(KERNEL_CACHE_DIR_ENV)
        return Path(directory) if directory else None

    def _resolve_store(self) -> Optional[KernelStore]:
        directory = self._resolve_disk_dir()
        if directory is None:
            return None
        with self._lock:
            store = self._stores.get(directory)
            if store is None:
                store = self._stores[directory] = KernelStore(directory)
            return store

    @staticmethod
    def _entry_name(key: Tuple) -> str:
        """Entry name: ``kernel-<src digest>-<key digest>``.

        The source-tree digest rides in the name twice over — as a
        greppable prefix (so CI can prune entries no current source
        can ever hit, see ci.yml) and folded into the key digest (so
        collisions on the truncated prefix still cannot alias).
        """
        source_digest = _source_tree_digest()
        digest = hashlib.sha256(
            repr((KERNEL_STORE_VERSION, source_digest, key)).encode()
        ).hexdigest()
        return f"kernel-{source_digest[:12]}-{digest}"

    def _count_disk(self, status: str) -> None:
        with self._lock:
            if status == "hit":
                self.disk_hits += 1
            elif status == "corrupt":
                self.disk_corrupt += 1
            elif status == "stale":
                self.disk_stale += 1
            else:  # miss / io: the entry simply is not available
                self.disk_misses += 1

    def _disk_load(self, store: KernelStore, name: str,
                   count: bool = True) -> Optional["CompiledKernel"]:
        """Load + reconstruct one stored kernel, or ``None``.

        Container/codec failures are already quarantined by the store;
        a checksum-valid payload that fails *semantic* reconstruction
        (wrong version field, unparsable IR) is quarantined here for
        the same reason — the next compile republishes it.
        """
        status, payload = store.load(name, count=count)
        if status != "hit":
            if count:
                self._count_disk(status)
            return None
        if not isinstance(payload, dict) \
                or payload.get("store_version") != KERNEL_STORE_VERSION:
            store.quarantine(name)
            if count:
                self._count_disk("stale")
            return None
        try:
            module = parse_module(payload["ir"], verify=False)
            entry, source = compile_host_function(
                module.lookup(payload["func_name"]),
                source=payload["source"],
            )
        except Exception:
            store.quarantine(name)
            if count:
                self._count_disk("corrupt")
            return None
        if count:
            self._count_disk("hit")
        kernel = CompiledKernel(
            module=module,
            func_name=payload["func_name"],
            source=source,
            entry_point=entry,
            plan=payload.get("plan"),
            parameters=payload.get("parameters", {}),
            schedule_table=payload.get("schedule_table"),
        )
        # A persisted trace (+ its decoded replay plans) lets warm
        # processes skip both recording and synthesis; a stale schema
        # evicts just the trace, never the lowered kernel.
        trace = payload.get("trace")
        if trace is not None \
                and payload.get("trace_schema") == TRACE_SCHEMA_VERSION:
            kernel.trace_state.trace = trace
            counters.add("trace_sources", "disk_loaded")
            # MetricsPlans ride in their own payload slot with their own
            # schema version: a stale metrics schema evicts just the
            # plans (the trace and the lowered kernel still load), and
            # plans are only ever attached to the trace they were built
            # against.  An entry whose plans were evicted (or never
            # written) is NOT marked persisted, so the first replay's
            # persist hook rewrites it with current-schema plans.
            plans = payload.get("metrics_plans")
            plans_current = bool(plans) and payload.get("metrics_schema") \
                == METRICS_PLAN_SCHEMA_VERSION
            if plans_current:
                trace.metrics_plans.update(plans)
            kernel.trace_state.persisted = plans_current
        return kernel

    def _disk_store(self, key: Tuple, kernel: "CompiledKernel") -> None:
        store = self._resolve_store()
        if store is None:
            return
        trace = kernel.trace_state.trace
        payload = {
            "store_version": KERNEL_STORE_VERSION,
            "ir": print_module(kernel.module),
            "func_name": kernel.func_name,
            "source": kernel.source,
            "parameters": kernel.parameters,
            "plan": kernel.plan,
            "schedule_table": kernel.schedule_table,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "trace": trace,
            # The trace's serialized form excludes metrics_plans; they
            # persist here under their own schema version so stale
            # plans evict independently of the trace.
            "metrics_schema": METRICS_PLAN_SCHEMA_VERSION,
            "metrics_plans": dict(trace.metrics_plans)
            if trace is not None else None,
        }
        # Unencodable payloads (plans outside the codec whitelist) stay
        # memory-only for this entry; store() reports, never raises.
        store.store(self._entry_name(key), payload)

    def get_or_compile(self, key: Tuple,
                       compile_fn: Callable[[], "CompiledKernel"]
                       ) -> "CompiledKernel":
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        store = self._resolve_store()
        kernel = None
        if store is not None:
            name = self._entry_name(key)
            kernel = self._disk_load(store, name)
            if kernel is None:
                # Serialize concurrent builders of this entry: the
                # losers block here, then find the winner's published
                # entry on the double-checked load.  Lock acquisition
                # failing only costs a redundant compile.
                with store.build_lock(name) as acquired:
                    if acquired:
                        kernel = self._disk_load(store, name, count=False)
                        if kernel is not None:
                            self._count_disk("hit")
                    if kernel is None:
                        kernel = compile_fn()
                        # Persist immediately (trace-less) so kernels
                        # that are compiled but never run — flow
                        # sweeps — still skip lowering next process;
                        # the persist hook below rewrites the entry
                        # with the trace after the first replay.
                        self._disk_store(key, kernel)
            # Re-persist the entry once the first run has built (and
            # decoded) the kernel's trace, so later processes load it.
            kernel.trace_state.persist = \
                lambda k=kernel, key=key: self._disk_store(key, k)
        else:
            kernel = compile_fn()
        with self._lock:
            self.misses += 1
            self._entries[key] = kernel
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return kernel


#: Process-wide default cache; ``AXI4MLIRCompiler(use_kernel_cache=False)``
#: opts out, tests reset it via ``default_kernel_cache().clear()``.
_GLOBAL_KERNEL_CACHE = KernelCache()


def default_kernel_cache() -> KernelCache:
    return _GLOBAL_KERNEL_CACHE


class KernelTraceState:
    """Shared (mutable) trace bookkeeping for one lowered kernel.

    Lives outside the :class:`CompiledKernel` dataclass fields proper so
    that ``dataclasses.replace`` rebinds (``specialized_copies``
    variants) share one recording.
    """

    __slots__ = ("lock", "trace", "failed", "persist", "persisted")

    def __init__(self):
        self.lock = Lock()
        self.trace = None
        self.failed = False
        #: Set by KernelCache when a disk store is active: re-persists
        #: the entry (now carrying the trace + decoded plans) once.
        self.persist = None
        self.persisted = False


@dataclass
class CompiledKernel:
    """The result of one compilation: IR, emitted source, callable."""

    module: Module
    func_name: str
    source: str
    entry_point: object
    plan: Optional[LoweringPlan] = None
    specialized_copies: bool = True
    parameters: dict = field(default_factory=dict)
    #: Schedule side table from the emitter (loop nest + rt calls).
    schedule_table: Optional[dict] = None
    trace_state: KernelTraceState = field(
        default_factory=KernelTraceState, repr=False, compare=False
    )

    @property
    def func_op(self):
        return self.module.lookup(self.func_name)

    def make_runtime(self, board: Board) -> AxiRuntime:
        return AxiRuntime(board, specialized_copies=self.specialized_copies,
                          call_style=CALL_STYLE_GENERATED)

    def run(self, board: Board, *arrays: np.ndarray,
            runtime: Optional[AxiRuntime] = None,
            trace: Optional[bool] = None):
        """Execute the emitted host code against ``board``.

        Returns the perf counter delta for this invocation.

        ``trace`` selects trace-compiled execution: the kernel's static
        schedule is synthesized ahead-of-time from the emitter's side
        table (or recorded by a shadow run when synthesis cannot prove
        the schedule — ``REPRO_NO_SYNTH=1`` forces that path) and
        replayed as batched numpy, bit-identical to the per-tile path.
        ``None`` (the default) enables it unless ``REPRO_NO_TRACE=1``;
        unsupported drivers or runtimes fall back to per-tile execution
        transparently.
        """
        rt = runtime or self.make_runtime(board)
        descriptors = [rt.make_memref(np.ascontiguousarray(a), f"arg{i}")
                       for i, a in enumerate(arrays)]
        before = board.snapshot()
        if self._trace_applicable(trace, rt) \
                and self._run_traced(board, rt, descriptors):
            return board.measure_since(before)
        self.entry_point(rt, *descriptors)
        return board.measure_since(before)

    # -- trace-compiled execution ----------------------------------------
    def _trace_applicable(self, trace: Optional[bool], rt) -> bool:
        if trace is False or not trace_enabled():
            return False
        # Exact types only: runtime subclasses may override call
        # semantics in ways the replay executor cannot see.
        return type(rt) in (AxiRuntime, DoubleBufferedRuntime)

    def _build_trace(self, specs):
        """Synthesize the trace from the schedule table, else record.

        Synthesis failing is never an error — it falls back to the
        recording path — but ``REPRO_TRACE_CHECK=1`` records every
        synthesized kernel as well and raises :class:`TraceMismatch`
        if the two traces differ anywhere.
        """
        synthesized = None
        if synthesis_enabled():
            # Any synthesis failure — proven-unsupported constructs or
            # unexpected blowups (recursion/memory on pathological
            # schedules) — falls back to the recording path; only the
            # recorder erring may disable tracing for the kernel.
            try:
                synthesized = synthesize_trace(self.schedule_table, specs)
            except Exception:
                counters.add("trace_sources", "synth_fallback")
        if synthesized is not None and not cross_check_requested():
            counters.add("trace_sources", "synthesized")
            return synthesized
        recorded = record_trace(
            self.entry_point, specs,
            expected_events=schedule_event_count(self.schedule_table),
        )
        if synthesized is not None:
            mismatches = diff_traces(synthesized, recorded)
            if mismatches:
                raise TraceMismatch(
                    f"synthesized trace for {self.func_name!r} differs "
                    f"from the recorded one: {', '.join(mismatches)}"
                )
            counters.add("trace_sources", "synthesized")
            return synthesized
        counters.add("trace_sources", "recorded")
        return recorded

    def _run_traced(self, board, rt, descriptors) -> bool:
        state = self.trace_state
        if state.failed:
            return False
        if state.trace is None:
            with state.lock:
                if state.trace is None and not state.failed:
                    try:
                        specs = tuple(
                            (d.sizes, d.strides, d.itemsize, str(d.dtype))
                            for d in descriptors
                        )
                        state.trace = self._build_trace(specs)
                    except TraceMismatch:
                        raise  # cross-check mode fails loudly
                    except Exception:
                        # Unsupported or erroring drivers: record once,
                        # then always use the per-tile path (which will
                        # surface any real error to the caller).
                        state.failed = True
        if state.trace is None:
            return False
        try:
            replay_kernel(state.trace, board, rt, descriptors,
                          type(rt) is DoubleBufferedRuntime)
        except TraceUnsupported:
            return False
        if state.persist is not None and not state.persisted:
            # First successful replay: the trace and the decoded plan
            # for this accelerator exist now — write them through.
            state.persisted = True
            state.persist()
        return True

    def run_interpreted(self, board: Board, *arrays: np.ndarray,
                        runtime: Optional[AxiRuntime] = None):
        """Execute via the reference interpreter (tests / debugging)."""
        rt = runtime or self.make_runtime(board)
        descriptors = [rt.make_memref(np.ascontiguousarray(a), f"arg{i}")
                       for i, a in enumerate(arrays)]
        before = board.snapshot()
        interpret_function(self.func_op, descriptors, rt)
        return board.measure_since(before)


class AXI4MLIRCompiler:
    """User-facing compiler: accelerator config in, host driver out."""

    def __init__(self, info: AcceleratorInfo, cpu: Optional[CPUInfo] = None,
                 flow_name: Optional[str] = None,
                 permutation: Optional[Sequence[str]] = None,
                 enable_cpu_tiling: bool = True,
                 specialized_copies: bool = True,
                 kernel_cache: Optional[KernelCache] = None,
                 use_kernel_cache: bool = True):
        self.info = info
        self.cpu = cpu or CPUInfo()
        self.flow_name = flow_name
        self.permutation = permutation if permutation is not None \
            else info.loop_permutation
        self.enable_cpu_tiling = enable_cpu_tiling
        self.specialized_copies = specialized_copies
        self.kernel_cache = kernel_cache if kernel_cache is not None \
            else (_GLOBAL_KERNEL_CACHE if use_kernel_cache else None)

    # -- generic entry ---------------------------------------------------
    def compile_module(self, module, func_name: Optional[str] = None,
                       parameters: Optional[dict] = None) -> CompiledKernel:
        """Compile a :class:`Module` or textual ``.mlir`` source.

        ``module`` may be an in-memory module or a string of textual IR
        (as printed by the IR printer / stored in ``tests/filecheck``
        fixtures).  ``func_name`` defaults to the module's first (and
        typically only) function.
        """
        start = time.perf_counter()
        try:
            if isinstance(module, str):
                module = parse_module(module, verify=True)
            if func_name is None:
                functions = module.functions()
                if not functions:
                    raise CompileError(
                        "module defines no func.func to compile"
                    )
                func_name = functions[0].get_attr("sym_name").value
            pipeline = build_axi4mlir_pipeline(
                self.info,
                cpu=self.cpu,
                flow_name=self.flow_name,
                permutation=self.permutation,
                enable_cpu_tiling=self.enable_cpu_tiling,
            )
            pipeline.run(module)
            func_op = module.lookup(func_name)
            emitted, schedule_table = emit_function(func_op)
            entry, source = compile_host_function(func_op, source=emitted)
            lower_pass = pipeline.passes[-1]
            plan = lower_pass.plans[0] \
                if getattr(lower_pass, "plans", None) else None
            return CompiledKernel(
                module=module,
                func_name=func_name,
                source=source,
                entry_point=entry,
                plan=plan,
                specialized_copies=self.specialized_copies,
                parameters=dict(parameters or {}),
                schedule_table=schedule_table,
            )
        finally:
            counters.add("stage_timings", "compile_s",
                         time.perf_counter() - start)

    def _cache_key(self, kernel_name: str, shape: Tuple) -> Tuple:
        permutation = tuple(self.permutation) \
            if self.permutation is not None else None
        return (
            accelerator_fingerprint(self.info),
            cpu_fingerprint(self.cpu),
            self.flow_name,
            permutation,
            self.enable_cpu_tiling,
            kernel_name,
            shape,
        )

    def _compile_cached(self, kernel_name: str, shape: Tuple,
                        build: Callable[[], CompiledKernel]
                        ) -> CompiledKernel:
        """Look up / populate the kernel cache for one named kernel.

        Cache hits rebind the shared lowered module and entry point to
        this compiler's runtime knobs; generated code never mutates its
        IR, so sharing is safe.
        """
        cache = self.kernel_cache
        if cache is None:
            return build()
        kernel = cache.get_or_compile(self._cache_key(kernel_name, shape),
                                      build)
        if kernel.specialized_copies == self.specialized_copies:
            return kernel
        return replace(kernel, specialized_copies=self.specialized_copies)

    # -- kernels -----------------------------------------------------------
    def compile_matmul(self, m: int, n: int, k: int) -> CompiledKernel:
        if self.info.kernel != "linalg.matmul":
            raise CompileError(
                f"accelerator {self.info.name!r} implements "
                f"{self.info.kernel!r}, not linalg.matmul"
            )

        def build() -> CompiledKernel:
            module = build_matmul_module(m, n, k, self.info.data_type)
            return self.compile_module(
                module, "matmul_call", {"m": m, "n": n, "k": k}
            )

        return self._compile_cached("matmul_call", (m, n, k), build)

    def compile_conv(self, batch: int, in_ch: int, in_hw: int, out_ch: int,
                     f_hw: int, stride: int = 1) -> CompiledKernel:
        if self.info.kernel != "linalg.conv_2d_nchw_fchw":
            raise CompileError(
                f"accelerator {self.info.name!r} implements "
                f"{self.info.kernel!r}, not linalg.conv_2d_nchw_fchw"
            )

        def build() -> CompiledKernel:
            module = build_conv_module(batch, in_ch, in_hw, out_ch, f_hw,
                                       stride, self.info.data_type)
            return self.compile_module(
                module, "conv_call",
                {"batch": batch, "in_ch": in_ch, "in_hw": in_hw,
                 "out_ch": out_ch, "f_hw": f_hw, "stride": stride},
            )

        return self._compile_cached(
            "conv_call", (batch, in_ch, in_hw, out_ch, f_hw, stride), build
        )


def element_type(name: str):
    """Re-export for callers building custom modules from dtype names."""
    return element_type_from_string(name)
