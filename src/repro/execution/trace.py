"""Driver trace recording: capture a kernel's static schedule once.

The generated host drivers are straight-line loop nests whose ``rt.*``
call sequence is fully determined by the loop bounds — data never
influences control flow.  :class:`TraceRecorder` exploits that: it is a
shadow of :class:`~repro.runtime.AxiRuntime` that executes the emitted
driver once against *shape-only* argument descriptors and records the
complete schedule of driver events (subview offsets, staged tile
geometries, opcode literals, flush/receive boundaries, loop-iteration
markers) into flat numpy side tables.  Subsequent invocations of the
same kernel replay that schedule through
:class:`~repro.execution.replay.ReplayExecutor` as batched numpy,
bit-identical to the per-tile path.

A second, accelerator-specific step (:func:`decode_for_accelerator`)
re-runs the staged word stream through a word-level model of the
accelerator's control unit — the same needs-based completion rule as
:meth:`StreamAccelerator.process_stream` — turning the flush segments
into instruction records: which staged tiles load which operand
buffers, which computes accumulate into which output pushes, and how
many accelerator cycles each flush schedules.

Anything the trace machinery does not understand raises
:class:`TraceUnsupported`; callers fall back to the per-tile path, so
tracing is always an optimization, never a semantics change.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import counters
from ..accelerators.base import StreamAccelerator
from ..accelerators.conv import CONV_LITERALS, CONV_OPS_PER_CYCLE, \
    ConvAccelerator
from ..accelerators.matmul import (
    MATMUL_LITERALS,
    MatMulAccelerator,
    VERSION_OPCODES,
    _MICRO_OPS,
)

#: Env kill-switch: set REPRO_NO_TRACE=1 to force per-tile execution.
TRACE_KILL_SWITCH = "REPRO_NO_TRACE"

#: On-disk DriverTrace schema version.  Folded into every kernel-store
#: payload next to the serialized trace: bump it whenever DriverTrace,
#: _TileClass, or DecodedPlan change shape so stale persisted traces
#: are evicted (the kernel entry itself still loads) instead of being
#: replayed with mismatched tables.  (v2: the staged-item stream became
#: four parallel numpy arrays instead of a list of tuples.)
TRACE_SCHEMA_VERSION = 2

#: Live views of the diagnostics registry's sections (the schema and
#: its comments live in :mod:`repro.counters`).
STAGE_TIMINGS = counters.SECTIONS["stage_timings"]
TRACE_COUNTERS = counters.SECTIONS["trace_sources"]


def trace_enabled() -> bool:
    return os.environ.get(TRACE_KILL_SWITCH, "") != "1"


class TraceUnsupported(RuntimeError):
    """The driver did something the trace compiler cannot replay."""


# -- event kinds (cost-stream entries, one per charge step) ---------------
K_LOOP = 0      #: rt.loop_iteration
K_SUB = 1       #: rt.subview_setup
K_CALL = 2      #: the per-call overhead charge of a library call
K_WORD = 3      #: stage_word (literal / dim / idx)
K_COPY = 4      #: charge_memref_copy (send or recv side)
K_FLUSH = 5     #: flush_send with a non-empty staged batch
K_RECV = 6      #: the synchronization part of recv_memref
K_INIT = 7      #: dma_init
K_RWAIT = 8     #: pre-receive wait_sends (a no-op for blocking runtimes)


class _ShadowRef:
    """Shape-only stand-in for a MemRefDescriptor during recording."""

    __slots__ = ("arg", "offset", "sizes", "strides", "itemsize")

    def __init__(self, arg: int, offset: int, sizes: Tuple[int, ...],
                 strides: Tuple[int, ...], itemsize: int):
        self.arg = arg
        self.offset = offset
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize

    def subview(self, offsets, sizes) -> "_ShadowRef":
        if len(offsets) != len(self.sizes) or len(sizes) != len(self.sizes):
            raise TraceUnsupported("subview rank mismatch")
        new_offset = self.offset
        for off, size, full, stride in zip(offsets, sizes, self.sizes,
                                           self.strides):
            if off < 0 or off + size > full:
                raise TraceUnsupported("subview out of bounds")
            new_offset += off * stride
        return _ShadowRef(self.arg, new_offset, tuple(sizes), self.strides,
                          self.itemsize)

    def num_bytes(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total * self.itemsize


class _TileClass:
    """All staged (or received) tiles sharing one geometry and operand."""

    __slots__ = ("arg", "sizes", "strides", "itemsize", "accumulate",
                 "starts", "region_offsets", "event_pos", "order")

    def __init__(self, arg, sizes, strides, itemsize, accumulate=None):
        self.arg = arg
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize
        self.accumulate = accumulate
        self.starts: List[int] = []        # element offsets in the arg
        self.region_offsets: List[int] = []  # byte offsets in the region
        self.event_pos: List[int] = []     # K_COPY positions in the stream
        self.order: List[int] = []         # global send/recv ordinal

    def num_elements(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total

    def finalize(self) -> None:
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.region_offsets = np.asarray(self.region_offsets, dtype=np.int64)
        self.event_pos = np.asarray(self.event_pos, dtype=np.int64)
        self.order = np.asarray(self.order, dtype=np.int64)


class DriverTrace:
    """The compiled, runtime-independent schedule of one kernel driver."""

    def __init__(self, arg_specs):
        #: (sizes, strides, itemsize, dtype-name) per function argument.
        self.arg_specs = arg_specs
        self.kinds: np.ndarray = None
        self.num_events = 0
        self.init_params: Optional[Tuple[int, int, int]] = None
        #: Set instead of init_params for preinitialized (manual-driver)
        #: traces: (input_size, output_size) of the live engine.
        self.region_sizes: Optional[Tuple[int, int]] = None
        # Per-class tile tables (send side, then recv side).
        self.send_classes: List[_TileClass] = []
        self.recv_classes: List[_TileClass] = []
        # Scalar staged words.
        self.word_pos: np.ndarray = None
        self.word_offsets: np.ndarray = None
        self.word_values: np.ndarray = None
        # Flush / recv synchronization tables.
        self.flush_pos: np.ndarray = None
        self.flush_bytes: np.ndarray = None
        self.recv_pos: np.ndarray = None
        self.recv_bytes: np.ndarray = None
        self.recv_sizes: List[Tuple[int, ...]] = []  # per recv ordinal
        #: Staged-item stream for the accelerator decoder, as four
        #: parallel arrays: ``staged_is_word`` (1 = scalar word, 0 =
        #: tile), ``staged_values`` (the word value, or the tile's class
        #: id), ``staged_indices`` (the tile's ordinal within its class,
        #: 0 for words), ``staged_widths`` (32-bit words per item).
        #: ``flush_item_counts`` holds the item count visible at each
        #: flush boundary.
        self.staged_is_word: np.ndarray = None
        self.staged_values: np.ndarray = None
        self.staged_indices: np.ndarray = None
        self.staged_widths: np.ndarray = None
        self.flush_item_counts: List[int] = []
        #: recv ordinal -> (class_id, index) for push matching.
        self.recv_refs: List[Tuple[int, int]] = []
        #: Decoded plans per accelerator signature (lazily built).
        self.decoded: Dict[Tuple, object] = {}
        #: Cached MetricsPlans per runtime-config/state fingerprint
        #: (see repro.execution.metrics).  Persisted *separately* from
        #: the trace in the kernel store — its own schema version — so
        #: it is excluded from the trace's pickle state below.
        self.metrics_plans: "OrderedDict" = OrderedDict()
        #: Whether the scatter of each recv class is round-safe (the
        #: flat index sets of distinct tile starts are disjoint).
        self.recv_disjoint: List[bool] = []

    @property
    def num_staged_items(self) -> int:
        return 0 if self.staged_is_word is None else self.staged_is_word.size

    def __getstate__(self):
        state = self.__dict__.copy()
        state["metrics_plans"] = None  # persisted under its own schema
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.metrics_plans = OrderedDict()


class TraceRecorder:
    """Shadow runtime: the same call surface, recording instead of doing.

    Returned offsets replicate :class:`AxiRuntime`'s offset arithmetic
    exactly, so the emitted driver's control/data flow is unchanged.
    """

    def __init__(self, arg_specs,
                 preinitialized: Optional[Tuple[int, int]] = None):
        """``preinitialized=(input_size, output_size)`` records a driver
        body whose ``dma_init`` already happened outside the recorded
        region (the hand-written baselines initialize the engine before
        allocating their memrefs); the resulting trace replays against
        the runtime's live engine instead of installing a fresh one.
        """
        self.arg_specs = arg_specs
        self.events: List[Tuple] = []
        self.preinitialized = preinitialized is not None
        self.initialized = self.preinitialized
        self.input_size = preinitialized[0] if preinitialized else 0
        self.output_size = preinitialized[1] if preinitialized else 0

    def make_args(self) -> List[_ShadowRef]:
        return [
            _ShadowRef(i, 0, tuple(sizes), tuple(strides), itemsize)
            for i, (sizes, strides, itemsize, _dtype)
            in enumerate(self.arg_specs)
        ]

    # -- recorded library calls ------------------------------------------
    def dma_init(self, dma_id, input_address, input_buffer_size,
                 output_address, output_buffer_size) -> None:
        if self.initialized:
            raise TraceUnsupported("dma_init called twice")
        self.initialized = True
        self.input_size = int(input_buffer_size)
        self.output_size = int(output_buffer_size)
        self.events.append(("init", int(dma_id), self.input_size,
                            self.output_size))

    def _word(self, value: int, offset: int) -> int:
        if offset % 4:
            raise TraceUnsupported("misaligned staged word")
        if offset + 4 > self.input_size:
            raise TraceUnsupported("staged word beyond input region")
        self.events.append(("word", int(value) & 0xFFFFFFFF, int(offset)))
        return offset + 4

    def send_literal(self, literal, offset):
        self._check_init()
        return self._word(literal, offset)

    def send_dim(self, desc, dim, offset):
        self._check_init()
        return self._word(desc.sizes[dim], offset)

    def send_idx(self, value, offset):
        self._check_init()
        return self._word(int(value), offset)

    def send_memref(self, desc, offset):
        self._check_init()
        if not isinstance(desc, _ShadowRef):
            raise TraceUnsupported("send of a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise TraceUnsupported("unstageable tile")
        num_bytes = desc.num_bytes()
        if offset + num_bytes > self.input_size:
            raise TraceUnsupported("staged tile beyond input region")
        self.events.append(("send", desc.arg, desc.offset, desc.sizes,
                            desc.strides, int(offset)))
        return offset + num_bytes

    def flush_send(self, offset):
        self._check_init()
        self.events.append(("flush", int(offset)))
        return 0

    def recv_memref(self, desc, offset, accumulate=False):
        self._check_init()
        if not isinstance(desc, _ShadowRef):
            raise TraceUnsupported("recv into a non-argument memref")
        if offset % 4 or desc.itemsize % 4:
            raise TraceUnsupported("unstageable receive tile")
        if offset + desc.num_bytes() > self.output_size:
            raise TraceUnsupported("receive beyond output region")
        self.events.append(("recv", desc.arg, desc.offset, desc.sizes,
                            desc.strides, int(offset), bool(accumulate)))

    def loop_iteration(self):
        self.events.append(("loop",))

    def subview_setup(self):
        self.events.append(("sub",))

    def _check_init(self) -> None:
        if not self.initialized:
            raise TraceUnsupported("library call before dma_init")

    # Anything else the driver might call on the runtime is unsupported:
    # attribute errors propagate and the caller falls back to per-tile.


def record_trace(entry_point, arg_specs,
                 expected_events: Optional[int] = None,
                 preinitialized: Optional[Tuple[int, int]] = None,
                 stage: str = "trace_record_s") -> DriverTrace:
    """Run ``entry_point`` once against the recorder; compile the events.

    ``expected_events`` (from the emitter's schedule side table) cross-
    checks that the recording expanded the whole static loop nest.
    ``stage`` names the STAGE_TIMINGS bucket charged (the hand-written
    baselines record under ``manual_record_s``).
    """
    start = time.perf_counter()
    try:
        recorder = TraceRecorder(arg_specs, preinitialized=preinitialized)
        entry_point(recorder, *recorder.make_args())
        if expected_events is not None \
                and len(recorder.events) != expected_events:
            raise TraceUnsupported(
                f"recorded {len(recorder.events)} events, schedule table "
                f"predicts {expected_events}"
            )
        trace = _compile_events(recorder, arg_specs)
    finally:
        counters.add("stage_timings", stage, time.perf_counter() - start)
    return trace


def _compile_events(recorder: TraceRecorder, arg_specs) -> DriverTrace:
    """Flatten recorded events into the cost stream + side tables."""
    trace = DriverTrace(arg_specs)
    kinds: List[int] = []
    send_lookup: Dict[Tuple, int] = {}
    recv_lookup: Dict[Tuple, int] = {}
    word_pos: List[int] = []
    word_offsets: List[int] = []
    word_values: List[int] = []
    flush_pos: List[int] = []
    flush_bytes: List[int] = []
    recv_pos: List[int] = []
    recv_bytes: List[int] = []
    send_ordinal = 0
    recv_ordinal = 0
    staged_w: List[int] = []     # 1 = word, 0 = tile
    staged_v: List[int] = []     # word value / tile class id
    staged_i: List[int] = []     # tile ordinal within its class
    staged_n: List[int] = []     # 32-bit words per item

    for event in recorder.events:
        tag = event[0]
        if tag == "loop":
            kinds.append(K_LOOP)
        elif tag == "sub":
            kinds.append(K_SUB)
        elif tag == "word":
            _, value, offset = event
            kinds.append(K_CALL)
            word_pos.append(len(kinds))
            word_offsets.append(offset)
            word_values.append(value)
            kinds.append(K_WORD)
            staged_w.append(1)
            staged_v.append(value)
            staged_i.append(0)
            staged_n.append(1)
        elif tag == "send":
            _, arg, start, sizes, strides, offset = event
            key = (arg, sizes, strides)
            class_id = send_lookup.get(key)
            if class_id is None:
                class_id = len(trace.send_classes)
                send_lookup[key] = class_id
                trace.send_classes.append(_TileClass(
                    arg, sizes, strides, arg_specs[arg][2]
                ))
            tile_class = trace.send_classes[class_id]
            index = len(tile_class.starts)
            kinds.append(K_CALL)
            tile_class.starts.append(start)
            tile_class.region_offsets.append(offset)
            tile_class.event_pos.append(len(kinds))
            tile_class.order.append(send_ordinal)
            send_ordinal += 1
            kinds.append(K_COPY)
            words = tile_class.num_elements() * tile_class.itemsize // 4
            staged_w.append(0)
            staged_v.append(class_id)
            staged_i.append(index)
            staged_n.append(words)
        elif tag == "flush":
            _, offset = event
            if offset == 0:
                continue  # a no-op in AxiRuntime: no cost, no boundary
            flush_pos.append(len(kinds))
            flush_bytes.append(offset)
            kinds.append(K_FLUSH)
            trace.flush_item_counts.append(len(staged_w))
        elif tag == "recv":
            _, arg, start, sizes, strides, offset, accumulate = event
            key = (arg, sizes, strides, accumulate)
            class_id = recv_lookup.get(key)
            if class_id is None:
                class_id = len(trace.recv_classes)
                recv_lookup[key] = class_id
                trace.recv_classes.append(_TileClass(
                    arg, sizes, strides, arg_specs[arg][2], accumulate
                ))
            tile_class = trace.recv_classes[class_id]
            index = len(tile_class.starts)
            kinds.append(K_RWAIT)
            kinds.append(K_CALL)
            recv_pos.append(len(kinds))
            recv_bytes.append(tile_class.num_elements()
                              * tile_class.itemsize)
            kinds.append(K_RECV)
            tile_class.starts.append(start)
            tile_class.region_offsets.append(offset)
            tile_class.event_pos.append(len(kinds))
            tile_class.order.append(recv_ordinal)
            trace.recv_refs.append((class_id, index))
            trace.recv_sizes.append(sizes)
            recv_ordinal += 1
            kinds.append(K_COPY)
        elif tag == "init":
            _, dma_id, in_size, out_size = event
            trace.init_params = (dma_id, in_size, out_size)
            kinds.append(K_INIT)
        else:  # pragma: no cover - recorder only emits the tags above
            raise TraceUnsupported(f"unknown event {tag!r}")

    if trace.init_params is None and not recorder.preinitialized:
        raise TraceUnsupported("driver never initialized the DMA engine")
    if trace.init_params is None:
        # Preinitialized body: the replay reuses the runtime's live
        # engine, but the staged-size bounds were still enforced above.
        trace.region_sizes = (recorder.input_size, recorder.output_size)
    # Read-after-write hazard: the replay gathers all staged tile data
    # up front, so a driver that re-sends data it received earlier in
    # the same run (an argument acting as both accelerator input and
    # output, receive before send) cannot be replayed from a snapshot.
    first_recv: Dict[int, int] = {}
    for tile_class in trace.recv_classes:
        if tile_class.event_pos:
            pos = min(tile_class.event_pos)
            arg = tile_class.arg
            first_recv[arg] = min(first_recv.get(arg, pos), pos)
    for tile_class in trace.send_classes:
        if tile_class.event_pos and tile_class.arg in first_recv \
                and max(tile_class.event_pos) > first_recv[tile_class.arg]:
            raise TraceUnsupported(
                "argument is sent after being received (read-after-write)"
            )
    trace.kinds = np.asarray(kinds, dtype=np.int8)
    trace.num_events = len(kinds)
    trace.staged_is_word = np.asarray(staged_w, dtype=np.uint8)
    trace.staged_values = np.asarray(staged_v, dtype=np.int64)
    trace.staged_indices = np.asarray(staged_i, dtype=np.int64)
    trace.staged_widths = np.asarray(staged_n, dtype=np.int64)
    trace.word_pos = np.asarray(word_pos, dtype=np.int64)
    trace.word_offsets = np.asarray(word_offsets, dtype=np.int64)
    trace.word_values = np.asarray(word_values, dtype=np.int64)
    trace.flush_pos = np.asarray(flush_pos, dtype=np.int64)
    trace.flush_bytes = np.asarray(flush_bytes, dtype=np.int64)
    trace.recv_pos = np.asarray(recv_pos, dtype=np.int64)
    trace.recv_bytes = np.asarray(recv_bytes, dtype=np.int64)
    for tile_class in trace.send_classes + trace.recv_classes:
        tile_class.finalize()
    trace.recv_disjoint = [
        _scatter_is_disjoint(tile_class) for tile_class in trace.recv_classes
    ]
    return trace


def _scatter_is_disjoint(tile_class: _TileClass) -> bool:
    """True when distinct tile starts address disjoint element sets.

    Receives whose tiles overlap across *different* subview offsets
    cannot be scattered in vectorized rounds; the replay executor falls
    back to a sequential per-tile scatter for those classes.
    """
    starts = np.unique(tile_class.starts)
    if starts.size <= 1:
        return True
    if starts.size * tile_class.num_elements() > (1 << 24):
        return False  # don't spend memory proving it; stay sequential
    indices = _tile_indices(starts, tile_class.sizes,
                            tile_class.strides).reshape(-1)
    # Bitset membership beats a sort-based unique: one linear pass over
    # a bool array bounded by the touched index range.  Sparse tiles in
    # a huge argument would make that range-sized array explode, so
    # those fall back to the sort (the count guard above only bounds
    # the index COUNT, not the range).
    base = int(indices.min())
    span = int(indices.max()) - base + 1
    if span > (1 << 26):
        return np.unique(indices).size == indices.size
    seen = np.zeros(span, dtype=bool)
    seen[indices - base] = True
    return int(np.count_nonzero(seen)) == indices.size


def _tile_indices(starts: np.ndarray, sizes, strides) -> np.ndarray:
    """Flat element indices of each tile: shape (T, *sizes)."""
    rank = len(sizes)
    idx = starts.reshape((-1,) + (1,) * rank)
    for axis, (size, stride) in enumerate(zip(sizes, strides)):
        shape = [1] * (rank + 1)
        shape[axis + 1] = size
        idx = idx + (np.arange(size, dtype=np.int64) * stride).reshape(shape)
    return idx


# -- accelerator decoding ---------------------------------------------------

class DecodedPlan:
    """Instruction-level view of one trace for one accelerator config."""

    def __init__(self):
        #: "matmul" pushes the *sum* of its pending tile products;
        #: "conv" pushes the *stack* of its pending window dot-products.
        self.kind = "matmul"
        #: Accelerator cycles scheduled at each flush (ordered float
        #: sums, replicating ``process_stream``'s accumulation), and the
        #: number of instructions retired per flush.
        self.flush_cycles: List[float] = []
        self.flush_instructions: List[int] = []
        # Compute records (matmul: tile product; conv: window dot).
        self.compute_a: List[int] = []      # packed (class, idx) or -1
        self.compute_b: List[int] = []
        self.compute_geom: List[Tuple[int, int, int]] = []
        self.compute_push: List[int] = []   # push ordinal, -1 = dropped
        self.push_counts: List[int] = []
        self.push_flush: List[int] = []
        # Final accelerator state.
        self.final_config: Tuple = ()
        self.final_a: int = -1
        self.final_b: int = -1
        self.out_words_per_push: List[int] = []

    @staticmethod
    def pack(class_id: int, index: int) -> int:
        return (class_id << 40) | index


def decode_key(accelerator: StreamAccelerator) -> Tuple:
    """The accelerator-configuration key a decoded plan is cached under.

    Also folded into MetricsPlan fingerprints: the decoded plan's
    accelerator cycle charges are part of the metrics plane.
    """
    if type(accelerator) is MatMulAccelerator:
        return ("matmul", accelerator.size, accelerator.version,
                str(accelerator.dtype))
    if type(accelerator) is ConvAccelerator:
        return ("conv", accelerator.max_ic, accelerator.max_fhw,
                accelerator.max_slice, str(accelerator.dtype))
    raise TraceUnsupported(
        f"no trace decoder for {type(accelerator).__name__}"
    )


def decode_for_accelerator(trace: DriverTrace,
                           accelerator: StreamAccelerator) -> DecodedPlan:
    """Build (or fetch) the instruction plan for one accelerator config."""
    key = decode_key(accelerator)
    if key not in trace.decoded:
        if key[0] == "matmul":
            trace.decoded[key] = _decode_matmul(trace, accelerator)
        else:
            trace.decoded[key] = _decode_conv(trace, accelerator)
    plan = trace.decoded[key]
    if isinstance(plan, TraceUnsupported):
        raise plan
    return plan


class _ItemQueue:
    """The staged-word stream as the accelerator's state machine sees it.

    The trace's staged-item arrays are unpacked once into parallel
    lists plus a word prefix sum, so the decoders' per-item steps are
    plain list reads — ``available_words`` is ``cum[limit] - cum[head]``,
    no incremental bookkeeping — which matters because the fallback
    decoders are per-item Python loops over streams that reach hundreds
    of thousands of items.  (The common case never builds one: the C
    decoders in :mod:`repro.soc._native` read the arrays directly.)
    """

    __slots__ = ("n", "is_word", "values", "indices", "widths", "cum",
                 "head", "limit", "visible")

    def __init__(self, trace: "DriverTrace"):
        self.n = trace.num_staged_items
        self.is_word = [bool(w) for w in trace.staged_is_word.tolist()]
        #: word value for word items, class id for tile items.
        self.values = trace.staged_values.tolist()
        self.indices = trace.staged_indices.tolist()
        self.widths = trace.staged_widths.tolist()
        self.cum = [0] + np.cumsum(trace.staged_widths).tolist()
        self.head = 0
        self.limit = 0          # items visible so far (flush boundary)
        self.visible = 0        # words visible so far

    def reveal(self, limit: int) -> None:
        self.limit = limit
        self.visible = self.cum[limit]

    @property
    def available_words(self) -> int:
        return self.visible - self.cum[self.head]

    def peek_opcode(self) -> Optional[int]:
        if self.head >= self.limit:
            return None
        if not self.is_word[self.head]:
            raise TraceUnsupported("tile data where an opcode was expected")
        return self.values[self.head]

    def pop_opcode(self) -> None:
        self.head += 1

    def pop_words(self, count: int) -> List[int]:
        values = []
        while len(values) < count:
            if self.head >= self.limit:
                raise TraceUnsupported("instruction data missing")
            if not self.is_word[self.head]:
                raise TraceUnsupported("tile data where words were expected")
            values.append(self.values[self.head])
            self.head += 1
        return values

    def pop_tile(self, words: int) -> Tuple[int, int]:
        head = self.head
        if head >= self.limit:
            raise TraceUnsupported("instruction tile missing")
        if self.is_word[head] or self.widths[head] != words:
            raise TraceUnsupported("staged data does not match tile shape")
        self.head = head + 1
        return self.values[head], self.indices[head]


def _stream_arrays(trace: DriverTrace):
    """Contiguous stream arrays + word prefix sum for the C decoders."""
    is_word = np.ascontiguousarray(trace.staged_is_word)
    values = np.ascontiguousarray(trace.staged_values)
    indices = np.ascontiguousarray(trace.staged_indices)
    cum = np.zeros(trace.num_staged_items + 1, dtype=np.int64)
    np.cumsum(trace.staged_widths, out=cum[1:])
    limits = np.ascontiguousarray(
        np.asarray(trace.flush_item_counts, dtype=np.int64)
    )
    return is_word, values, indices, cum, limits


_MICRO_CODES = {"load_a": 0, "load_b": 1, "compute": 2, "push_c": 3,
                "configure": 4, "reset": 5}


def _native_decode_matmul(trace: DriverTrace,
                          accel: MatMulAccelerator) -> Optional[DecodedPlan]:
    """C fast path for the matmul stream decoder (None = use Python)."""
    from ..soc import _native  # late bind: tests patch native_lib

    lib = _native.native_lib()
    if lib is None:
        return None
    import ctypes

    is_word, values, indices, cum, limits = _stream_arrays(trace)
    names = VERSION_OPCODES[accel.version]
    literals = np.asarray([MATMUL_LITERALS[n] for n in names],
                          dtype=np.int64)
    progs = [[_MICRO_CODES[p] for p in _MICRO_OPS[n]] for n in names]
    prog_off = np.zeros(len(progs) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in progs], out=prog_off[1:])
    prog = np.asarray([c for p in progs for c in p], dtype=np.int64)

    n_items = trace.num_staged_items
    cap = max(n_items, 1)
    comp_a = np.empty(cap, dtype=np.int64)
    comp_b = np.empty(cap, dtype=np.int64)
    comp_m = np.empty(cap, dtype=np.int64)
    comp_n = np.empty(cap, dtype=np.int64)
    comp_k = np.empty(cap, dtype=np.int64)
    comp_push = np.empty(cap, dtype=np.int64)
    push_counts = np.empty(cap, dtype=np.int64)
    push_flush = np.empty(cap, dtype=np.int64)
    out_words = np.empty(cap, dtype=np.int64)
    flush_cycles = np.zeros(limits.size, dtype=np.float64)
    flush_instr = np.zeros(limits.size, dtype=np.int64)
    final_state = np.zeros(5, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)

    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    f64p = ctypes.POINTER(ctypes.c_double)
    error = lib.decode_matmul_stream(
        is_word.ctypes.data_as(u8p), values.ctypes.data_as(i64p),
        indices.ctypes.data_as(i64p), cum.ctypes.data_as(i64p), n_items,
        limits.ctypes.data_as(i64p), limits.size,
        literals.ctypes.data_as(i64p), prog_off.ctypes.data_as(i64p),
        prog.ctypes.data_as(i64p), literals.size,
        accel.size_quantum, accel.buffer_capacity,
        float(accel.ops_per_cycle), accel.size,
        comp_a.ctypes.data_as(i64p), comp_b.ctypes.data_as(i64p),
        comp_m.ctypes.data_as(i64p), comp_n.ctypes.data_as(i64p),
        comp_k.ctypes.data_as(i64p), comp_push.ctypes.data_as(i64p),
        push_counts.ctypes.data_as(i64p), push_flush.ctypes.data_as(i64p),
        out_words.ctypes.data_as(i64p),
        flush_cycles.ctypes.data_as(f64p), flush_instr.ctypes.data_as(i64p),
        final_state.ctypes.data_as(i64p), counts.ctypes.data_as(i64p),
    )
    if error:
        return None
    n_comp, n_push = int(counts[0]), int(counts[1])
    plan = DecodedPlan()
    plan.flush_cycles = flush_cycles
    plan.flush_instructions = flush_instr
    plan.compute_a = comp_a[:n_comp].copy()
    plan.compute_b = comp_b[:n_comp].copy()
    plan.compute_geom = np.stack(
        [comp_m[:n_comp], comp_n[:n_comp], comp_k[:n_comp]], axis=1
    ) if n_comp else np.zeros((0, 3), dtype=np.int64)
    plan.compute_push = comp_push[:n_comp].copy()
    plan.push_counts = push_counts[:n_push].copy()
    plan.push_flush = push_flush[:n_push].copy()
    plan.out_words_per_push = out_words[:n_push].copy()
    plan.final_config = (int(final_state[0]), int(final_state[1]),
                         int(final_state[2]))
    plan.final_a = int(final_state[3])
    plan.final_b = int(final_state[4])
    _match_pushes_to_recvs(trace, plan)
    return plan


def _native_decode_conv(trace: DriverTrace,
                        accel: ConvAccelerator) -> Optional[DecodedPlan]:
    """C fast path for the conv stream decoder (None = use Python)."""
    from ..soc import _native

    lib = _native.native_lib()
    if lib is None:
        return None
    import ctypes

    is_word, values, indices, cum, limits = _stream_arrays(trace)
    n_items = trace.num_staged_items
    cap = max(n_items, 1)
    comp_a = np.empty(cap, dtype=np.int64)
    comp_b = np.empty(cap, dtype=np.int64)
    comp_k = np.empty(cap, dtype=np.int64)
    comp_push = np.empty(cap, dtype=np.int64)
    push_counts = np.empty(cap, dtype=np.int64)
    push_flush = np.empty(cap, dtype=np.int64)
    out_words = np.empty(cap, dtype=np.int64)
    flush_cycles = np.zeros(limits.size, dtype=np.float64)
    flush_instr = np.zeros(limits.size, dtype=np.int64)
    final_state = np.zeros(3, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)

    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    f64p = ctypes.POINTER(ctypes.c_double)
    error = lib.decode_conv_stream(
        is_word.ctypes.data_as(u8p), values.ctypes.data_as(i64p),
        indices.ctypes.data_as(i64p), cum.ctypes.data_as(i64p), n_items,
        limits.ctypes.data_as(i64p), limits.size,
        CONV_LITERALS["sIcO"], CONV_LITERALS["sF"], CONV_LITERALS["rO"],
        CONV_LITERALS["cfg_fsize"], CONV_LITERALS["cfg_ic"],
        accel.max_ic, accel.max_fhw, accel.max_slice,
        float(CONV_OPS_PER_CYCLE),
        comp_a.ctypes.data_as(i64p), comp_b.ctypes.data_as(i64p),
        comp_k.ctypes.data_as(i64p), comp_push.ctypes.data_as(i64p),
        push_counts.ctypes.data_as(i64p), push_flush.ctypes.data_as(i64p),
        out_words.ctypes.data_as(i64p),
        flush_cycles.ctypes.data_as(f64p), flush_instr.ctypes.data_as(i64p),
        final_state.ctypes.data_as(i64p), counts.ctypes.data_as(i64p),
    )
    if error:
        return None
    n_comp, n_push = int(counts[0]), int(counts[1])
    plan = DecodedPlan()
    plan.kind = "conv"
    plan.flush_cycles = flush_cycles
    plan.flush_instructions = flush_instr
    plan.compute_a = comp_a[:n_comp].copy()
    plan.compute_b = comp_b[:n_comp].copy()
    geom = np.ones((n_comp, 3), dtype=np.int64)
    geom[:, 2] = comp_k[:n_comp]
    plan.compute_geom = geom
    plan.compute_push = comp_push[:n_comp].copy()
    plan.push_counts = push_counts[:n_push].copy()
    plan.push_flush = push_flush[:n_push].copy()
    plan.out_words_per_push = out_words[:n_push].copy()
    plan.final_config = (int(final_state[0]), int(final_state[1]))
    plan.final_b = int(final_state[2])
    _match_pushes_to_recvs(trace, plan)
    return plan


def _decode_matmul(trace: DriverTrace,
                   accel: MatMulAccelerator) -> DecodedPlan:
    try:
        plan = _native_decode_matmul(trace, accel)
        if plan is not None:
            return plan
        return _decode_matmul_inner(trace, accel)
    except TraceUnsupported as exc:
        return exc


def _decode_matmul_inner(trace: DriverTrace,
                         accel: MatMulAccelerator) -> DecodedPlan:
    plan = DecodedPlan()
    literal_to_name = {
        MATMUL_LITERALS[name]: name for name in VERSION_OPCODES[accel.version]
    }
    tile_m = tile_n = tile_k = accel.size
    quantum = accel.size_quantum
    capacity = accel.buffer_capacity
    ops_per_cycle = accel.ops_per_cycle
    a_src = b_src = -1
    pending: List[int] = []     # compute ordinals since last push/reset
    queue = _ItemQueue(trace)

    def refresh_needs() -> Dict[int, int]:
        needs: Dict[int, int] = {}
        for literal, name in literal_to_name.items():
            total = 0
            for primitive in _MICRO_OPS[name]:
                if primitive == "load_a":
                    total += tile_m * tile_k
                elif primitive == "load_b":
                    total += tile_k * tile_n
                elif primitive == "configure":
                    total += 3
            needs[literal] = total
        return needs

    needs_map = refresh_needs()

    for flush_index, item_limit in enumerate(trace.flush_item_counts):
        queue.reveal(item_limit)
        cycles = 0.0
        instructions = 0
        while True:
            literal = queue.peek_opcode()
            if literal is None:
                break
            name = literal_to_name.get(literal)
            if name is None:
                raise TraceUnsupported(f"unknown opcode {literal:#x}")
            if queue.available_words - 1 < needs_map[literal]:
                break  # partial instruction waits for the next burst
            queue.pop_opcode()
            opcode_cycles = 0.0
            for primitive in _MICRO_OPS[name]:
                if primitive == "load_a":
                    class_id, index = queue.pop_tile(tile_m * tile_k)
                    a_src = DecodedPlan.pack(class_id, index)
                    opcode_cycles += 0.0
                elif primitive == "load_b":
                    class_id, index = queue.pop_tile(tile_k * tile_n)
                    b_src = DecodedPlan.pack(class_id, index)
                    opcode_cycles += 0.0
                elif primitive == "compute":
                    macs = tile_m * tile_n * tile_k
                    pending.append(len(plan.compute_a))
                    plan.compute_a.append(a_src)
                    plan.compute_b.append(b_src)
                    plan.compute_geom.append((tile_m, tile_n, tile_k))
                    plan.compute_push.append(-1)
                    opcode_cycles += 2.0 * macs / ops_per_cycle
                elif primitive == "push_c":
                    push = len(plan.push_counts)
                    for ordinal in pending:
                        plan.compute_push[ordinal] = push
                    plan.push_counts.append(len(pending))
                    plan.push_flush.append(flush_index)
                    plan.out_words_per_push.append(tile_m * tile_n)
                    pending = []
                    opcode_cycles += 0.0
                elif primitive == "configure":
                    tile_m, tile_n, tile_k = queue.pop_words(3)
                    for value in (tile_m, tile_n, tile_k):
                        if value <= 0 or value % quantum:
                            raise TraceUnsupported("invalid cfg tile size")
                    for elements in (tile_m * tile_k, tile_k * tile_n,
                                     tile_m * tile_n):
                        if elements > capacity:
                            raise TraceUnsupported("cfg exceeds capacity")
                    a_src = b_src = -1
                    pending = []
                    needs_map = refresh_needs()
                    opcode_cycles += 0.0
                elif primitive == "reset":
                    a_src = b_src = -1
                    pending = []
                    opcode_cycles += 0.0
            cycles += opcode_cycles
            instructions += 1
        plan.flush_cycles.append(cycles)
        plan.flush_instructions.append(instructions)

    if queue.head != trace.num_staged_items:
        raise TraceUnsupported("staged data left unconsumed in the stream")
    if pending:
        raise TraceUnsupported("computes left unreceived at driver exit")
    _match_pushes_to_recvs(trace, plan)
    plan.final_config = (tile_m, tile_n, tile_k)
    plan.final_a = a_src
    plan.final_b = b_src
    return plan


def _decode_conv(trace: DriverTrace, accel: ConvAccelerator) -> DecodedPlan:
    try:
        plan = _native_decode_conv(trace, accel)
        if plan is not None:
            return plan
        return _decode_conv_inner(trace, accel)
    except TraceUnsupported as exc:
        return exc


def _decode_conv_inner(trace: DriverTrace,
                       accel: ConvAccelerator) -> DecodedPlan:
    plan = DecodedPlan()
    plan.kind = "conv"
    # Decoding assumes the constructor-default configuration; the replay
    # executor validates the live instance against it on every run.
    ic, fhw = 1, 1
    filter_src = -1
    filter_words = 1  # the reset-state filter is a single zero element
    pending: List[int] = []
    queue = _ItemQueue(trace)
    lit_sico = CONV_LITERALS["sIcO"]
    lit_sf = CONV_LITERALS["sF"]
    lit_ro = CONV_LITERALS["rO"]
    lit_fsize = CONV_LITERALS["cfg_fsize"]
    lit_ic = CONV_LITERALS["cfg_ic"]

    for flush_index, item_limit in enumerate(trace.flush_item_counts):
        queue.reveal(item_limit)
        cycles = 0.0
        instructions = 0
        while True:
            literal = queue.peek_opcode()
            if literal is None:
                break
            window = ic * fhw * fhw
            needs = {lit_sico: window, lit_sf: window, lit_ro: 0,
                     lit_fsize: 1, lit_ic: 1}.get(literal)
            if needs is None:
                raise TraceUnsupported(f"unknown opcode {literal:#x}")
            if queue.available_words - 1 < needs:
                break
            queue.pop_opcode()
            if literal == lit_fsize:
                value = queue.pop_words(1)[0]
                if not 1 <= value <= accel.max_fhw:
                    raise TraceUnsupported("filter size out of range")
                fhw = value
            elif literal == lit_ic:
                value = queue.pop_words(1)[0]
                if not 1 <= value <= accel.max_ic:
                    raise TraceUnsupported("iC out of range")
                ic = value
            elif literal == lit_sf:
                class_id, index = queue.pop_tile(window)
                filter_src = DecodedPlan.pack(class_id, index)
                filter_words = window
                pending = []
            elif literal == lit_sico:
                if len(pending) >= accel.max_slice:
                    raise TraceUnsupported("output slice buffer overflow")
                if filter_words != window:
                    raise TraceUnsupported("window/filter geometry mismatch")
                class_id, index = queue.pop_tile(window)
                pending.append(len(plan.compute_a))
                plan.compute_a.append(DecodedPlan.pack(class_id, index))
                plan.compute_b.append(filter_src)
                plan.compute_geom.append((1, 1, window))
                plan.compute_push.append(-1)
                cycles += 2.0 * window / CONV_OPS_PER_CYCLE
            elif literal == lit_ro:
                if not pending:
                    raise TraceUnsupported("rO with an empty slice buffer")
                push = len(plan.push_counts)
                for ordinal in pending:
                    plan.compute_push[ordinal] = push
                plan.push_counts.append(len(pending))
                plan.push_flush.append(flush_index)
                plan.out_words_per_push.append(len(pending))
                pending = []
            instructions += 1
        plan.flush_cycles.append(cycles)
        plan.flush_instructions.append(instructions)

    if queue.head != trace.num_staged_items:
        raise TraceUnsupported("staged data left unconsumed in the stream")
    if pending:
        raise TraceUnsupported("windows left unreceived at driver exit")
    _match_pushes_to_recvs(trace, plan)
    plan.final_config = (ic, fhw)
    plan.final_b = filter_src
    return plan


def _match_pushes_to_recvs(trace: DriverTrace, plan: DecodedPlan) -> None:
    """Receives pop pushed outputs in FIFO order; sizes must line up."""
    n = len(trace.recv_refs)
    if len(plan.out_words_per_push) != n:
        raise TraceUnsupported("push/receive count mismatch")
    if n == 0:
        return
    class_ids = np.fromiter((c for c, _ in trace.recv_refs),
                            dtype=np.int64, count=n)
    class_words = np.asarray(
        [tc.num_elements() * tc.itemsize // 4
         for tc in trace.recv_classes], dtype=np.int64,
    )
    out_words = np.asarray(plan.out_words_per_push, dtype=np.int64)
    if (out_words != class_words[class_ids]).any():
        raise TraceUnsupported("push/receive size mismatch")
    # FIFO discipline: each push must precede its receive in time.
    push_flush = np.asarray(plan.push_flush, dtype=np.int64)
    if (trace.flush_pos[push_flush] > trace.recv_pos).any():
        raise TraceUnsupported("receive precedes its pushed output")
