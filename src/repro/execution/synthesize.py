"""Ahead-of-time trace synthesis: schedule side table → DriverTrace.

:func:`~repro.execution.trace.record_trace` discovers a kernel's
schedule by *executing* the emitted driver once against a shadow
runtime — one Python call per event, millions of events for the large
benchmark kernels.  But the driver is a fully static loop nest: every
event, operand offset, and staged byte is a pure function of the loop
bounds the emitter already wrote into its schedule side table.  This
module exploits that: :func:`synthesize_trace` expands the side table
directly into the exact :class:`DriverTrace` the recorder would have
built — same event stream, same tile classes, same side tables, same
scatter-disjointness flags — using vectorized numpy affine-index
arithmetic over the whole iteration space instead of a per-tile shadow
run.

The synthesizer is an abstract interpreter over the side table.  Every
SSA value in the emitted driver is represented either as a Python
scalar (loop-invariant) or as an int64 ndarray over the enclosing
iteration space: loop induction variables are ``lower + step*arange``
placed on their own broadcast axis, ``arith`` entries combine them
elementwise, and subview offsets become affine index arrays.  Event
*positions* in the flattened stream form the same lattice — a constant
prefix plus ``iv_index * body_len`` per enclosing loop — so every
global table is assembled with array sorts and scatters.

Anything the synthesizer cannot prove — data-dependent loop trip
counts, non-affine values, structurally divergent flushes, schedules
from an older emitter — raises :class:`SynthesisUnsupported` and the
caller falls back to the recording path, so synthesis is always an
optimization, never a semantics change.  ``REPRO_TRACE_CHECK=1``
additionally records every synthesized kernel and diffs the two traces
table-by-table (:func:`diff_traces`), failing loudly on any mismatch.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import counters, faults
from .trace import (
    DriverTrace,
    K_CALL,
    K_COPY,
    K_FLUSH,
    K_INIT,
    K_LOOP,
    K_RECV,
    K_RWAIT,
    K_SUB,
    K_WORD,
    TraceUnsupported,
    _TileClass,
    _scatter_is_disjoint,
)

#: Env kill-switch: set REPRO_NO_SYNTH=1 to force recording-based
#: tracing (REPRO_NO_TRACE=1 disables tracing altogether).
SYNTH_KILL_SWITCH = "REPRO_NO_SYNTH"

#: Env debug switch: set REPRO_TRACE_CHECK=1 to record every
#: synthesized kernel as well and fail loudly if the traces differ.
CROSS_CHECK_SWITCH = "REPRO_TRACE_CHECK"

#: Schedules expanding past this many events fall back to recording
#: rather than materializing multi-GB position tables.
_MAX_EVENTS = 1 << 26


def synthesis_enabled() -> bool:
    return os.environ.get(SYNTH_KILL_SWITCH, "") != "1"


def cross_check_requested() -> bool:
    return os.environ.get(CROSS_CHECK_SWITCH, "") == "1"


class SynthesisUnsupported(TraceUnsupported):
    """The schedule contains a construct synthesis cannot prove."""


class TraceMismatch(RuntimeError):
    """Synthesized and recorded traces disagree (cross-check mode)."""


class _Ref:
    """Shape-only memref value: the synthesizer's _ShadowRef analogue.

    ``offset`` is a scalar or an int64 ndarray over the enclosing
    iteration space (one element offset per loop iteration).
    """

    __slots__ = ("arg", "offset", "sizes", "strides", "itemsize")

    def __init__(self, arg, offset, sizes, strides, itemsize):
        self.arg = arg
        self.offset = offset
        self.sizes = sizes
        self.strides = strides
        self.itemsize = itemsize

    def num_elements(self) -> int:
        total = 1
        for size in self.sizes:
            total *= size
        return total


class _Frame:
    """One active loop: its broadcast axis, trip count, and body length."""

    __slots__ = ("axis", "trips", "rank", "body_len")

    def __init__(self, axis: int, trips: int, rank: int):
        self.axis = axis
        self.trips = trips
        self.rank = rank
        self.body_len = 0  # events per iteration, filled after the body

    def index_array(self) -> np.ndarray:
        shape = [1] * self.rank
        shape[self.axis] = self.trips
        return np.arange(self.trips, dtype=np.int64).reshape(shape)


class _Site:
    """One call statement: its event template and per-iteration values."""

    __slots__ = ("op", "template", "prefix", "chain", "payload", "pos")

    def __init__(self, op, template, prefix, chain, payload):
        self.op = op
        self.template = template
        self.prefix = prefix        # constant part of the event position
        self.chain = chain          # enclosing _Frame tuple
        self.payload = payload      # op-specific values (scalar or array)
        self.pos = None             # global event positions, filled late


_WORD_OPS = ("send_literal", "send_dim", "send_idx")
_MISSING = object()


def _nest_depth(body: list) -> int:
    depth = 0
    for entry in body:
        if entry.get("op") == "for":
            depth = max(depth, 1 + _nest_depth(entry.get("body", ())))
    return depth


class _Synthesizer:
    def __init__(self, table: dict, arg_specs):
        self.table = table
        self.arg_specs = arg_specs
        self.rank = _nest_depth(table.get("body", ()))
        self.env: Dict[str, object] = {}
        self.sites: List[_Site] = []
        self.initialized = False
        self.input_size = 0
        self.output_size = 0
        self.init_params: Optional[Tuple[int, int, int]] = None
        constants = table.get("constants")
        args = table.get("args")
        if constants is None or args is None:
            raise SynthesisUnsupported("schedule table lacks operand info")
        self.env.update(constants)
        if len(args) != len(arg_specs):
            raise SynthesisUnsupported("argument arity mismatch")
        for i, name in enumerate(args):
            sizes, strides, itemsize, _dtype = arg_specs[i]
            self.env[name] = _Ref(i, 0, tuple(sizes), tuple(strides),
                                  int(itemsize))

    # -- value plumbing ---------------------------------------------------
    def _value(self, name):
        value = self.env.get(name, _MISSING)
        if value is _MISSING:
            raise SynthesisUnsupported(f"undefined value {name!r}")
        if isinstance(value, _Ref):
            raise SynthesisUnsupported(f"memref {name!r} used as a scalar")
        return value

    def _ref(self, name) -> _Ref:
        value = self.env.get(name, _MISSING)
        if not isinstance(value, _Ref):
            raise SynthesisUnsupported(f"{name!r} is not a memref value")
        return value

    def _scalar(self, name) -> int:
        value = self._value(name)
        if isinstance(value, np.ndarray):
            raise SynthesisUnsupported(f"{name!r} varies across iterations")
        if not isinstance(value, (int, np.integer)):
            raise SynthesisUnsupported(f"{name!r} is not an integer")
        return int(value)

    def _flat(self, value, chain) -> np.ndarray:
        """Materialize one value over a site's full iteration space."""
        shape = tuple(f.trips for f in chain) \
            + (1,) * (self.rank - len(chain))
        arr = np.broadcast_to(np.asarray(value, dtype=np.int64), shape)
        return arr.ravel()

    # -- schedule walk ----------------------------------------------------
    def _walk(self, body: list, chain: Tuple[_Frame, ...],
              base: int) -> int:
        """Evaluate one body; returns its event count per iteration."""
        local = 0
        for entry in body:
            op = entry.get("op")
            if op == "for":
                local += self._walk_for(entry, chain, base + local)
            elif op == "arith":
                self._do_arith(entry)
            elif op == "subview":
                self._do_subview(entry)
            elif op == "dim":
                self._do_dim(entry)
            elif op == "loop_iteration":
                local += self._site(op, (K_LOOP,), chain, base + local, {})
            elif op == "subview_setup":
                local += self._site(op, (K_SUB,), chain, base + local, {})
            elif op == "dma_init":
                local += self._do_init(entry, chain, base + local)
            elif op in _WORD_OPS:
                local += self._do_word(entry, chain, base + local)
            elif op == "send_memref":
                local += self._do_send(entry, chain, base + local)
            elif op == "flush_send":
                local += self._do_flush(entry, chain, base + local)
            elif op == "recv_memref":
                local += self._do_recv(entry, chain, base + local)
            else:
                raise SynthesisUnsupported(f"unknown schedule op {op!r}")
        return local

    def _site(self, op, template, chain, prefix, payload) -> int:
        self.sites.append(_Site(op, template, prefix, chain, payload))
        return len(template)

    def _walk_for(self, entry, chain, base) -> int:
        names = entry.get("args")
        if not names or len(names) != 3:
            raise SynthesisUnsupported("loop bounds missing from schedule")
        lower = self._value(names[0])
        upper = self._value(names[1])
        step = self._value(names[2])
        trips = self._trip_count(lower, upper, step)
        if trips == 0:
            return 0
        # Bound the iteration space *before* materializing any array
        # over it (every loop body records at least its loop_iteration
        # event, so cells is a lower bound on total events): schedules
        # past the cap fall back to recording instead of allocating
        # multi-GB value tables during the walk.
        cells = trips
        for frame in chain:
            cells *= frame.trips
        if cells > _MAX_EVENTS:
            raise SynthesisUnsupported("schedule expansion too large")
        if isinstance(step, np.ndarray):  # uniform, proven by _trip_count
            step = step.reshape(-1)[0]
        frame = _Frame(len(chain), trips, self.rank)
        self.env[entry["iv"]] = lower + int(step) * frame.index_array()
        frame.body_len = self._walk(entry.get("body", ()),
                                    chain + (frame,), base)
        return trips * frame.body_len

    def _trip_count(self, lower, upper, step) -> int:
        if isinstance(step, np.ndarray):
            if step.size == 0 or (step != step.reshape(-1)[0]).any():
                raise SynthesisUnsupported("loop step varies")
            step = step.reshape(-1)[0]
        if not isinstance(step, (int, np.integer)):
            raise SynthesisUnsupported("non-integer loop step")
        step = int(step)
        if step == 0:
            raise SynthesisUnsupported("zero loop step")
        for bound in (lower, upper):
            if isinstance(bound, np.ndarray):
                if bound.dtype.kind not in "iu":
                    raise SynthesisUnsupported("non-integer loop bound")
            elif not isinstance(bound, (int, np.integer)):
                raise SynthesisUnsupported("non-integer loop bound")
        diff = upper - lower
        trips = -((-diff) // step)
        if isinstance(trips, np.ndarray):
            if trips.size == 0:
                return 0
            first = int(trips.reshape(-1)[0])
            if (trips != first).any():
                raise SynthesisUnsupported(
                    "loop trip count varies across iterations"
                )
            trips = first
        return max(0, int(trips))

    # -- pure host-side computation entries -------------------------------
    def _do_arith(self, entry) -> None:
        fn = entry.get("fn")
        lhs = self._value(entry["args"][0])
        rhs = self._value(entry["args"][1])
        if fn == "+":
            value = lhs + rhs
        elif fn == "-":
            value = lhs - rhs
        elif fn == "*":
            value = lhs * rhs
        elif fn == "min":
            if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
                value = np.minimum(lhs, rhs)
            else:
                value = min(lhs, rhs)
        else:
            raise SynthesisUnsupported(f"unknown arith fn {fn!r}")
        self.env[entry["result"]] = value

    def _do_subview(self, entry) -> None:
        source = self._ref(entry["ref"])
        offsets = [self._value(name) for name in entry["offsets"]]
        sizes = tuple(int(s) for s in entry["sizes"])
        if len(offsets) != len(source.sizes) \
                or len(sizes) != len(source.sizes):
            raise SynthesisUnsupported("subview rank mismatch")
        new_offset = source.offset
        for off, size, full, stride in zip(offsets, sizes, source.sizes,
                                           source.strides):
            if np.any(np.less(off, 0)) or np.any(np.greater(
                    np.add(off, size), full)):
                raise SynthesisUnsupported("subview out of bounds")
            new_offset = new_offset + off * stride
        self.env[entry["result"]] = _Ref(
            source.arg, new_offset, sizes, source.strides, source.itemsize
        )

    def _do_dim(self, entry) -> None:
        source = self._ref(entry["ref"])
        try:
            self.env[entry["result"]] = source.sizes[int(entry["index"])]
        except IndexError:
            raise SynthesisUnsupported("memref.dim index out of range")

    # -- runtime-call entries ---------------------------------------------
    def _check_init(self) -> None:
        if not self.initialized:
            raise SynthesisUnsupported("library call before dma_init")

    def _do_init(self, entry, chain, prefix) -> int:
        if self.initialized:
            raise SynthesisUnsupported("dma_init called twice")
        if chain:
            raise SynthesisUnsupported("dma_init inside a loop")
        values = [self._scalar(name) for name in entry["args"]]
        if len(values) != 5:
            raise SynthesisUnsupported("malformed dma_init")
        self.initialized = True
        self.input_size = values[2]
        self.output_size = values[4]
        self.init_params = (values[0], self.input_size, self.output_size)
        return self._site("dma_init", (K_INIT,), chain, prefix, {})

    def _check_word(self, offset) -> None:
        self._check_init()
        if np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("misaligned staged word")
        if np.any(np.greater(np.add(offset, 4), self.input_size)):
            raise SynthesisUnsupported("staged word beyond input region")

    def _do_word(self, entry, chain, prefix) -> int:
        op = entry["op"]
        offset = self._value(entry["offset"])
        if op == "send_literal" or op == "send_idx":
            value = self._value(entry["value"])
        else:  # send_dim
            ref = self._ref(entry["ref"])
            try:
                value = ref.sizes[self._scalar(entry["dim"])]
            except IndexError:
                raise SynthesisUnsupported("send_dim index out of range")
        self._check_word(offset)
        self.env[entry["result"]] = offset + 4
        return self._site(op, (K_CALL, K_WORD), chain, prefix,
                          {"value": value, "offset": offset})

    def _do_send(self, entry, chain, prefix) -> int:
        self._check_init()
        ref = self._ref(entry["ref"])
        offset = self._value(entry["offset"])
        if ref.itemsize % 4 or np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("unstageable tile")
        num_bytes = ref.num_elements() * ref.itemsize
        if np.any(np.greater(np.add(offset, num_bytes), self.input_size)):
            raise SynthesisUnsupported("staged tile beyond input region")
        self.env[entry["result"]] = offset + num_bytes
        key = (ref.arg, ref.sizes, ref.strides)
        return self._site("send_memref", (K_CALL, K_COPY), chain, prefix,
                          {"key": key, "starts": ref.offset,
                           "offset": offset})

    def _do_flush(self, entry, chain, prefix) -> int:
        self._check_init()
        offset = self._value(entry["offset"])
        self.env[entry["result"]] = 0
        if isinstance(offset, np.ndarray):
            nonzero = offset != 0
            if not nonzero.any():
                return 0
            if not nonzero.all():
                raise SynthesisUnsupported(
                    "flush alternates between empty and staged batches"
                )
        elif offset == 0:
            return 0  # a no-op in AxiRuntime: no cost, no boundary
        return self._site("flush_send", (K_FLUSH,), chain, prefix,
                          {"bytes": offset})

    def _do_recv(self, entry, chain, prefix) -> int:
        self._check_init()
        ref = self._ref(entry["ref"])
        offset = self._value(entry["offset"])
        if ref.itemsize % 4 or np.any(np.remainder(offset, 4)):
            raise SynthesisUnsupported("unstageable receive tile")
        num_bytes = ref.num_elements() * ref.itemsize
        if np.any(np.greater(np.add(offset, num_bytes), self.output_size)):
            raise SynthesisUnsupported("receive beyond output region")
        accumulate = bool(entry.get("accumulate", False))
        key = (ref.arg, ref.sizes, ref.strides, accumulate)
        return self._site("recv_memref",
                          (K_RWAIT, K_CALL, K_RECV, K_COPY), chain, prefix,
                          {"key": key, "starts": ref.offset,
                           "offset": offset})

    # -- assembly ---------------------------------------------------------
    def _positions(self, site: _Site) -> np.ndarray:
        pos = site.prefix
        for frame in site.chain:
            pos = pos + frame.index_array() * frame.body_len
        return self._flat(pos, site.chain)

    def build(self) -> DriverTrace:
        total = self._walk(self.table.get("body", ()), (), 0)
        if self.init_params is None:
            raise SynthesisUnsupported(
                "driver never initialized the DMA engine"
            )
        if total > _MAX_EVENTS:
            raise SynthesisUnsupported("schedule expansion too large")
        trace = DriverTrace(self.arg_specs)
        trace.init_params = self.init_params
        kinds = np.empty(total, dtype=np.int8)
        for site in self.sites:
            site.pos = self._positions(site)
            for j, kind in enumerate(site.template):
                kinds[site.pos + j] = kind
        trace.kinds = kinds
        trace.num_events = total

        empty = np.empty(0, dtype=np.int64)
        self._build_words(trace, empty)
        send_groups = self._grouped("send_memref")
        recv_groups = self._grouped("recv_memref")
        self._build_sends(trace, send_groups, empty)
        self._build_recvs(trace, recv_groups, empty)
        self._build_flushes(trace, empty)
        self._build_staged(trace, send_groups)
        self._check_read_after_write(trace)
        trace.recv_disjoint = [
            _scatter_is_disjoint(tile_class)
            for tile_class in trace.recv_classes
        ]
        return trace

    def _build_words(self, trace, empty) -> None:
        sites = [s for s in self.sites if s.op in _WORD_OPS]
        if not sites:
            trace.word_pos = empty
            trace.word_offsets = empty
            trace.word_values = empty
            return
        pos = np.concatenate([s.pos + 1 for s in sites])
        offsets = np.concatenate(
            [self._flat(s.payload["offset"], s.chain) for s in sites]
        )
        values = np.concatenate(
            [self._flat(s.payload["value"], s.chain) for s in sites]
        ) & 0xFFFFFFFF
        order = np.argsort(pos)
        trace.word_pos = pos[order]
        trace.word_offsets = offsets[order]
        trace.word_values = values[order]

    def _grouped(self, op: str) -> list:
        """Tile classes for one op, ordered by first event occurrence.

        Returns ``[(key, pos, starts, region_offsets), ...]`` with the
        per-class rows sorted by event position — the same class-id and
        row order ``_compile_events`` produces.
        """
        groups: Dict[Tuple, List] = {}
        for site in (s for s in self.sites if s.op == op):
            entry = groups.setdefault(site.payload["key"], ([], [], []))
            entry[0].append(site.pos)
            entry[1].append(self._flat(site.payload["starts"], site.chain))
            entry[2].append(self._flat(site.payload["offset"], site.chain))
        compiled = []
        for key, (pos_parts, start_parts, region_parts) in groups.items():
            pos = np.concatenate(pos_parts)
            order = np.argsort(pos)
            compiled.append((key, pos[order],
                             np.concatenate(start_parts)[order],
                             np.concatenate(region_parts)[order]))
        compiled.sort(key=lambda item: int(item[1][0]))
        return compiled

    def _build_sends(self, trace, groups, empty) -> None:
        all_pos = np.sort(np.concatenate([g[1] for g in groups])) \
            if groups else empty
        for (arg, sizes, strides), pos, starts, regions in groups:
            tile_class = _TileClass(arg, sizes, strides,
                                    self.arg_specs[arg][2])
            tile_class.starts = starts
            tile_class.region_offsets = regions
            tile_class.event_pos = pos + 1
            tile_class.order = np.searchsorted(all_pos, pos)
            trace.send_classes.append(tile_class)

    def _build_recvs(self, trace, groups, empty) -> None:
        total = sum(len(g[1]) for g in groups)
        all_pos = np.sort(np.concatenate([g[1] for g in groups])) \
            if groups else empty
        recv_pos = np.empty(total, dtype=np.int64)
        recv_bytes = np.empty(total, dtype=np.int64)
        class_of = np.empty(total, dtype=np.int64)
        index_of = np.empty(total, dtype=np.int64)
        sizes_of = []
        for class_id, (key, pos, starts, regions) in enumerate(groups):
            arg, sizes, strides, accumulate = key
            itemsize = self.arg_specs[arg][2]
            tile_class = _TileClass(arg, sizes, strides, itemsize,
                                    accumulate)
            tile_class.starts = starts
            tile_class.region_offsets = regions
            tile_class.event_pos = pos + 3
            ordinals = np.searchsorted(all_pos, pos)
            tile_class.order = ordinals
            recv_pos[ordinals] = pos + 2
            recv_bytes[ordinals] = tile_class.num_elements() * itemsize
            class_of[ordinals] = class_id
            index_of[ordinals] = np.arange(pos.size, dtype=np.int64)
            sizes_of.append(sizes)
            trace.recv_classes.append(tile_class)
        trace.recv_refs = list(zip(class_of.tolist(), index_of.tolist()))
        trace.recv_sizes = [sizes_of[c] for c in class_of.tolist()]
        trace.recv_pos = recv_pos
        trace.recv_bytes = recv_bytes

    def _build_flushes(self, trace, empty) -> None:
        sites = [s for s in self.sites if s.op == "flush_send"]
        if not sites:
            trace.flush_pos = empty
            trace.flush_bytes = empty
            return
        pos = np.concatenate([s.pos for s in sites])
        flush_bytes = np.concatenate(
            [self._flat(s.payload["bytes"], s.chain) for s in sites]
        )
        order = np.argsort(pos)
        trace.flush_pos = pos[order]
        trace.flush_bytes = flush_bytes[order]

    def _build_staged(self, trace, send_groups) -> None:
        """The interleaved word/tile stream the decoder consumes."""
        word_sites = [s for s in self.sites if s.op in _WORD_OPS]
        parts = [s.pos for s in word_sites] + [g[1] for g in send_groups]
        empty = np.empty(0, dtype=np.int64)
        if not parts:
            trace.staged_is_word = np.empty(0, dtype=np.uint8)
            trace.staged_values = empty
            trace.staged_indices = empty
            trace.staged_widths = empty
            trace.flush_item_counts = [0] * len(trace.flush_pos)
            return
        # The four parallel item arrays are built part-by-part (pure
        # numpy), then merged into global event order with a single
        # argsort permutation.
        is_word_parts, value_parts, index_parts, width_parts = [], [], [], []
        for site in word_sites:
            values = (self._flat(site.payload["value"], site.chain)
                      & 0xFFFFFFFF)
            n = values.size
            is_word_parts.append(np.ones(n, dtype=np.uint8))
            value_parts.append(values.astype(np.int64, copy=False))
            index_parts.append(np.zeros(n, dtype=np.int64))
            width_parts.append(np.ones(n, dtype=np.int64))
        for class_id, (key, pos, _starts, _regions) in \
                enumerate(send_groups):
            tile_class = trace.send_classes[class_id]
            words = tile_class.num_elements() * tile_class.itemsize // 4
            n = pos.size
            is_word_parts.append(np.zeros(n, dtype=np.uint8))
            value_parts.append(np.full(n, class_id, dtype=np.int64))
            index_parts.append(np.arange(n, dtype=np.int64))
            width_parts.append(np.full(n, words, dtype=np.int64))
        all_pos = np.concatenate(parts)
        order = np.argsort(all_pos)
        trace.staged_is_word = np.concatenate(is_word_parts)[order]
        trace.staged_values = np.concatenate(value_parts)[order]
        trace.staged_indices = np.concatenate(index_parts)[order]
        trace.staged_widths = np.concatenate(width_parts)[order]
        trace.flush_item_counts = np.searchsorted(
            all_pos[order], trace.flush_pos
        ).tolist()

    def _check_read_after_write(self, trace) -> None:
        # Mirrors _compile_events' read-after-write hazard guard.
        first_recv: Dict[int, int] = {}
        for tile_class in trace.recv_classes:
            if tile_class.event_pos.size:
                pos = int(tile_class.event_pos.min())
                arg = tile_class.arg
                first_recv[arg] = min(first_recv.get(arg, pos), pos)
        for tile_class in trace.send_classes:
            if tile_class.event_pos.size and tile_class.arg in first_recv \
                    and int(tile_class.event_pos.max()) \
                    > first_recv[tile_class.arg]:
                raise SynthesisUnsupported(
                    "argument is sent after being received "
                    "(read-after-write)"
                )


def synthesize_trace(schedule_table: Optional[dict],
                     arg_specs) -> DriverTrace:
    """Expand the emitter's schedule side table into a DriverTrace.

    Raises :class:`SynthesisUnsupported` when the schedule cannot be
    proven static/affine; callers fall back to :func:`record_trace`.
    """
    start = time.perf_counter()
    try:
        if faults.fires("synth") == "fail":
            raise SynthesisUnsupported("injected synthesis fault")
        if not schedule_table:
            raise SynthesisUnsupported("no schedule side table")
        try:
            return _Synthesizer(schedule_table, arg_specs).build()
        except SynthesisUnsupported:
            raise
        except (KeyError, IndexError, TypeError, ValueError,
                OverflowError, AttributeError) as exc:
            raise SynthesisUnsupported(
                f"schedule not synthesizable: {exc!r}"
            ) from exc
    finally:
        counters.add("stage_timings", "trace_synth_s",
                     time.perf_counter() - start)


# -- cross-check -----------------------------------------------------------

def diff_traces(synthesized: DriverTrace,
                recorded: DriverTrace) -> List[str]:
    """Table-by-table structural diff; empty means bit-identical."""
    problems: List[str] = []

    def check(name, condition):
        if not condition:
            problems.append(name)

    def check_array(name, left, right):
        check(name, np.array_equal(np.asarray(left), np.asarray(right)))

    check("arg_specs", tuple(synthesized.arg_specs)
          == tuple(recorded.arg_specs))
    check("num_events", synthesized.num_events == recorded.num_events)
    check_array("kinds", synthesized.kinds, recorded.kinds)
    check("init_params", synthesized.init_params == recorded.init_params)
    for name in ("word_pos", "word_offsets", "word_values", "flush_pos",
                 "flush_bytes", "recv_pos", "recv_bytes"):
        check_array(name, getattr(synthesized, name),
                    getattr(recorded, name))
    for side in ("send_classes", "recv_classes"):
        left, right = getattr(synthesized, side), getattr(recorded, side)
        if len(left) != len(right):
            problems.append(f"{side} count")
            continue
        for i, (lc, rc) in enumerate(zip(left, right)):
            check(f"{side}[{i}] geometry",
                  (lc.arg, lc.sizes, lc.strides, lc.itemsize,
                   lc.accumulate)
                  == (rc.arg, rc.sizes, rc.strides, rc.itemsize,
                      rc.accumulate))
            for field in ("starts", "region_offsets", "event_pos",
                          "order"):
                check_array(f"{side}[{i}].{field}",
                            getattr(lc, field), getattr(rc, field))
    for name in ("staged_is_word", "staged_values", "staged_indices",
                 "staged_widths"):
        check_array(name, getattr(synthesized, name),
                    getattr(recorded, name))
    check("flush_item_counts", list(synthesized.flush_item_counts)
          == list(recorded.flush_item_counts))
    check("recv_refs", list(synthesized.recv_refs)
          == list(recorded.recv_refs))
    check("recv_sizes", list(synthesized.recv_sizes)
          == list(recorded.recv_sizes))
    check("recv_disjoint", list(synthesized.recv_disjoint)
          == list(recorded.recv_disjoint))
    return problems
