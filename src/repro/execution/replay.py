"""Trace replay: execute a recorded driver schedule as batched numpy.

Given a :class:`~repro.execution.trace.DriverTrace` and the decoded
instruction plan for the attached accelerator, :class:`ReplayExecutor`
reproduces one kernel invocation exactly — bit-identical
:class:`PerfCounters`, output arrays, and board/accelerator state —
split into two explicit planes:

* the **data plane** (:meth:`_gather` → :meth:`_compute_functional` →
  :meth:`_scatter_receives`, plus the staging-region payload writes):
  pure numpy over the tile payloads.  All staged tiles of a class are
  bulk-gathered with one strided fancy-index; all accelerator tile
  products of a flow segment run as one batched matmul (with the
  guarded exact-float64 shortcut for integer data, which is
  modular-arithmetic-identical to the per-tile path); received tiles
  are scattered back in duplicate-free vectorized rounds that preserve
  accumulate order.  This plane runs on every invocation — it is the
  only part that touches input data.

* the **metrics plane** (:mod:`repro.execution.metrics`): every
  performance-model quantity — per-event copy/cache charges, the exact
  sequential clock/stall timeline, cache LRU end-state, DMA/accelerator
  statistics, and the staging regions' last-writer maps.  It is a pure
  function of the trace and the runtime configuration, so it is
  evaluated once per ``(trace, fingerprint)`` into a cached,
  serializable :class:`~repro.execution.metrics.MetricsPlan` and applied
  in O(state) on subsequent invocations.  Wherever a build runs, its
  seconds land in ``metrics_plan_build_s`` — pool workers report
  stage-timing deltas that merge back into the parent, so the
  accounting is placement-independent.

Any assumption violation raises :class:`ReplayUnsupported`; the caller
falls back to per-tile execution.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from .. import counters, faults
from ..accelerators.conv import ConvAccelerator
from ..accelerators.matmul import MatMulAccelerator
from ..numerics import float64_exact_bound, max_abs
from ..soc.dma_engine import DmaEngine
from . import metrics
from .trace import (
    DecodedPlan,
    DriverTrace,
    TraceUnsupported,
    _tile_indices,
    decode_for_accelerator,
    decode_key,
)

ReplayUnsupported = TraceUnsupported

#: Upper bound on elements materialized per batched compute block.
_BLOCK_ELEMENTS = 1 << 23


def replay_kernel(trace: DriverTrace, board, rt, descriptors,
                  double_buffered: bool) -> None:
    """Execute one invocation of a traced kernel against ``board``."""
    start = time.perf_counter()
    try:
        # Fault hook: fires before any board/descriptor mutation, so
        # the per-tile fallback starts from an untouched state.
        if faults.fires("replay") == "fail":
            raise ReplayUnsupported("injected replay fault")
        accelerator = board.accelerator
        if accelerator is None:
            raise ReplayUnsupported("no accelerator attached")
        plan = decode_for_accelerator(trace, accelerator)
        executor = ReplayExecutor(trace, plan, board, rt, descriptors,
                                  double_buffered)
        executor.execute()
    finally:
        counters.add("stage_timings", "replay_s",
                     time.perf_counter() - start)


class _PushRows:
    """Lazy ``push_data``: ordinal -> row view of its receive buffer.

    Push payloads live in per-receive-class row matrices; only the
    rarely-taken fallback paths (sequential scatters, uneven push runs,
    region winners) need per-ordinal views, so they are materialized on
    demand instead of building tens of thousands up front.
    """

    __slots__ = ("buffers", "cls", "row")

    def __init__(self, buffers, cls, row):
        self.buffers = buffers
        self.cls = cls
        self.row = row

    def __getitem__(self, ordinal: int) -> np.ndarray:
        return self.buffers[int(self.cls[ordinal])][int(self.row[ordinal])]


class ReplayExecutor:
    def __init__(self, trace: DriverTrace, plan: DecodedPlan, board, rt,
                 descriptors, double_buffered: bool):
        self.trace = trace
        self.plan = plan
        self.board = board
        self.rt = rt
        self.descriptors = descriptors
        self.double_buffered = double_buffered
        self.engine: Optional[DmaEngine] = None
        #: Per-class full flat-index arrays, memoized for the replay's
        #: lifetime: operand tiles are re-gathered across many compute
        #: blocks and the strided index lattice is identical each time.
        self._index_cache: Dict = {}
        self._validate()

    # -- validation -------------------------------------------------------
    def _validate(self) -> None:
        trace, board = self.trace, self.board
        if len(self.descriptors) != len(trace.arg_specs):
            raise ReplayUnsupported("argument arity changed")
        for desc, (sizes, strides, itemsize, dtype) in zip(
            self.descriptors, trace.arg_specs
        ):
            if (desc.sizes != sizes or desc.strides != strides
                    or desc.itemsize != itemsize
                    or str(desc.dtype) != dtype):
                raise ReplayUnsupported("argument shape changed")
        if board.caches.line_size < 8:
            raise ReplayUnsupported("sub-word cache lines")
        if trace.init_params is None:
            # Preinitialized (manual-driver) trace: the live engine the
            # replay will reuse must exist and match the recorded
            # region geometry.  Checked here — before any mutation —
            # so execute()'s fallback guarantee holds.
            engine = self.rt.dma
            if engine is None:
                raise ReplayUnsupported("runtime engine not initialized")
            if (engine.input_region.size, engine.output_region.size) \
                    != trace.region_sizes:
                raise ReplayUnsupported("engine region sizes changed")
        accel = board.accelerator
        if len(accel.in_fifo) or len(accel.out_fifo):
            raise ReplayUnsupported("accelerator streams not drained")
        accel_dtype = str(accel.dtype)
        for tile_class in trace.send_classes + trace.recv_classes:
            if trace.arg_specs[tile_class.arg][3] != accel_dtype:
                raise ReplayUnsupported("tile dtype differs from stream "
                                        "dtype")
        if type(accel) is MatMulAccelerator:
            if (accel.tile_m, accel.tile_n, accel.tile_k) != (
                accel.size, accel.size, accel.size
            ):
                raise ReplayUnsupported("accelerator not in default config")
        elif type(accel) is ConvAccelerator:
            if accel.ic != 1 or accel.fhw != 1 or accel._slice:
                raise ReplayUnsupported("accelerator not in default config")

    # -- top level --------------------------------------------------------
    def execute(self) -> None:
        # The functional compute runs first: it is the only stage that
        # can still raise ReplayUnsupported, and it mutates nothing, so
        # a fallback to per-tile execution stays bit-identical.
        push_data = self._compute_functional()
        self._install_engine()
        # Metrics plane: cached per (trace, runtime-config/state
        # fingerprint), rebuilt from scratch on a miss.
        mplan = metrics.obtain_plan(self, decode_key(self.board.accelerator))
        # Input-region reconstruction must read the argument arrays
        # before receives land in them: the recording guard guarantees
        # every send precedes the first receive of its argument, so the
        # pre-scatter arrays hold exactly the at-send-time values.
        self._apply_input_region(mplan)
        self._scatter_receives(push_data)
        metrics.apply_plan(self, mplan)
        self._apply_output_region(mplan, push_data)
        self._finalize_accelerator(self.board.accelerator)

    def _install_engine(self) -> None:
        if self.trace.init_params is None:
            # Preinitialized (manual-driver) trace: dma_init already ran
            # for real before the recorded body, so replay against the
            # runtime's live engine (validated by _validate) instead of
            # installing a fresh one.
            self.engine = self.rt.dma
            return
        dma_id, in_size, out_size = self.trace.init_params
        board = self.board
        self.engine = DmaEngine(dma_id, in_size, out_size, board.memory,
                                board.timing)
        board.install_dma(self.engine)
        self.rt.dma = self.engine

    # -- functional execution (data plane) --------------------------------
    def _class_table(self, class_id: int, is_recv: bool = False):
        """Memoized (inverse, unique-tile flat indices) of one class.

        Tile sweeps re-stage the same tiles every outer loop iteration
        (CPU-tiled drivers repeat each operand tile dozens of times), so
        the strided index lattice is built once over the *unique* tile
        starts and composed through ``inverse`` everywhere else.
        """
        key = ("tbl", is_recv, class_id)
        cached = self._index_cache.get(key, False)
        if cached is not False:
            return cached
        tile_class = (self.trace.recv_classes if is_recv
                      else self.trace.send_classes)[class_id]
        uniq, inverse = np.unique(tile_class.starts, return_inverse=True)
        if uniq.size * tile_class.num_elements() > (1 << 24):
            cached = None  # too large to keep around: gather per call
        else:
            desc = self.descriptors[tile_class.arg]
            idx_unique = _tile_indices(desc.offset + uniq,
                                       tile_class.sizes,
                                       tile_class.strides)
            cached = (inverse, idx_unique)
        self._index_cache[key] = cached
        return cached

    def _gather(self, class_id: int, indices: np.ndarray,
                is_recv: bool = False) -> np.ndarray:
        """Tiles (as flat element rows) for a subset of one class."""
        tile_class = (self.trace.recv_classes if is_recv
                      else self.trace.send_classes)[class_id]
        desc = self.descriptors[tile_class.arg]
        if not is_recv:
            vals = self._class_values(class_id)
            if vals is not None:
                inverse, _ = self._class_table(class_id)
                tiles = vals[inverse[indices]]
                return tiles.reshape(len(tiles), -1)
        table = self._class_table(class_id, is_recv)
        if table is not None:
            inverse, idx_unique = table
            tiles = desc.allocated[idx_unique[inverse[indices]]]
            return tiles.reshape(len(tiles), -1)
        starts = desc.offset + tile_class.starts[indices]
        idx = _tile_indices(starts, tile_class.sizes, tile_class.strides)
        tiles = desc.allocated[idx]
        return tiles.reshape(len(starts), -1)

    def _class_values(self, class_id: int,
                      cast=None) -> Optional[np.ndarray]:
        """Unique tiles of a send class as one (tiles, elements) matrix.

        Operand tiles are referenced by many compute blocks (every tile
        of A participates in a whole row of products), so the gather —
        and, for the exact-float compute paths, the f32/f64 conversion —
        is done once per *unique* tile instead of once per reference;
        row lookups compose with the class table's ``inverse``.
        """
        key = ("vals", cast, class_id)
        cached = self._index_cache.get(key, False)
        if cached is not False:
            return cached
        if cast is not None:
            base = self._class_values(class_id)
            vals = None if base is None else base.astype(cast)
        else:
            table = self._class_table(class_id, False)
            if table is None:
                vals = None  # too large to materialize: gather per call
            else:
                _, idx_unique = table
                tile_class = self.trace.send_classes[class_id]
                desc = self.descriptors[tile_class.arg]
                vals = desc.allocated[idx_unique].reshape(
                    idx_unique.shape[0], -1
                )
        self._index_cache[key] = vals
        return vals

    def _class_max(self, class_id: int) -> Optional[int]:
        """max(|values|) over a whole send class (exact Python int)."""
        key = ("max", class_id)
        cached = self._index_cache.get(key, False)
        if cached is not False:
            return cached
        vals = self._class_values(class_id)
        bound = None if vals is None else max_abs(vals)
        self._index_cache[key] = bound
        return bound

    @staticmethod
    def _packed_class(packed: np.ndarray) -> Optional[int]:
        missing = packed < 0
        if missing.all():
            return None  # all-zero operand
        return int(packed[~missing][0] >> 40)

    def _pair_cast(self, packed_a, packed_b, tk):
        """Exact-float election for one integer compute run.

        Every per-product partial sum is bounded by ``tk * max|a| *
        max|b|``; below 2**24 every such integer is exactly
        representable in float32, below 2**53 in float64, so the BLAS
        product is rounding-free and bit-identical to the per-tile
        integer accumulation (and the remaining cases are
        modular-identical through int64).  Uses whole-class maxima, so
        a run whose block maximum is lower may pick a wider type than
        the live engine's per-tile check — all paths are exact or
        modular-identical, so outputs do not change.  Returns the
        numpy cast dtype, ``None`` for the int64 path, or the string
        ``"uncached"`` when a class is too large to keep maxima for.
        """
        ca = self._packed_class(packed_a)
        ma = 0 if ca is None else self._class_max(ca)
        if ma is None:
            return "uncached"
        cb = self._packed_class(packed_b)
        mb = 0 if cb is None else self._class_max(cb)
        if mb is None:
            return "uncached"
        bound = tk * ma * mb
        if bound < 2 ** 24:
            return np.float32
        if bound < 2 ** 53:
            return np.float64
        return None

    def _compute_functional(self) -> List[np.ndarray]:
        """All accelerator outputs, batched per flow segment.

        Push payloads are written straight into per-receive-class
        row matrices (``self._recv_buffers``); ``push_data[ordinal]``
        is a row view, so the scatter stage can apply a whole class
        with zero re-packing.
        """
        plan = self.plan
        n_pushes = len(plan.push_counts)
        push_data: List[Optional[np.ndarray]] = [None] * n_pushes
        self._recv_buffers: Dict[int, np.ndarray] = {}
        if n_pushes and int(np.min(plan.push_counts)) == 0:
            # A push with no contributing computes has no payload the
            # functional batch can reconstruct.
            raise ReplayUnsupported("push with an empty compute set")
        n_computes = len(plan.compute_a)
        if n_computes == 0:
            return push_data
        accel_dtype = self.board.accelerator.dtype
        trace = self.trace
        for class_id, tile_class in enumerate(trace.recv_classes):
            n = len(tile_class.starts)
            if n:
                self._recv_buffers[class_id] = np.empty(
                    (n, tile_class.num_elements()), dtype=accel_dtype
                )
        if getattr(plan, "_push_class", None) is None:
            n_recvs = len(trace.recv_refs)
            plan._push_class = np.fromiter(
                (c for c, _ in trace.recv_refs), dtype=np.int64,
                count=n_recvs,
            )
            plan._push_row = np.fromiter(
                (i for _, i in trace.recv_refs), dtype=np.int64,
                count=n_recvs,
            )
        self._push_class = plan._push_class
        self._push_row = plan._push_row
        push_data = _PushRows(self._recv_buffers, self._push_class,
                              self._push_row)
        comp_a = np.asarray(plan.compute_a, dtype=np.int64)
        comp_b = np.asarray(plan.compute_b, dtype=np.int64)
        geom = np.asarray(plan.compute_geom, dtype=np.int64)
        push_of = np.asarray(plan.compute_push, dtype=np.int64)
        self._push_counts = np.asarray(plan.push_counts, dtype=np.int64)

        # Segment the compute sequence into runs of constant
        # (geometry, operand class) — the generated loop nests produce
        # long such runs — and process each run in bounded blocks.
        a_cls = np.where(comp_a >= 0, comp_a >> 40, -1)
        b_cls = np.where(comp_b >= 0, comp_b >> 40, -1)
        key = np.stack([geom[:, 0], geom[:, 1], geom[:, 2], a_cls, b_cls],
                       axis=1)
        change = np.any(key[1:] != key[:-1], axis=1)
        if plan.kind == "conv":
            # Window dots share one filter per run: split on filter swaps.
            change = change | (comp_b[1:] != comp_b[:-1])
        run_starts = np.r_[0, np.flatnonzero(change) + 1, n_computes]
        for lo, hi in zip(run_starts[:-1], run_starts[1:]):
            self._compute_run(int(lo), int(hi), comp_a, comp_b, geom,
                              push_of, push_data, accel_dtype)
        return push_data

    def _compute_run(self, lo, hi, comp_a, comp_b, geom, push_of,
                     push_data, accel_dtype) -> None:
        plan = self.plan
        tm, tn, tk = (int(v) for v in geom[lo])
        numel_out = tm * tn
        block = max(1, _BLOCK_ELEMENTS // max(tm * tk, tk * tn, numel_out))
        start = lo
        while start < hi:
            # Block boundaries must not split a push's compute run.
            end = min(start + block, hi)
            if end < hi:
                while end > start and push_of[end] >= 0 \
                        and push_of[end] == push_of[end - 1]:
                    end -= 1
                if end == start:  # a single push larger than the block
                    end = start + 1
                    while end < hi and push_of[end] == push_of[start]:
                        end += 1
            products = self._products(start, end, comp_a, comp_b,
                                      tm, tn, tk, accel_dtype)
            self._reduce_pushes(start, end, push_of, products, tm, tn,
                                accel_dtype, push_data)
            start = end

    def _operand(self, packed: np.ndarray, rows: int, shape, dtype,
                 cast=None):
        """Gather one operand side of a compute block (zeros for -1)."""
        missing = packed < 0
        any_missing = bool(missing.any())
        if any_missing and missing.all():
            return np.zeros((rows,) + shape, dtype=cast or dtype)
        if any_missing:
            class_id = int(packed[~missing][0] >> 40)
            index = np.where(missing, 0, packed & ((1 << 40) - 1))
        else:
            class_id = int(packed[0] >> 40)
            index = packed & ((1 << 40) - 1)
        src = self._class_values(class_id, cast=cast)
        if src is not None:
            inverse, _ = self._class_table(class_id)
            tiles = src[inverse[index]].reshape((rows,) + shape)
        else:
            tiles = self._gather(class_id, index).reshape((rows,) + shape)
            if cast is not None:
                tiles = tiles.astype(cast)
        if any_missing:
            tiles[missing] = 0  # fancy indexing returned a fresh array
        return tiles

    def _products(self, start, end, comp_a, comp_b, tm, tn, tk,
                  accel_dtype) -> np.ndarray:
        rows = end - start
        packed_a = comp_a[start:end]
        if self.plan.kind == "conv":
            # One dot product per window against the (shared) filter —
            # replicates ConvAccelerator._send_input_compute's exact
            # int64 arithmetic (exact-float BLAS when provably safe).
            packed_b = comp_b[start:end]
            if (packed_b != packed_b[0]).any():
                raise ReplayUnsupported("filter changes inside a push run")
            cast = self._pair_cast(packed_a, packed_b[:1], tk)
            if cast == "uncached":
                windows = self._operand(packed_a, rows, (1, tk),
                                        accel_dtype).reshape(rows, tk)
                filt = self._operand(packed_b[:1], 1, (1, tk),
                                     accel_dtype).reshape(tk)
                if float64_exact_bound(tk, windows, filt):
                    cast = np.float64
                    windows = windows.astype(cast)
                    filt = filt.astype(cast)
                else:
                    cast = None
            else:
                windows = self._operand(packed_a, rows, (1, tk),
                                        accel_dtype,
                                        cast=cast).reshape(rows, tk)
                filt = self._operand(packed_b[:1], 1, (1, tk), accel_dtype,
                                     cast=cast).reshape(tk)
            if cast is not None:
                values = (windows @ filt).astype(np.int64)
            else:
                values = windows.astype(np.int64) @ filt.astype(np.int64)
            return values.reshape(rows, 1, 1)
        packed_b = comp_b[start:end]
        if accel_dtype.kind != "i":
            a = self._operand(packed_a, rows, (tm, tk), accel_dtype)
            b = self._operand(packed_b, rows, (tk, tn), accel_dtype)
            return a @ b
        # Integer tiles: any exact-or-modular path is bit-identical
        # to the per-tile accumulation (wraparound is mod 2^32
        # regardless of where it happens).
        cast = self._pair_cast(packed_a, packed_b, tk)
        if cast == "uncached":
            a = self._operand(packed_a, rows, (tm, tk), accel_dtype)
            b = self._operand(packed_b, rows, (tk, tn), accel_dtype)
            if float64_exact_bound(tk, a, b):
                return (a.astype(np.float64)
                        @ b.astype(np.float64)).astype(np.int64)
            return a.astype(np.int64) @ b.astype(np.int64)
        a = self._operand(packed_a, rows, (tm, tk), accel_dtype, cast=cast)
        b = self._operand(packed_b, rows, (tk, tn), accel_dtype, cast=cast)
        if cast is not None:
            return (a @ b).astype(np.int64)
        return a.astype(np.int64) @ b.astype(np.int64)

    def _store_push_rows(self, uniq: np.ndarray, flat: np.ndarray,
                         push_data) -> None:
        """Write per-push payload rows into the receive-class buffers.

        When every push of the block lands in one class (the common
        case — a block stays within one flow segment), the whole write
        is a single fancy-index scatter into that class's row matrix.
        """
        classes = self._push_class[uniq]
        if classes.size and (classes == classes[0]).all():
            buffer = self._recv_buffers[int(classes[0])]
            buffer[self._push_row[uniq]] = flat
            return
        for i, p in enumerate(uniq):
            push_data[int(p)][:] = flat[i]

    def _reduce_pushes(self, start, end, push_of, products, tm, tn,
                       accel_dtype, push_data) -> None:
        """Fold a block of products into its pushes, preserving order."""
        plan = self.plan
        segment = push_of[start:end]
        kept = segment >= 0
        if not kept.any():
            return
        if kept.all():
            push_ids = segment
            prods = products
        else:
            push_ids = segment[kept]
            prods = products[kept]
        # Push ordinals are assigned in compute order, so the block's
        # sequence is already sorted: first occurrences mark the runs.
        uniq = push_ids[np.r_[True, push_ids[1:] != push_ids[:-1]]]
        counts = self._push_counts[uniq]
        if plan.kind == "conv":
            # Pushes drain the slice buffer: stack scalars in order.
            if counts.sum() != prods.shape[0]:
                raise ReplayUnsupported("push runs split across blocks")
            flat = prods.reshape(-1)
            if (counts == counts[0]).all():
                rows = flat.reshape(len(uniq), int(counts[0]))
                self._store_push_rows(
                    uniq, rows.astype(accel_dtype, copy=False), push_data
                )
                return
            offsets = np.r_[0, np.cumsum(counts)]
            for i, p in enumerate(uniq):
                values = flat[offsets[i]:offsets[i + 1]]
                push_data[int(p)][:] = np.asarray(values, dtype=accel_dtype)
            return
        if counts.sum() != prods.shape[0]:
            raise ReplayUnsupported("push runs split across blocks")
        if (counts == counts[0]).all():
            c = int(counts[0])
            stacked = prods.reshape(len(uniq), c, tm, tn)
            if accel_dtype.kind == "i":
                summed = stacked.sum(axis=1).astype(accel_dtype)
            else:
                summed = np.zeros((len(uniq), tm, tn), dtype=accel_dtype)
                for j in range(c):
                    summed += stacked[:, j]
            self._store_push_rows(uniq, summed.reshape(len(uniq), -1),
                                  push_data)
        else:
            offsets = np.r_[0, np.cumsum(counts)]
            for i, p in enumerate(uniq):
                chunk = prods[offsets[i]:offsets[i + 1]]
                if accel_dtype.kind == "i":
                    out = chunk.sum(axis=0).astype(accel_dtype)
                else:
                    out = np.zeros((tm, tn), dtype=accel_dtype)
                    for row in chunk:
                        out += row
                push_data[int(p)][:] = out.reshape(-1)

    def _scatter_receives(self, push_data: List[np.ndarray]) -> None:
        trace = self.trace
        # Receive classes are applied class-by-class below, which is
        # only order-safe when at most one class writes an argument;
        # multiple classes on one argument (e.g. store + accumulate
        # receives of the same tiles) replay strictly in event order.
        classes_per_arg: Dict[int, int] = {}
        for tile_class in trace.recv_classes:
            classes_per_arg[tile_class.arg] = \
                classes_per_arg.get(tile_class.arg, 0) + 1
        sequential_args = {arg for arg, count in classes_per_arg.items()
                           if count > 1}
        for ordinal, (class_id, index) in enumerate(
            trace.recv_refs if sequential_args else ()
        ):
            tile_class = trace.recv_classes[class_id]
            if tile_class.arg not in sequential_args:
                continue
            desc = self.descriptors[tile_class.arg]
            start = desc.offset + int(tile_class.starts[index])
            idx = _tile_indices(np.asarray([start], dtype=np.int64),
                                tile_class.sizes,
                                tile_class.strides).reshape(-1)
            data = push_data[ordinal].view(desc.dtype)
            if tile_class.accumulate:
                desc.allocated[idx] += data
            else:
                desc.allocated[idx] = data
        for class_id, tile_class in enumerate(trace.recv_classes):
            if tile_class.arg in sequential_args:
                continue
            desc = self.descriptors[tile_class.arg]
            n = len(tile_class.starts)
            if n == 0:
                continue
            # Buffer rows are already in tile-index order (push payloads
            # land directly in the class matrix, see _compute_functional).
            data = self._recv_buffers[class_id].view(desc.dtype)
            starts = desc.offset + tile_class.starts
            flat = desc.allocated
            accumulate = bool(tile_class.accumulate)
            table = self._class_table(class_id, is_recv=True)
            inverse = idx_unique = None
            if table is not None:
                inverse, idx_unique = table
            if not trace.recv_disjoint[class_id]:
                for i in range(n):
                    if idx_unique is not None:
                        idx = idx_unique[inverse[i]].reshape(-1)
                    else:
                        idx = _tile_indices(starts[i:i + 1],
                                            tile_class.sizes,
                                            tile_class.strides).reshape(-1)
                    if accumulate:
                        flat[idx] += data[i]
                    else:
                        flat[idx] = data[i]
                continue
            # Vectorized rounds: within a round every target is unique,
            # across rounds time order per target is preserved.
            occurrence = _occurrence_counts(tile_class.starts)
            for ro in range(int(occurrence.max()) + 1):
                sel = occurrence == ro
                if idx_unique is not None:
                    idx = idx_unique[inverse[sel]]
                else:
                    idx = _tile_indices(starts[sel], tile_class.sizes,
                                        tile_class.strides)
                rows = data[sel].reshape(idx.shape)
                if accumulate:
                    flat[idx] += rows
                else:
                    flat[idx] = rows

    # -- staging-region payloads (data plane, plan-indexed) ---------------
    def _apply_input_region(self, mplan) -> None:
        """Write the plan's winning input-region words/tiles.

        The winner index maps are schedule-only (computed once at plan
        build); the payload bytes come from the argument arrays here,
        so the rebuilt region matches the per-tile path bit-for-bit.
        """
        engine = self.engine
        if mplan.input_word_dest.size:
            engine.input_words[mplan.input_word_dest] = \
                mplan.input_word_values
        for class_id, tile_idx, dest_pos, src_pos in \
                mplan.input_tile_writes:
            rows = self._gather(class_id, tile_idx)
            words = np.ascontiguousarray(rows).view(np.uint32)
            engine.input_words[dest_pos] = words.reshape(-1)[src_pos]

    def _apply_output_region(self, mplan, push_data) -> None:
        """Write the plan's winning output-region receive payloads."""
        engine = self.engine
        for ordinal, dest_pos, src_pos in mplan.output_writes:
            data = np.ascontiguousarray(push_data[ordinal]).view(np.uint32)
            engine.output_words[dest_pos] = data[src_pos]

    # -- accelerator end-state (data plane: final operand tiles) ----------
    def _one_tile(self, packed: int, dtype) -> Optional[np.ndarray]:
        if packed < 0:
            return None
        class_id, index = packed >> 40, packed & ((1 << 40) - 1)
        return self._gather(
            class_id, np.asarray([index], dtype=np.int64)
        )[0].astype(dtype, copy=False)

    def _finalize_accelerator(self, accel) -> None:
        plan = self.plan
        if plan.kind == "conv":
            accel.ic, accel.fhw = plan.final_config
            accel._refresh_needs()
            last_filter = self._one_tile(plan.final_b, accel.dtype)
            if last_filter is not None:
                accel._filter = last_filter.reshape(-1)
            accel._slice = []
            return
        tm, tn, tk = plan.final_config
        accel.tile_m, accel.tile_n, accel.tile_k = tm, tn, tk
        accel._refresh_needs()
        last_a = self._one_tile(plan.final_a, accel.dtype)
        accel._a = last_a.reshape(tm, tk) if last_a is not None \
            else np.zeros((tm, tk), accel.dtype)
        last_b = self._one_tile(plan.final_b, accel.dtype)
        accel._b = last_b.reshape(tk, tn) if last_b is not None \
            else np.zeros((tk, tn), accel.dtype)
        accel._c = np.zeros((tm, tn), accel.dtype)


def _occurrence_counts(starts: np.ndarray) -> np.ndarray:
    """Per-event occurrence index of its start value, in event order."""
    order = np.argsort(starts, kind="stable")
    sorted_starts = starts[order]
    new_group = np.empty(starts.size, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_starts[1:], sorted_starts[:-1], out=new_group[1:])
    group_pos = np.flatnonzero(new_group)
    base = np.repeat(group_pos, np.diff(np.r_[group_pos, starts.size]))
    occurrence = np.empty(starts.size, dtype=np.int64)
    occurrence[order] = np.arange(starts.size) - base
    return occurrence
