"""Model-granularity runs (fig16/fig17) and the model-job worker pool.

The model figures run each kernel sequence on one shared board, so the
cache warm-state carries from step to step; every step takes the
ordinary per-kernel metrics-plan path.  Under test: the warm-state
carry itself, the disk store staying quiet on a warm re-run, and the
``run_model_jobs`` pool (results and diagnostics match inline runs).

The sequence helpers below are also the subject of the differential
oracle in ``test_metrics_plan.py`` (fast path vs reference
interpreter).
"""

import numpy as np
import pytest

from repro import counters
from repro.accelerators import ConvAccelerator, make_conv_system, \
    make_matmul_system
from repro.baselines import cpu_conv, manual_conv_driver
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.execution import (
    MODEL_PLAN_COUNTERS,
    run_model_jobs,
)
from repro.soc import make_pynq_z2
from repro.soc.cache import warm_state_digest

#: (m, n, k, size, version, flow, accel_size) — two small fig17-style steps.
MATMUL_SPECS = ((16, 16, 16, 8, 3, "Ns", None),
                (32, 16, 16, 8, 2, "As", None))


@pytest.fixture(autouse=True)
def _fresh_model_counters():
    counters.reset("model_plan")


def _matmul_data(m, n, k, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.integers(-7, 7, (m, k)).astype(np.int32)
    b = rng.integers(-7, 7, (k, n)).astype(np.int32)
    return a, b


def _step_state(counters, out, board):
    return (counters.as_dict(), out.tobytes(),
            warm_state_digest(board.caches), board.clock)


def run_matmul_sequence(specs=MATMUL_SPECS):
    """Run ``specs`` back-to-back on one board; return per-step states."""
    board = make_pynq_z2()
    states = []
    for spec in specs:
        m, n, k, size, version, flow, accel = spec
        hw, info = make_matmul_system(version, size, flow=flow,
                                      accel_size=accel)
        board.attach_accelerator(hw)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache()
        ).compile_matmul(m, n, k)
        a, b = _matmul_data(m, n, k)
        c = np.zeros((m, n), np.int32)
        counters = kernel.run(board, a, b, c)
        expected = (a.astype(np.int64) @ b.astype(np.int64))
        assert np.array_equal(c, expected)
        states.append(_step_state(counters, c, board))
    return states


def run_conv_sequence():
    """A manual conv step, then a generated one, sharing one board."""
    board = make_pynq_z2()
    rng = np.random.default_rng(23)
    image = rng.integers(-4, 4, (1, 4, 8, 8)).astype(np.int32)
    weights = rng.integers(-4, 4, (2, 4, 3, 3)).astype(np.int32)
    expected, _ = cpu_conv(make_pynq_z2(), image, weights, 1)
    states = []

    out = np.zeros((1, 2, 6, 6), np.int32)
    board.attach_accelerator(ConvAccelerator(max_ic=4, max_fhw=3))
    counters = manual_conv_driver(board, image, weights, out, 1)
    assert np.array_equal(out, expected)
    states.append(_step_state(counters, out, board))

    hw, info = make_conv_system(4, 3)
    board.attach_accelerator(hw)
    kernel = AXI4MLIRCompiler(
        info, kernel_cache=KernelCache()
    ).compile_conv(1, 4, 8, 2, 3, 1)
    out = np.zeros((1, 2, 6, 6), np.int32)
    counters = kernel.run(board, image, weights, out)
    assert np.array_equal(out, expected)
    states.append(_step_state(counters, out, board))
    return states


class TestWarmStateCarry:
    """The fig16/fig17 accounting fix: layers share one warm board."""

    def _step_pair(self, shared_board: bool):
        m, n, k, size, version, flow = 32, 32, 32, 8, 3, "Ns"
        hw, info = make_matmul_system(version, size, flow=flow)
        kernel = AXI4MLIRCompiler(
            info, kernel_cache=KernelCache()
        ).compile_matmul(m, n, k)
        a, b = _matmul_data(m, n, k)
        boards = []
        states = []
        board = make_pynq_z2()
        for _ in range(2):
            if not shared_board:
                board = make_pynq_z2()
            board.attach_accelerator(
                make_matmul_system(version, size, flow=flow)[0])
            c = np.zeros((m, n), np.int32)
            counters = kernel.run(board, a, b, c)
            states.append(counters.as_dict())
            boards.append(board)
        return states, boards

    def test_second_step_sees_warm_state(self):
        cold, cold_boards = self._step_pair(shared_board=False)
        warm, warm_boards = self._step_pair(shared_board=True)
        # Identical kernel, identical data: only the carried board
        # state differs, and it must show up in the accounting.
        assert warm[0] == cold[0]
        assert warm[1] != cold[1]
        # Each run wraps fresh simulated allocations, so the carried
        # LRU contents change eviction *victims*, never the compulsory
        # miss count — a drift here means the carry went wrong.
        assert warm[1]["cache_misses"] == cold[1]["cache_misses"]
        # The second warm step starts from (and extends) the first
        # step's live LRU contents instead of a cold hierarchy.
        assert warm_state_digest(warm_boards[1].caches) != \
            warm_state_digest(cold_boards[1].caches)
        assert warm_state_digest(cold_boards[1].caches) == \
            warm_state_digest(cold_boards[0].caches)


class TestPersistence:
    @pytest.mark.ambient_faults_incompatible
    def test_warm_model_run_writes_nothing(self, monkeypatch, tmp_path):
        """A model re-run against a filled store is all plan hits and
        rewrites no entry: every kernel's first replay persisted its
        metrics plans, so a fresh process finds them on disk."""
        from repro.compiler import default_kernel_cache
        from repro.execution.metrics import METRICS_PLAN_COUNTERS
        from repro.experiments.harness import run_matmul_model
        from repro.store import STORE_COUNTERS

        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR", str(tmp_path))
        default_kernel_cache().clear()
        cold = run_matmul_model(MATMUL_SPECS)
        # Drop the in-memory kernels: the next run loads from disk.
        default_kernel_cache().clear()
        writes = STORE_COUNTERS["store_writes"]
        hits = METRICS_PLAN_COUNTERS["metrics_plan_hits"]
        misses = METRICS_PLAN_COUNTERS["metrics_plan_misses"]
        warm = run_matmul_model(MATMUL_SPECS)
        default_kernel_cache().clear()
        assert STORE_COUNTERS["store_writes"] == writes
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] == \
            hits + len(MATMUL_SPECS)
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] == misses
        assert [c.as_dict() for c in warm] == [c.as_dict() for c in cold]


class TestWorkerPool:
    def test_pool_results_match_inline(self, monkeypatch):
        from repro.experiments.harness import run_matmul_model

        specs_a = (MATMUL_SPECS[0],)
        specs_b = (MATMUL_SPECS[1],)
        jobs = [(run_matmul_model, (specs_a,)),
                (run_matmul_model, (specs_b,))]
        monkeypatch.setenv("REPRO_WORKERS", "1")
        inline = run_model_jobs(jobs)
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 0
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = run_model_jobs(jobs)
        assert [[c.as_dict() for c in r] for r in pooled] == \
            [[c.as_dict() for c in r] for r in inline]

    def test_pool_merges_worker_diagnostics(self, monkeypatch):
        from repro.compiler import default_kernel_cache
        from repro.execution import STAGE_TIMINGS, diagnostics
        from repro.execution.metrics import METRICS_PLAN_COUNTERS
        from repro.execution.model_plan import (
            merge_worker_diagnostics,
            snapshot_diagnostics,
        )
        from repro.experiments.harness import run_matmul_model

        # Fresh kernels, so the workers build their metrics plans
        # instead of hitting plans an earlier test cached in memory.
        default_kernel_cache().clear()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        before_build = STAGE_TIMINGS["metrics_plan_build_s"]
        before_misses = METRICS_PLAN_COUNTERS["metrics_plan_misses"]
        run_model_jobs([(run_matmul_model, ((MATMUL_SPECS[0],),)),
                        (run_matmul_model, ((MATMUL_SPECS[1],),))])
        # The builds happened in forked workers; the parent's stage
        # timings and counters must still account for them.
        assert MODEL_PLAN_COUNTERS["model_plan_workers"] == 2
        assert STAGE_TIMINGS["metrics_plan_build_s"] > before_build
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] > \
            before_misses
        # Worker deltas carry the diagnostics() sections (minus native)
        # plus kernel_cache; a section the registry does not own, like
        # the benchmark tracer's perfbench, is ignored by the merge.
        assert set(snapshot_diagnostics()) == \
            set(diagnostics()) - {"native"} | {"kernel_cache"}
        worker_delta = {"trace_sources": {"synthesized": 2},
                        "store": {"store_hits": 1}}
        start = counters.snapshot()
        merge_worker_diagnostics(worker_delta)
        plain = counters.snapshot()
        merge_worker_diagnostics(
            {**worker_delta, "perfbench": {"bytes_written": 64}})
        assert counters.delta(counters.snapshot(), plain) == \
            counters.delta(plain, start)
