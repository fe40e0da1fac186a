"""Tests for the compiled-kernel cache (flow-exploration sweeps)."""

import numpy as np
import pytest

from repro.accelerators import make_matmul_system
from repro.accelerators.catalog import VERSION_FLOWS
from repro.compiler import (
    AXI4MLIRCompiler,
    KernelCache,
    accelerator_fingerprint,
    default_kernel_cache,
)
from repro.soc import make_pynq_z2


@pytest.fixture
def cache():
    return KernelCache()


def make_compiler(cache, version=3, size=8, flow="Ns", **kwargs):
    _, info = make_matmul_system(version, size, flow=flow)
    return AXI4MLIRCompiler(info, kernel_cache=cache, **kwargs)


class TestKernelCache:
    def test_second_compile_hits(self, cache):
        kernel_a = make_compiler(cache).compile_matmul(32, 32, 32)
        kernel_b = make_compiler(cache).compile_matmul(32, 32, 32)
        stats = cache.stats()
        trace_stats = stats.pop("trace")
        assert stats == {"hits": 1, "misses": 1, "entries": 1}
        assert set(trace_stats) == {"synthesized", "recorded",
                                    "synth_fallback", "disk_loaded",
                                    "manual_recorded", "manual_fallback",
                                    "metrics_plan_hits",
                                    "metrics_plan_misses",
                                    "metrics_plan_fallback",
                                    "component_memo_hits",
                                    "component_memo_misses"}
        assert kernel_a.entry_point is kernel_b.entry_point
        assert kernel_a.source == kernel_b.source

    def test_specialized_copies_share_lowering(self, cache):
        fast = make_compiler(cache, specialized_copies=True) \
            .compile_matmul(32, 32, 32)
        slow = make_compiler(cache, specialized_copies=False) \
            .compile_matmul(32, 32, 32)
        assert cache.misses == 1 and cache.hits == 1
        assert fast.entry_point is slow.entry_point
        assert fast.specialized_copies and not slow.specialized_copies

    def test_distinct_configs_do_not_collide(self, cache):
        make_compiler(cache, flow="Ns").compile_matmul(32, 32, 32)
        make_compiler(cache, flow="Cs").compile_matmul(32, 32, 32)
        make_compiler(cache, flow="Ns").compile_matmul(64, 32, 32)
        make_compiler(cache, size=16, flow="Ns").compile_matmul(32, 32, 32)
        assert cache.misses == 4 and cache.hits == 0

    def test_flow_sweep_compiles_each_config_once(self, cache):
        """The fig11 acceptance criterion: one lowering per (flow, shape)."""
        configs = [
            (dims, size, version, flow)
            for dims in (32, 64)
            for size in (8, 16)
            for version in (2, 3)
            for flow in VERSION_FLOWS[version]
        ]
        for specialized in (False, True):  # fig11 then fig12/13 settings
            for dims, size, version, flow in configs:
                _, info = make_matmul_system(version, size, flow=flow)
                compiler = AXI4MLIRCompiler(
                    info, specialized_copies=specialized, kernel_cache=cache
                )
                compiler.compile_matmul(dims, dims, dims)
        assert cache.misses == len(configs)
        assert cache.hits == len(configs)

    def test_cached_kernel_runs_correctly(self, cache):
        hw, info = make_matmul_system(3, 8, flow="Cs")
        AXI4MLIRCompiler(info, kernel_cache=cache).compile_matmul(32, 32, 32)
        kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
            .compile_matmul(32, 32, 32)
        assert cache.hits == 1
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(5)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        counters = kernel.run(board, a, b, c)
        assert np.array_equal(c, a.astype(np.int64) @ b.astype(np.int64))
        assert counters.task_clock_ms() > 0

    def test_cache_counters_match_uncached(self):
        """A cache hit must not change measured results."""

        def measure(**compiler_kwargs):
            hw, info = make_matmul_system(3, 8, flow="As")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, **compiler_kwargs) \
                .compile_matmul(32, 32, 32)
            rng = np.random.default_rng(9)
            a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            c = np.zeros((32, 32), np.int32)
            return kernel.run(board, a, b, c).as_dict()

        cache = KernelCache()
        first = measure(kernel_cache=cache)
        cached = measure(kernel_cache=cache)
        uncached = measure(use_kernel_cache=False)
        assert cache.hits == 1
        assert first == cached == uncached

    def test_eviction_respects_maxsize(self):
        cache = KernelCache(maxsize=2)
        for dims in (16, 32, 48):
            make_compiler(cache).compile_matmul(dims, dims, dims)
        assert len(cache) == 2
        make_compiler(cache).compile_matmul(16, 16, 16)  # evicted → miss
        assert cache.misses == 4

    def test_opt_out_bypasses_global_cache(self):
        _, info = make_matmul_system(3, 8, flow="Ns")
        compiler = AXI4MLIRCompiler(info, use_kernel_cache=False)
        assert compiler.kernel_cache is None

    def test_default_is_process_global(self):
        _, info = make_matmul_system(3, 8, flow="Ns")
        compiler = AXI4MLIRCompiler(info)
        assert compiler.kernel_cache is default_kernel_cache()

    def test_fingerprint_distinguishes_flows(self):
        _, ns = make_matmul_system(3, 8, flow="Ns")
        _, cs = make_matmul_system(3, 8, flow="Cs")
        assert accelerator_fingerprint(ns) != accelerator_fingerprint(cs)
        _, ns2 = make_matmul_system(3, 8, flow="Ns")
        assert accelerator_fingerprint(ns) == accelerator_fingerprint(ns2)


@pytest.mark.ambient_faults_incompatible
class TestDiskKernelStore:
    """The on-disk store (REPRO_KERNEL_CACHE_DIR / .repro_cache)."""

    @staticmethod
    def entry_files(store) -> list:
        import pathlib
        return sorted(pathlib.Path(store, "objects").glob("*/*.entry"))

    def test_load_or_build_across_cache_instances(self, tmp_path):
        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        built = make_compiler(writer).compile_matmul(32, 32, 32)
        assert writer.disk_hits == 0 and writer.disk_misses == 1

        reader = KernelCache(disk_dir=store)  # fresh memory cache
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        assert loaded.source == built.source
        assert loaded.func_name == built.func_name
        assert loaded.parameters == built.parameters
        assert loaded.schedule_table == built.schedule_table
        assert loaded.plan is not None

    def test_env_var_enables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE_DIR",
                           str(tmp_path / "env_cache"))
        writer = KernelCache()
        make_compiler(writer).compile_matmul(16, 16, 16)
        reader = KernelCache()
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 1
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["disk_dir"].endswith("env_cache")

    def test_stats_stay_minimal_without_store(self, cache):
        make_compiler(cache).compile_matmul(16, 16, 16)
        assert set(cache.stats()) == {"hits", "misses", "entries", "trace"}

    def test_loaded_kernel_runs_identically(self, tmp_path):
        store = str(tmp_path / "repro_cache")

        def measure(kernel_cache):
            hw, info = make_matmul_system(3, 8, flow="Cs")
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            kernel = AXI4MLIRCompiler(info, kernel_cache=kernel_cache) \
                .compile_matmul(32, 32, 32)
            rng = np.random.default_rng(21)
            a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
            c = np.zeros((32, 32), np.int32)
            counters = kernel.run(board, a, b, c)
            return counters.as_dict(), c.tobytes()

        fresh = measure(KernelCache(disk_dir=store))
        from_disk_cache = KernelCache(disk_dir=store)
        loaded = measure(from_disk_cache)
        assert from_disk_cache.disk_hits == 1
        assert fresh == loaded

    def test_store_version_bump_invalidates_entries(self, tmp_path,
                                                    monkeypatch):
        import repro.compiler as compiler_mod

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        make_compiler(writer).compile_matmul(16, 16, 16)
        monkeypatch.setattr(compiler_mod, "KERNEL_STORE_VERSION",
                            compiler_mod.KERNEL_STORE_VERSION + 1)
        reader = KernelCache(disk_dir=store)
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 0  # old-format entry never loads

    def _run(self, kernel, seed=33):
        hw, _ = make_matmul_system(3, 8, flow="Ns")
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(seed)
        a = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        b = rng.integers(-5, 5, (32, 32)).astype(np.int32)
        c = np.zeros((32, 32), np.int32)
        counters = kernel.run(board, a, b, c)
        return counters.as_dict(), c.tobytes()

    def test_trace_round_trip(self, tmp_path):
        """Warm processes skip recording *and* synthesis entirely."""
        from repro.execution import TRACE_COUNTERS

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)   # first run persists the trace

        before = dict(TRACE_COUNTERS)
        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        assert TRACE_COUNTERS["disk_loaded"] == before["disk_loaded"] + 1
        trace = loaded.trace_state.trace
        assert trace is not None
        assert trace.num_events == kernel.trace_state.trace.num_events
        # The decoded replay plan rides along with the trace.
        assert trace.decoded
        warmed = self._run(loaded)
        assert warmed == fresh
        assert TRACE_COUNTERS["synthesized"] == before["synthesized"]
        assert TRACE_COUNTERS["recorded"] == before["recorded"]

    def test_stale_trace_schema_evicts_trace_only(self, tmp_path,
                                                  monkeypatch):
        import repro.compiler as compiler_mod

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)

        monkeypatch.setattr(compiler_mod, "TRACE_SCHEMA_VERSION",
                            compiler_mod.TRACE_SCHEMA_VERSION + 1)
        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1      # the lowered kernel still loads
        assert loaded.trace_state.trace is None  # stale trace evicted
        assert self._run(loaded) == fresh  # rebuilt via synthesis

    def test_metrics_plan_round_trip(self, tmp_path):
        """Warm processes apply the persisted MetricsPlan in O(state)."""
        from repro.execution import METRICS_PLAN_COUNTERS

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)   # first run persists trace + plan
        assert kernel.trace_state.trace.metrics_plans

        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1
        trace = loaded.trace_state.trace
        assert trace is not None and trace.metrics_plans
        before = dict(METRICS_PLAN_COUNTERS)
        warmed = self._run(loaded)
        assert warmed == fresh
        # The fresh board fingerprints identically, so the loaded plan
        # is applied — no rebuild.
        assert METRICS_PLAN_COUNTERS["metrics_plan_hits"] \
            == before["metrics_plan_hits"] + 1
        assert METRICS_PLAN_COUNTERS["metrics_plan_misses"] \
            == before["metrics_plan_misses"]

    def test_stale_metrics_schema_evicts_only_plan(self, tmp_path,
                                                   monkeypatch):
        import repro.compiler as compiler_mod

        store = str(tmp_path / "repro_cache")
        writer = KernelCache(disk_dir=store)
        kernel = make_compiler(writer).compile_matmul(32, 32, 32)
        fresh = self._run(kernel)

        monkeypatch.setattr(compiler_mod, "METRICS_PLAN_SCHEMA_VERSION",
                            compiler_mod.METRICS_PLAN_SCHEMA_VERSION + 1)
        reader = KernelCache(disk_dir=store)
        loaded = make_compiler(reader).compile_matmul(32, 32, 32)
        assert reader.disk_hits == 1           # the kernel still loads
        trace = loaded.trace_state.trace
        assert trace is not None               # ...and so does the trace
        assert not trace.metrics_plans         # stale plans evicted
        assert self._run(loaded) == fresh      # rebuilt from the trace
        # That replay must refresh the store with current-schema plans:
        # a third process loads them and takes the O(state) hit path.
        refreshed = KernelCache(disk_dir=store)
        reloaded = make_compiler(refreshed).compile_matmul(32, 32, 32)
        assert reloaded.trace_state.trace.metrics_plans

    def test_corrupt_entry_is_quarantined_and_rebuilt(self, tmp_path):
        """Corruption is counted apart from misses, the file moves to
        corrupt/, and the rebuild republishes a loadable entry."""
        store = tmp_path / "repro_cache"
        writer = KernelCache(disk_dir=str(store))
        make_compiler(writer).compile_matmul(16, 16, 16)
        entries = self.entry_files(store)
        assert len(entries) == 1
        entries[0].write_bytes(b"not a kernel store entry")

        reader = KernelCache(disk_dir=str(store))
        kernel = make_compiler(reader).compile_matmul(16, 16, 16)
        assert kernel.source  # rebuilt from scratch
        assert reader.disk_corrupt == 1
        assert reader.disk_hits == 0 and reader.disk_misses == 0
        quarantined = list((store / "corrupt").iterdir())
        assert len(quarantined) == 1  # evidence kept, never re-read

        # The rebuild republished: a third process loads cleanly.
        third = KernelCache(disk_dir=str(store))
        make_compiler(third).compile_matmul(16, 16, 16)
        assert third.disk_hits == 1
        assert third.disk_corrupt == 0

    def test_truncated_entry_is_corrupt_not_miss(self, tmp_path):
        """A writer killed mid-crash leaves either no entry (tmp files
        are invisible) or, with a torn tool, a short file — which must
        fail the checksum, not load garbage."""
        store = tmp_path / "repro_cache"
        writer = KernelCache(disk_dir=str(store))
        make_compiler(writer).compile_matmul(16, 16, 16)
        entry = self.entry_files(store)[0]
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        reader = KernelCache(disk_dir=str(store))
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_corrupt == 1 and reader.disk_misses == 0

    def test_legacy_pickle_entries_are_ignored(self, tmp_path):
        """Version-skew: store-v2 flat ``kernel-*.pkl`` files alongside
        new entries are never consulted (and never crash the loader)."""
        store = tmp_path / "repro_cache"
        store.mkdir()
        (store / "kernel-deadbeef0000-abc.pkl").write_bytes(b"\x80\x04old")
        cache = KernelCache(disk_dir=str(store))
        make_compiler(cache).compile_matmul(16, 16, 16)
        assert cache.disk_misses == 1 and cache.disk_corrupt == 0
        reader = KernelCache(disk_dir=str(store))
        make_compiler(reader).compile_matmul(16, 16, 16)
        assert reader.disk_hits == 1
        assert (store / "kernel-deadbeef0000-abc.pkl").exists()

    def test_publish_leaves_no_tmp_litter(self, tmp_path):
        store = tmp_path / "repro_cache"
        cache = KernelCache(disk_dir=str(store))
        kernel = make_compiler(cache).compile_matmul(32, 32, 32)
        self._run(kernel)  # persist hook rewrites the entry
        leftovers = [p for p in store.rglob("*") if ".tmp-" in p.name]
        assert leftovers == []

    def test_stale_store_version_counts_stale_not_hit(self, tmp_path):
        """A checksum-valid entry of another store version is stale: it
        is neither a hit nor corrupt, and the rebuild overwrites it."""
        import repro.compiler as compiler_mod
        from repro import counters
        from repro.store import STORE_COUNTERS, KernelStore

        store = tmp_path / "repro_cache"
        writer = KernelCache(disk_dir=str(store))
        make_compiler(writer).compile_matmul(16, 16, 16)
        entry = self.entry_files(store)[0]
        name = entry.name[:-len(".entry")]
        raw = KernelStore(store)  # no version check: reads any payload
        status, payload = raw.load(name, count=False)
        assert status == "hit"
        payload["store_version"] = compiler_mod.KERNEL_STORE_VERSION - 1
        assert raw.store(name, payload)

        counters.reset("store")
        reader = KernelCache(disk_dir=str(store))
        kernel = make_compiler(reader).compile_matmul(16, 16, 16)
        assert kernel.source  # rebuilt
        assert STORE_COUNTERS["store_stale"] == 1
        assert reader.disk_stale == 1
        assert STORE_COUNTERS["store_hits"] == 0
        assert reader.disk_hits == 0 and reader.disk_corrupt == 0
        assert STORE_COUNTERS["store_quarantined"] == 0
        # The rebuild republished a current entry over the stale one.
        third = KernelCache(disk_dir=str(store))
        make_compiler(third).compile_matmul(16, 16, 16)
        assert third.disk_hits == 1 and third.disk_stale == 0


class TestColumnarStoreEntries:
    """Stored traces are int64 columns: an entry's manifest holds a
    fixed number of nodes however many tiles the kernel moves."""

    @staticmethod
    def _run(kernel, dims, seed=5):
        m, n, k = dims
        hw, _ = make_matmul_system(3, 4, flow="Cs")
        board = make_pynq_z2()
        board.attach_accelerator(hw)
        rng = np.random.default_rng(seed)
        a = rng.integers(-4, 4, (m, k)).astype(np.int32)
        b = rng.integers(-4, 4, (k, n)).astype(np.int32)
        c = np.zeros((m, n), np.int32)
        counts = kernel.run(board, a, b, c)
        return counts.as_dict(), c.tobytes(), board.clock

    @staticmethod
    def _manifest_nodes(store) -> int:
        import json
        import pathlib

        from repro.store import unpack_entry

        (entry,) = pathlib.Path(store, "objects").glob("*/*.entry")
        manifest, _ = unpack_entry(entry.read_bytes())
        pending, nodes = [json.loads(manifest)["payload"]], 0
        while pending:
            node = pending.pop()
            nodes += 1
            if isinstance(node, list):
                pending.extend(node)
        return nodes

    @staticmethod
    def _arrays(value, seen=None):
        """Every ndarray reachable from a decoded payload."""
        seen = set() if seen is None else seen
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield value
            return
        if isinstance(value, dict):
            children = [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple, set)):
            children = list(value)
        elif hasattr(value, "__dict__") or hasattr(value, "__slots__"):
            names = list(getattr(value, "__dict__", {})) + \
                list(getattr(type(value), "__slots__", ()))
            children = [getattr(value, n) for n in names
                        if hasattr(value, n)]
        else:
            return
        for child in children:
            yield from TestColumnarStoreEntries._arrays(child, seen)

    @staticmethod
    def _compiler(cache):
        # No CPU tiling: the larger kernel would get an extra loop level,
        # a different schedule rather than more tiles of the same one.
        return make_compiler(cache, version=3, size=4, flow="Cs",
                             enable_cpu_tiling=False)

    def _build(self, store, dims):
        from repro.execution import TRACE_COUNTERS

        before = TRACE_COUNTERS["synthesized"]
        cache = KernelCache(disk_dir=str(store))
        kernel = self._compiler(cache).compile_matmul(*dims)
        result = self._run(kernel, dims)  # persists trace + plans
        assert TRACE_COUNTERS["synthesized"] == before + 1
        trace = kernel.trace_state.trace
        assert trace.metrics_plans
        return kernel, result

    def test_round_trip_bit_identical_and_manifest_size_flat(self,
                                                             tmp_path):
        from repro.store import KernelStore

        dims = (128, 128, 8)
        store = tmp_path / "small"
        kernel, fresh = self._build(store, dims)
        trace = kernel.trace_state.trace
        assert trace.recv_class.size > 1000
        assert trace.recv_class.dtype == np.int64
        assert trace.flush_item_counts.dtype == np.int64

        reader = KernelCache(disk_dir=str(store))
        loaded = self._compiler(reader).compile_matmul(*dims)
        assert reader.disk_hits == 1
        assert loaded.trace_state.trace.metrics_plans
        assert self._run(loaded, dims) == fresh

        (entry,) = (store / "objects").glob("*/*.entry")
        status, payload = KernelStore(store).load(entry.stem, count=False)
        assert status == "hit"
        arrays = list(self._arrays(payload))
        assert len(arrays) > 10
        assert all(array.flags.writeable for array in arrays)

        big = tmp_path / "big"
        big_kernel, _ = self._build(big, (256, 256, 8))
        assert big_kernel.trace_state.trace.recv_class.size \
            == 4 * trace.recv_class.size
        assert self._manifest_nodes(big) == self._manifest_nodes(store)


def test_ci_cache_key_tracks_store_versions():
    """CI's actions/cache key names the store and trace versions, so a
    version bump never restores a cache of dead entries."""
    import pathlib
    import re

    from repro.compiler import KERNEL_STORE_VERSION, TRACE_SCHEMA_VERSION

    ci = pathlib.Path(__file__).resolve().parent.parent \
        / ".github" / "workflows" / "ci.yml"
    keys = re.findall(r"repro-cache-.*", ci.read_text())
    assert len(keys) >= 2  # the key and its restore-keys prefix
    token = f"-store{KERNEL_STORE_VERSION}-schema{TRACE_SCHEMA_VERSION}-"
    for key in keys:
        assert token in key, key
