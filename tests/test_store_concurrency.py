"""The kernel store under concurrency, crashes, and size pressure.

The multi-process stress run is the acceptance test for the crash-safe
store: four processes sharing one ``REPRO_KERNEL_CACHE_DIR`` must
produce bit-identical PerfCounters and outputs, leave no temp litter,
quarantine nothing, and end with exactly one published entry per
kernel configuration.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from repro import counters, faults
from repro.accelerators import make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.soc import make_pynq_z2
from repro.store import (
    KernelStore,
    STORE_COUNTERS,
    StoreFormatError,
    UnencodablePayload,
    decode_payload,
    encode_payload,
    pack_entry,
    unpack_entry,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_CACHE_MAX_BYTES", raising=False)
    faults.reset_faults()
    counters.reset("store")


# -- codec / container units ------------------------------------------------

class TestCodec:
    def round_trip(self, value):
        manifest, npz = encode_payload(value)
        return decode_payload(manifest, npz)

    def test_scalars_and_containers(self):
        value = {
            "none": None, "flag": True, "int": 1 << 70,
            "float": 0.1 + 0.2, "text": "snake",
            ("tuple", "key"): [1, (2, 3), {4, 5}],
            "od": OrderedDict([(2, "b"), (1, "a")]),
        }
        result = self.round_trip(value)
        assert result == value
        assert isinstance(result[("tuple", "key")][1], tuple)
        assert list(result["od"]) == [2, 1]  # order preserved

    def test_float_bits_survive(self):
        for bits in (0.1, 1e-309, float("inf"), 2.0 ** 53 + 1):
            assert self.round_trip(bits) == bits

    def test_ndarrays_round_trip_bitwise(self):
        arrays = [
            np.arange(7, dtype=np.int64),
            np.array([[1.5, -0.0]], dtype=np.float64),
            np.zeros(0, dtype=np.uint32),
            np.array([True, False]),
            np.int8([1, -1]),
        ]
        result = self.round_trip(arrays)
        for original, loaded in zip(arrays, result):
            assert loaded.dtype == original.dtype
            assert loaded.shape == original.shape
            assert loaded.tobytes() == original.tobytes()

    def test_numpy_scalars_become_plain(self):
        assert self.round_trip(np.int64(5)) == 5
        assert self.round_trip((np.float64(2.5),)) == (2.5,)

    def test_object_dtype_refused(self):
        with pytest.raises(UnencodablePayload):
            encode_payload(np.array([object()], dtype=object))

    def test_arbitrary_classes_refused(self):
        class Sneaky:
            pass

        with pytest.raises(UnencodablePayload):
            encode_payload({"plan": Sneaky()})

    def test_non_whitelisted_tag_rejected_on_load(self):
        manifest, npz = encode_payload({"x": 1})
        hostile = manifest.replace(b'{"format":1', b'{"format":1', 1)
        document = json.loads(hostile)
        document["payload"] = ["o", "os.system", [["cmd", "true"]]]
        with pytest.raises(StoreFormatError):
            decode_payload(json.dumps(document).encode(), npz)


class TestContainer:
    def test_pack_unpack(self):
        manifest, npz = encode_payload({"k": np.arange(3)})
        blob = pack_entry(manifest, npz)
        assert unpack_entry(blob) == (manifest, npz)

    @pytest.mark.parametrize("mutate", [
        lambda blob: b"JUNK" + blob[4:],            # bad magic
        lambda blob: blob[: len(blob) // 2],         # truncation
        lambda blob: blob[:-1],                      # short tail
        lambda blob: blob[:-5] + bytes([blob[-5] ^ 0xFF]) + blob[-4:],
        lambda blob: b"",                            # empty file
    ])
    def test_any_mutation_fails_checksum(self, mutate):
        manifest, npz = encode_payload({"k": np.arange(3)})
        blob = mutate(pack_entry(manifest, npz))
        with pytest.raises(StoreFormatError):
            unpack_entry(blob)


# -- the store proper -------------------------------------------------------

def _payload(tag, words=64):
    return {"tag": tag, "data": np.arange(words, dtype=np.int64)}


class TestKernelStore:
    def test_load_statuses(self, tmp_path):
        store = KernelStore(tmp_path)
        assert store.load("absent") == ("miss", None)
        assert store.store("present", _payload("a"))
        status, payload = store.load("present")
        assert status == "hit"
        assert payload["tag"] == "a"

    def test_corrupt_load_quarantines(self, tmp_path):
        store = KernelStore(tmp_path)
        store.store("entry", _payload("a"))
        path = store.entry_path("entry")
        path.write_bytes(b"scribble")
        assert store.load("entry") == ("corrupt", None)
        assert not path.exists()
        assert list(store.corrupt_dir().iterdir())
        assert STORE_COUNTERS["store_corrupt"] == 1
        assert STORE_COUNTERS["store_quarantined"] == 1
        # The quarantined name is free for a clean republish.
        assert store.store("entry", _payload("b"))
        assert store.load("entry")[0] == "hit"

    def test_build_lock_mutual_exclusion(self, tmp_path):
        store = KernelStore(tmp_path, lock_timeout_s=0.2)
        entered = threading.Event()
        release = threading.Event()
        inner_result = {}

        def holder():
            with store.build_lock("entry") as acquired:
                inner_result["holder"] = acquired
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert entered.wait(timeout=10)
            with store.build_lock("entry") as acquired:
                inner_result["contender"] = acquired
        finally:
            release.set()
            thread.join()
        assert inner_result == {"holder": True, "contender": False}
        assert STORE_COUNTERS["store_lock_timeouts"] == 1
        # Released: immediately acquirable again.
        with store.build_lock("entry") as acquired:
            assert acquired

    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = KernelStore(tmp_path)
        for index, name in enumerate(["old", "mid", "new"]):
            store.store(name, _payload(name))
            stamp = 1_000_000 + index * 1000
            os.utime(store.entry_path(name), (stamp, stamp))
        entry_size = store.entry_path("old").stat().st_size
        evicted = store.gc(max_bytes=2 * entry_size)
        assert evicted == 1
        assert not store.entry_path("old").exists()
        assert store.entry_path("mid").exists()
        assert store.entry_path("new").exists()
        assert STORE_COUNTERS["store_evictions"] == 1

    def test_loads_refresh_recency(self, tmp_path):
        store = KernelStore(tmp_path)
        for index, name in enumerate(["a", "b"]):
            store.store(name, _payload(name))
            stamp = 1_000_000 + index * 1000
            os.utime(store.entry_path(name), (stamp, stamp))
        store.load("a")  # touch: now newer than b
        entry_size = store.entry_path("a").stat().st_size
        store.gc(max_bytes=entry_size)
        assert store.entry_path("a").exists()
        assert not store.entry_path("b").exists()

    def test_gc_sweeps_stale_tmp_litter(self, tmp_path):
        store = KernelStore(tmp_path)
        store.store("entry", _payload("a"))
        shard_dir = store.entry_path("entry").parent
        stale = shard_dir / "crashed.entry.tmp-1-2-3"
        stale.write_bytes(b"partial")
        os.utime(stale, (1_000_000, 1_000_000))
        fresh = shard_dir / "racing.entry.tmp-4-5-6"
        fresh.write_bytes(b"in-flight")
        store.gc(max_bytes=None)
        assert not stale.exists()   # crash litter swept
        assert fresh.exists()       # concurrent writer left alone

    def test_size_cap_env_triggers_gc_on_publish(self, tmp_path,
                                                 monkeypatch):
        store = KernelStore(tmp_path)
        store.store("first", _payload("a"))
        size = store.entry_path("first").stat().st_size
        os.utime(store.entry_path("first"), (1_000_000, 1_000_000))
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MAX_BYTES", str(size + 10))
        store.store("second", _payload("b"))
        assert not store.entry_path("first").exists()
        assert store.entry_path("second").exists()


# -- cross-process stress ---------------------------------------------------

_STRESS_CONFIGS = [(3, 8, "Cs", 32), (2, 4, "As", 16)]

_WORKER = r"""
import hashlib, json, sys
import numpy as np
from repro.accelerators import make_matmul_system
from repro.compiler import AXI4MLIRCompiler, KernelCache
from repro.soc import make_pynq_z2

store = sys.argv[1]
results = []
for version, size, flow, dims in [(3, 8, "Cs", 32), (2, 4, "As", 16)]:
    hw, info = make_matmul_system(version, size, flow=flow)
    cache = KernelCache(disk_dir=store)
    kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
        .compile_matmul(dims, dims, dims)
    board = make_pynq_z2()
    board.attach_accelerator(hw)
    rng = np.random.default_rng(99)
    a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
    b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
    c = np.zeros((dims, dims), np.int32)
    counters = kernel.run(board, a, b, c)
    results.append({
        "counters": counters.as_dict(),
        "digest": hashlib.sha256(c.tobytes()).hexdigest(),
        "corrupt": cache.disk_corrupt,
    })
print(json.dumps(results))
"""


def _subprocess_env(store_dir):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_KERNEL_CACHE_DIR", None)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class TestMultiProcessStress:
    def _reference(self, store_dir):
        """The same work as one worker, run in-process, JSON-normalized."""
        results = []
        for version, size, flow, dims in _STRESS_CONFIGS:
            hw, info = make_matmul_system(version, size, flow=flow)
            cache = KernelCache(disk_dir=store_dir)
            kernel = AXI4MLIRCompiler(info, kernel_cache=cache) \
                .compile_matmul(dims, dims, dims)
            board = make_pynq_z2()
            board.attach_accelerator(hw)
            rng = np.random.default_rng(99)
            a = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            b = rng.integers(-5, 5, (dims, dims)).astype(np.int32)
            c = np.zeros((dims, dims), np.int32)
            counters = kernel.run(board, a, b, c)
            results.append({
                "counters": counters.as_dict(),
                "digest": hashlib.sha256(c.tobytes()).hexdigest(),
                "corrupt": cache.disk_corrupt,
            })
        return json.loads(json.dumps(results))

    def test_four_process_shared_store(self, tmp_path, tmp_path_factory):
        shared = tmp_path / "shared_store"
        reference_store = tmp_path_factory.mktemp("reference_store")
        reference = self._reference(str(reference_store))

        workers = [
            subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(shared)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=_subprocess_env(str(shared)), text=True,
            )
            for _ in range(4)
        ]
        outputs = []
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            outputs.append(json.loads(stdout))

        # Bit-identical PerfCounters and outputs in every process,
        # regardless of who compiled, who loaded, and who raced.
        for output in outputs:
            assert output == reference
        # Nothing was quarantined anywhere...
        assert all(r["corrupt"] == 0 for out in outputs for r in out)
        corrupt_dir = shared / "corrupt"
        assert not corrupt_dir.exists() or not list(corrupt_dir.iterdir())
        # ...the store converged to exactly one entry per config...
        entries = list((shared / "objects").glob("*/*.entry"))
        assert len(entries) == len(_STRESS_CONFIGS)
        # ...and no temp litter survived.
        litter = [p for p in shared.rglob("*") if ".tmp-" in p.name]
        assert litter == []

    def test_stress_with_injected_store_faults(self, tmp_path,
                                               tmp_path_factory):
        """Same bar with store faults firing inside every process."""
        shared = tmp_path / "faulty_store"
        reference_store = tmp_path_factory.mktemp("reference_store")
        reference = self._reference(str(reference_store))

        env = _subprocess_env(str(shared))
        env["REPRO_FAULTS"] = ("store.read:io@0.3;store.write:io@0.3;"
                               "store.lock:timeout@0.5")
        workers = []
        for seed in range(4):
            worker_env = dict(env)
            worker_env["REPRO_FAULTS_SEED"] = str(seed)
            workers.append(subprocess.Popen(
                [sys.executable, "-c", _WORKER, str(shared)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=worker_env, text=True,
            ))
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            output = json.loads(stdout)
            for result, expected in zip(output, reference):
                assert result["counters"] == expected["counters"]
                assert result["digest"] == expected["digest"]
        litter = [p for p in shared.rglob("*") if ".tmp-" in p.name]
        assert litter == []


class TestThreadSafety:
    def test_concurrent_threads_share_one_entry(self, tmp_path):
        store_dir = str(tmp_path / "store")
        cache = KernelCache(disk_dir=store_dir)
        _, info = make_matmul_system(3, 8, flow="Ns")
        kernels = [None] * 6
        errors = []

        def worker(index):
            try:
                compiler = AXI4MLIRCompiler(info, kernel_cache=cache)
                kernels[index] = compiler.compile_matmul(32, 32, 32)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        sources = {kernel.source for kernel in kernels}
        assert len(sources) == 1
        entries = list(Path(store_dir, "objects").glob("*/*.entry"))
        assert len(entries) == 1
        litter = [p for p in Path(store_dir).rglob("*")
                  if ".tmp-" in p.name]
        assert litter == []


class TestEnvKnobWarnings:
    """Malformed store env knobs warn once, then fall back to defaults."""

    def test_malformed_max_bytes_warns_once(self, tmp_path, monkeypatch):
        store = KernelStore(tmp_path)
        monkeypatch.setenv("REPRO_KERNEL_CACHE_MAX_BYTES", "10MB")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_KERNEL_CACHE_MAX_BYTES"):
            assert store.store("env-warn-max", {"x": 1})
        # The malformed cap disables eviction instead of guessing a
        # size: the freshly stored entry is still there.
        assert store.load("env-warn-max")[0] == "hit"
        # One-shot: the same malformed value never warns again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.store("env-warn-max-two", {"x": 2})

    def test_malformed_lock_timeout_warns_once(self, tmp_path,
                                               monkeypatch):
        store = KernelStore(tmp_path)
        monkeypatch.setenv("REPRO_KERNEL_CACHE_LOCK_TIMEOUT_S", "soonish")
        with pytest.warns(RuntimeWarning,
                          match="REPRO_KERNEL_CACHE_LOCK_TIMEOUT_S"):
            with store.build_lock("env-warn-lock") as acquired:
                assert acquired
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with store.build_lock("env-warn-lock") as acquired:
                assert acquired
