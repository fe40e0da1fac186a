"""Crash-safe, concurrency-safe, corruption-tolerant kernel store.

This is the disk half of :class:`repro.compiler.KernelCache`, split out
so its failure semantics can be reasoned about (and fault-injected)
independently of the compilation pipeline.  Design points:

**Layout.**  Entries live under ``<root>/objects/<shard>/<name>.entry``
where ``shard`` is the first two hex digits of the entry-name digest —
directories stay small even for many thousands of kernels.  Quarantined
files move to ``<root>/corrupt/``; advisory lock files live under
``<root>/locks/``.  Legacy flat ``kernel-*.pkl`` entries (store
version <= 2) are never consulted: they simply age out of the directory
(CI prunes them; ``gc()`` ignores them).

**Atomic publish.**  Writers create a uniquely named temporary file
(pid + thread id + counter, so neither concurrent processes nor threads
collide), ``fsync`` it, ``os.replace`` it over the final name, then
``fsync`` the directory.  Readers therefore observe either the old
entry, the new entry, or no entry — never a torn write — and a writer
killed at any instant leaves at most one stray ``*.tmp-*`` file, which
is removed in a ``finally`` on error paths and swept by ``gc()``.

**Entry container.**  Each ``.entry`` file is::

    REPRO-KSTORE-1\\n
    <sha256 hex of manifest+arrays>\\n
    <manifest byte length>\\n
    <JSON manifest><npz archive>

The manifest is JSON (a whitelisted tagged encoding of the payload —
see the codec below); bulk numeric data rides in an appended
``numpy`` ``.npz`` archive loaded with ``allow_pickle=False``.  There
is **no pickle anywhere in the load path**, so an untrusted cache
directory can at worst fail to load — it can never execute code.  Any
container violation (bad magic, short file, checksum mismatch,
malformed JSON/npz, non-whitelisted tag) *quarantines* the file into
``corrupt/`` and reports status ``"corrupt"``, which callers count
separately from an honest miss.

**Cross-process coordination.**  ``build_lock(name)`` takes an
``fcntl`` advisory lock with bounded retry/backoff so N processes
sharing ``REPRO_KERNEL_CACHE_DIR`` compile each kernel once: the loser
of the race waits, then finds the winner's published entry on its
second look.  Lock acquisition failing (timeout, no fcntl, injected
fault) is never an error — the caller just compiles redundantly,
exactly as the store-less path would.

**Garbage collection.**  ``gc(max_bytes)`` (env:
``REPRO_KERNEL_CACHE_MAX_BYTES``) evicts least-recently-*used* entries
— loads touch the file mtime — until the store fits, and sweeps stale
temporaries.  It runs opportunistically after each publish.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import counters, faults
from .envutil import env_float, env_int

try:
    import fcntl
    _HAVE_FCNTL = True
except ImportError:  # non-POSIX: no cross-process coordination
    _HAVE_FCNTL = False

#: Container magic line; bump with the container *framing*, not the
#: payload schema (that is KERNEL_STORE_VERSION in the manifest).
MAGIC = b"REPRO-KSTORE-1\n"

#: Env knob: total bytes the object tree may occupy before the LRU
#: garbage collector evicts oldest-used entries.  Unset/empty = no cap.
MAX_BYTES_ENV = "REPRO_KERNEL_CACHE_MAX_BYTES"

#: Env knob: seconds a build lock is retried before giving up and
#: compiling redundantly.
LOCK_TIMEOUT_ENV = "REPRO_KERNEL_CACHE_LOCK_TIMEOUT_S"

_DEFAULT_LOCK_TIMEOUT_S = 10.0

#: Temp files older than this are considered crash litter by gc().
_TMP_MAX_AGE_S = 300.0

#: Live view of the diagnostics registry's ``store`` section (see
#: :mod:`repro.counters`).
STORE_COUNTERS = counters.SECTIONS["store"]


class StoreFormatError(ValueError):
    """The entry container or its manifest violates the format."""


class UnencodablePayload(ValueError):
    """The payload contains values outside the codec whitelist."""


# ---------------------------------------------------------------------------
# Codec: whitelisted tagged JSON + npz side table
# ---------------------------------------------------------------------------
#
# JSON scalars (None/bool/int/float/str) encode as themselves; every
# container becomes a ``[tag, payload]`` array so tuples, sets, and
# non-string dict keys survive the round trip:
#
#   ["l", [...]]            list
#   ["t", [...]]            tuple
#   ["s", [...]]            set (sorted for determinism)
#   ["d", [[k, v], ...]]    dict
#   ["od", [[k, v], ...]]   OrderedDict
#   ["nd", "a3"]            ndarray, stored as npz member "a3"
#   ["o", cls, [[f, v]..]]  whitelisted object, rebuilt field-by-field
#   ["flow", "..."]         OpcodeFlow, via its textual form
#
# Objects are reconstructed with ``object.__new__`` + ``setattr`` over
# an explicit per-class field list — no constructors run on untrusted
# data and nothing outside the registry can ever be instantiated.

def _class_registry() -> Dict[str, Tuple[type, Optional[Tuple[str, ...]]]]:
    """Tag -> (class, field whitelist).  ``None`` fields = instance dict.

    Imported lazily so ``repro.store`` stays importable on its own (the
    execution/transform modules import numpy-heavy machinery).
    """
    from .execution.metrics import MetricsPlan
    from .execution.trace import DecodedPlan, DriverTrace, _TileClass
    from .transforms.flow_analysis import (
        FlowPlacement,
        PlacedGroup,
        PlacedOpcode,
    )
    from .transforms.lower_to_accel import LoweringPlan

    return {
        "LoweringPlan": (LoweringPlan, (
            "dim_names", "extents", "tiles", "loop_order", "cpu_tiles",
            "placement", "operand_host_dims", "init_flow",
        )),
        "FlowPlacement": (FlowPlacement, (
            "root", "loop_order", "levels_by_opcode",
        )),
        "PlacedGroup": (PlacedGroup, ("items", "level")),
        "PlacedOpcode": (PlacedOpcode, ("name", "level", "min_level")),
        "DriverTrace": (DriverTrace, None),
        "_TileClass": (_TileClass, (
            "arg", "sizes", "strides", "itemsize", "accumulate",
            "starts", "region_offsets", "event_pos", "order",
        )),
        "DecodedPlan": (DecodedPlan, None),
        "MetricsPlan": (MetricsPlan, (
            "final_state", "l1_ways", "l2_ways",
            "l1_hits_d", "l1_misses_d", "l2_hits_d", "l2_misses_d",
            "l1_miss_total", "l2_miss_total", "stats",
            "input_word_dest", "input_word_values", "input_tile_writes",
            "output_writes",
        )),
    }


#: DriverTrace attributes never persisted: ``metrics_plans`` has its
#: own schema slot in the kernel payload; ``decoded`` is filtered to
#: drop cached TraceUnsupported sentinels (cheap to rediscover).
_TRACE_SKIP = ("metrics_plans",)

#: DecodedPlan attributes lazily attached by the replay executor.
_PLAN_SKIP = ("_push_class", "_push_row")


class _Encoder:
    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self._registry = _class_registry()
        self._tag_of = {cls: tag for tag, (cls, _) in
                        self._registry.items()}

    def encode(self, value: Any) -> Any:
        if value is None or value is True or value is False:
            return value
        if isinstance(value, (int, float, str)) \
                and not isinstance(value, (np.integer, np.floating)):
            return value
        if isinstance(value, (np.integer, np.bool_)):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.ndarray):
            if value.dtype == object:
                raise UnencodablePayload("object-dtype ndarray")
            name = f"a{len(self.arrays)}"
            self.arrays[name] = value
            return ["nd", name]
        if isinstance(value, list):
            return ["l", [self.encode(v) for v in value]]
        if isinstance(value, tuple):
            return ["t", [self.encode(v) for v in value]]
        if isinstance(value, (set, frozenset)):
            return ["s", [self.encode(v)
                          for v in sorted(value, key=repr)]]
        if isinstance(value, OrderedDict):
            return ["od", [[self.encode(k), self.encode(v)]
                           for k, v in value.items()]]
        if isinstance(value, dict):
            return ["d", [[self.encode(k), self.encode(v)]
                          for k, v in value.items()]]
        tag = self._tag_of.get(type(value))
        if tag is not None:
            return ["o", tag, self._encode_fields(tag, value)]
        from .opcodes import OpcodeFlow
        if isinstance(value, OpcodeFlow):
            return ["flow", str(value)]
        raise UnencodablePayload(
            f"cannot persist value of type {type(value).__name__}"
        )

    def _encode_fields(self, tag: str, value: Any) -> List[List[Any]]:
        from .execution.trace import TraceUnsupported

        _, fields = self._registry[tag]
        items: List[List[Any]] = []
        if fields is None:
            pairs = list(vars(value).items())
        else:
            pairs = [(name, getattr(value, name)) for name in fields]
        for name, field in pairs:
            if tag == "DriverTrace":
                if name in _TRACE_SKIP:
                    continue
                if name == "decoded":
                    field = {k: v for k, v in field.items()
                             if not isinstance(v, TraceUnsupported)}
            if tag == "DecodedPlan" and name in _PLAN_SKIP:
                continue
            items.append([name, self.encode(field)])
        return items


class _Decoder:
    def __init__(self, arrays) -> None:
        self.arrays = arrays
        self._registry = _class_registry()

    def decode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if not isinstance(value, list) or not value \
                or not isinstance(value[0], str):
            raise StoreFormatError(f"malformed codec node: {value!r}")
        tag = value[0]
        if tag == "l":
            return [self.decode(v) for v in value[1]]
        if tag == "t":
            return tuple(self.decode(v) for v in value[1])
        if tag == "s":
            return {self.decode(v) for v in value[1]}
        if tag == "d":
            return {self.decode(k): self.decode(v) for k, v in value[1]}
        if tag == "od":
            return OrderedDict(
                (self.decode(k), self.decode(v)) for k, v in value[1]
            )
        if tag == "nd":
            try:
                return self.arrays[value[1]]
            except KeyError:
                raise StoreFormatError(
                    f"manifest references missing array {value[1]!r}"
                ) from None
        if tag == "flow":
            from .opcodes import parse_opcode_flow
            return parse_opcode_flow(value[1])
        if tag == "o":
            return self._decode_object(value[1], value[2])
        raise StoreFormatError(f"unknown codec tag {tag!r}")

    def _decode_object(self, tag: str, items: Any) -> Any:
        entry = self._registry.get(tag)
        if entry is None:
            raise StoreFormatError(f"non-whitelisted class tag {tag!r}")
        cls, fields = entry
        obj = object.__new__(cls)
        allowed = set(fields) if fields is not None else None
        seen = set()
        for name, encoded in items:
            if not isinstance(name, str) \
                    or (allowed is not None and name not in allowed):
                if tag in ("DriverTrace", "DecodedPlan"):
                    # Instance-dict classes tolerate extra fields from
                    # newer writers; drop anything unexpected.
                    if not isinstance(name, str) \
                            or name.startswith("_") \
                            or name in _TRACE_SKIP:
                        continue
                else:
                    raise StoreFormatError(
                        f"field {name!r} not allowed on {tag}"
                    )
            setattr(obj, name, self.decode(encoded))
            seen.add(name)
        if allowed is not None and seen != allowed:
            raise StoreFormatError(f"incomplete {tag} entry")
        if tag == "DriverTrace":
            obj.metrics_plans = OrderedDict()
        return obj


def encode_payload(payload: Any) -> Tuple[bytes, bytes]:
    """Payload -> (manifest JSON bytes, npz bytes).

    Raises :class:`UnencodablePayload` when the payload reaches outside
    the codec whitelist (e.g. an object-dtype array); callers keep such
    entries memory-only.
    """
    encoder = _Encoder()
    tree = encoder.encode(payload)
    manifest = json.dumps({"format": 1, "payload": tree},
                          separators=(",", ":")).encode()
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **encoder.arrays)
    return manifest, buffer.getvalue()


def decode_payload(manifest: bytes, npz: bytes) -> Any:
    """Inverse of :func:`encode_payload`; raises StoreFormatError."""
    try:
        document = json.loads(manifest)
    except ValueError as exc:
        raise StoreFormatError(f"bad manifest JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != 1:
        raise StoreFormatError("unknown manifest format")
    try:
        with np.load(io.BytesIO(npz), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as exc:
        raise StoreFormatError(f"bad npz archive: {exc}") from None
    try:
        return _Decoder(arrays).decode(document["payload"])
    except StoreFormatError:
        raise
    except Exception as exc:
        # Anything else a hostile manifest provokes (bad flow text,
        # setattr on slots, ...) is still just a corrupt entry.
        raise StoreFormatError(f"undecodable payload: {exc}") from None


# ---------------------------------------------------------------------------
# Container framing
# ---------------------------------------------------------------------------

def pack_entry(manifest: bytes, npz: bytes) -> bytes:
    digest = hashlib.sha256(manifest + npz).hexdigest()
    header = MAGIC + digest.encode() + b"\n" + \
        str(len(manifest)).encode() + b"\n"
    return header + manifest + npz


def unpack_entry(blob: bytes) -> Tuple[bytes, bytes]:
    if not blob.startswith(MAGIC):
        raise StoreFormatError("bad magic")
    rest = blob[len(MAGIC):]
    try:
        digest_line, rest = rest.split(b"\n", 1)
        length_line, rest = rest.split(b"\n", 1)
        manifest_len = int(length_line)
    except ValueError:
        raise StoreFormatError("truncated header") from None
    if manifest_len < 0 or manifest_len > len(rest):
        raise StoreFormatError("truncated entry")
    manifest, npz = rest[:manifest_len], rest[manifest_len:]
    actual = hashlib.sha256(manifest + npz).hexdigest().encode()
    if actual != digest_line:
        raise StoreFormatError("checksum mismatch")
    return manifest, npz


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

_tmp_counter_lock = threading.Lock()
_tmp_counter = 0


def _fresh_tmp_lock_after_fork() -> None:
    # Forked children (service workers, model-pool workers) must not
    # inherit a lock some other parent thread held mid-publish.
    global _tmp_counter_lock
    _tmp_counter_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_tmp_lock_after_fork)


def _next_tmp_suffix() -> str:
    """Unique per (pid, thread, counter): concurrent writers anywhere
    on the same filesystem never collide on a temp name."""
    global _tmp_counter
    with _tmp_counter_lock:
        _tmp_counter += 1
        count = _tmp_counter
    return f".tmp-{os.getpid()}-{threading.get_ident()}-{count}"


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Public names for the atomic-publish building blocks (write to a
#: collision-free ``*.tmp-*`` sibling, fsync, ``os.replace``, fsync the
#: directory).  The tuning journal's rotation/compaction reuses them so
#: every durable artifact in the repo follows one idiom — and one
#: hygiene rule: a crash at any instant leaves either the old file, the
#: new file, or removable ``*.tmp-*`` litter, never a torn target.
next_tmp_suffix = _next_tmp_suffix
fsync_dir = _fsync_dir


class KernelStore:
    """One on-disk store rooted at a directory (see module docstring).

    ``load``/``store`` report status strings instead of raising: every
    failure mode maps onto a degradation the caller already supports
    (rebuild, or stay memory-only).
    """

    def __init__(self, root, max_bytes: Optional[int] = None,
                 lock_timeout_s: Optional[float] = None) -> None:
        self.root = Path(root)
        self._max_bytes = max_bytes
        self._lock_timeout_s = lock_timeout_s

    # -- paths ------------------------------------------------------------
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def _locks_dir(self) -> Path:
        return self.root / "locks"

    def entry_path(self, name: str) -> Path:
        shard = hashlib.sha256(name.encode()).hexdigest()[:2]
        return self.objects_dir() / shard / f"{name}.entry"

    def _resolve_max_bytes(self) -> Optional[int]:
        if self._max_bytes is not None:
            return self._max_bytes
        return env_int(MAX_BYTES_ENV, None)

    def _resolve_lock_timeout(self) -> float:
        if self._lock_timeout_s is not None:
            return self._lock_timeout_s
        return env_float(LOCK_TIMEOUT_ENV, _DEFAULT_LOCK_TIMEOUT_S)

    # -- load -------------------------------------------------------------
    def load(self, name: str,
             count: bool = True) -> Tuple[str, Optional[Any]]:
        """Read one entry.

        Returns ``(status, payload)`` with status one of ``"hit"``
        (payload decoded), ``"miss"`` (honest absence), ``"io"``
        (filesystem error — the entry may exist but is unreadable right
        now), or ``"corrupt"`` (container/codec violation; the file has
        been quarantined into ``corrupt/``).  ``count=False`` suppresses
        counter updates for double-checked reads under a build lock.
        """
        path = self.entry_path(name)
        injected = faults.fires("store.read")
        try:
            if injected == "io":
                raise OSError("injected store.read io fault")
            blob = path.read_bytes()
        except FileNotFoundError:
            if count:
                counters.add("store", "store_misses")
            return "miss", None
        except OSError:
            if count:
                counters.add("store", "store_io_errors")
            return "io", None
        try:
            if injected == "corrupt":
                raise StoreFormatError("injected store.read corruption")
            manifest, npz = unpack_entry(blob)
            payload = decode_payload(manifest, npz)
        except StoreFormatError:
            self.quarantine(name)
            if count:
                counters.add("store", "store_corrupt")
            return "corrupt", None
        if count:
            counters.add("store", "store_hits")
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        return "hit", payload

    def quarantine(self, name: str) -> None:
        """Move an entry into ``corrupt/`` (atomic, never raises).

        Quarantining rather than deleting keeps the evidence for
        inspection while guaranteeing the bad bytes are never read
        again; the next compile republishes a fresh entry.
        """
        path = self.entry_path(name)
        target_dir = self.corrupt_dir()
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            if target.exists():
                target = target_dir / (path.name + _next_tmp_suffix())
            os.replace(path, target)
            counters.add("store", "store_quarantined")
        except OSError:
            return

    # -- store ------------------------------------------------------------
    def store(self, name: str, payload: Any) -> bool:
        """Atomically publish one entry; False = not persisted.

        Encode failures (payload outside the whitelist) and filesystem
        errors both leave the store exactly as it was — no partial
        entry, no leaked temp file.
        """
        try:
            manifest, npz = encode_payload(payload)
        except UnencodablePayload:
            return False
        blob = pack_entry(manifest, npz)
        path = self.entry_path(name)
        tmp = path.parent / (path.name + _next_tmp_suffix())
        try:
            if faults.fires("store.write") == "io":
                raise OSError("injected store.write io fault")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        except OSError:
            counters.add("store", "store_write_failures")
            return False
        finally:
            # os.replace consumed the tmp on success; anything left
            # behind here is the failure-path residue.
            try:
                tmp.unlink()
            except OSError:
                pass
        counters.add("store", "store_writes")
        max_bytes = self._resolve_max_bytes()
        if max_bytes is not None:
            self.gc(max_bytes)
        return True

    # -- cross-process build lock -----------------------------------------
    @contextmanager
    def build_lock(self, name: str) -> Iterator[bool]:
        """Advisory per-entry lock; yields whether it was acquired.

        Not acquiring (timeout, platform without fcntl, injected fault)
        only costs duplicated compilation — the atomic publish keeps
        the store consistent regardless of who wins.
        """
        if faults.fires("store.lock") == "timeout":
            counters.add("store", "store_lock_timeouts")
            yield False
            return
        if not _HAVE_FCNTL:
            yield False
            return
        lock_path = self._locks_dir() / f"{name}.lock"
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(lock_path, "a+b")
        except OSError:
            yield False
            return
        acquired = False
        try:
            deadline = time.monotonic() + self._resolve_lock_timeout()
            delay = 0.001
            while True:
                try:
                    fcntl.flock(handle.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        counters.add("store", "store_lock_timeouts")
                        break
                    time.sleep(delay)
                    delay = min(delay * 2, 0.05)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
            handle.close()

    # -- garbage collection ------------------------------------------------
    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries over the size cap.

        Also sweeps crash litter: temp files older than five minutes.
        Returns the number of entries evicted.
        """
        objects = self.objects_dir()
        if not objects.is_dir():
            return 0
        entries: List[Tuple[float, int, Path]] = []
        total = 0
        now = time.time()
        for path in objects.glob("*/*"):
            try:
                stat = path.stat()
            except OSError:
                continue
            if ".tmp-" in path.name:
                if now - stat.st_mtime > _TMP_MAX_AGE_S:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            if path.name.endswith(".entry"):
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if max_bytes is None:
            max_bytes = self._resolve_max_bytes()
        if max_bytes is None:
            return 0
        evicted = 0
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            counters.add("store", "store_evictions")
        return evicted
