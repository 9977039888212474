"""On-disk content-addressed result store with LRU eviction.

Layout (one directory tree per store root)::

    <root>/objects/<key[:2]>/<key>.rec     one (k, E) result record

A record is one file, written with one ``write`` and read with one
``read``::

    magic (8 bytes) | header length (uint32, little-endian) | header
    | zero padding to 64 bytes | the arrays' raw C-order bytes

The header is canonical JSON (sorted keys, no whitespace): the schema,
kind and key, a field table of ``[name, dtype, shape, offset]`` rows
(offsets from the body start, 64-byte aligned) and a sha256 over the
rest of the header and every byte after it.  Field dtypes are bool,
int, uint, float or complex only, so reading a record runs no pickle
and builds no object; the arrays come back as writable views of the one
buffer the file was read into.  Records are written to a unique temp
file and published with an atomic ``os.replace``, so concurrent writers
(worker processes publishing the same key) can never expose a torn file
— the last rename wins and every version is identical by construction
(content-addressed keys).  The checksum is verified on every read: a
record that fails any check (magic, length, header, dtype, offset,
checksum) is a counted miss and is discarded.  Schema-1 ``<key>.npz``
records an older store left behind are never read; ``verify`` names
them and ``prune`` evicts them, oldest first.

Recency is tracked through file mtimes (touched on read), which makes
LRU eviction a plain oldest-first sweep and keeps the store safe to
share between processes without any lock file.

All store traffic is observable: hits/misses/evictions/corruption are
counters on the ambient tracer's :class:`MetricsRegistry`, loads feed a
bytes-loaded histogram, and evictions emit ``category="cache"`` span
instants.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid

import numpy as np

from repro.negf.transmission import EnergyPointResult
from repro.observability.spans import current_tracer
from repro.utils.errors import ConfigurationError

#: bump on incompatible record layout changes; old records become misses
RECORD_SCHEMA_VERSION = 2

_MAGIC = b"\x89REPRO\r\n"
_PREFIX = len(_MAGIC) + 4          # the magic, then the header length
_ALIGN = 64
_SUFFIX = ".rec"
#: schema-1 records: never read, named by ``verify``, evicted by ``prune``
_STALE_SUFFIX = ".npz"
#: numpy dtype kinds a record may hold: bool, int, uint, float, complex
_KINDS = "biufc"


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _header_bytes(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode()


def _checksum(header: dict, tail) -> str:
    """sha256 over the header (its checksum left out) and the bytes
    that follow it."""
    h = hashlib.sha256(_header_bytes(header))
    h.update(tail)
    return h.hexdigest()


def encode_record(key: str, payload: dict,
                  kind: str = "result") -> bytearray:
    """The bytes of one record file holding ``payload``'s arrays."""
    arrays, fields, end = {}, [], 0
    for name in sorted(payload):
        a = np.asarray(payload[name])
        if a.dtype.kind not in _KINDS:
            raise ConfigurationError(
                f"result store payload {name!r} has {a.dtype} dtype; "
                "only bool/int/uint/float/complex arrays are cacheable")
        offset = _aligned(end)
        fields.append([name, a.dtype.str, list(a.shape), offset])
        arrays[name] = a
        end = offset + a.nbytes
    header = {"schema": RECORD_SCHEMA_VERSION, "kind": kind, "key": key,
              "fields": fields}
    # the checksum is 64 hex digits whatever its value
    size = len(_header_bytes(dict(header, checksum="0" * 64)))
    start = _aligned(_PREFIX + size)
    buf = bytearray(start + end)
    for name, _, shape, offset in fields:
        a = arrays[name]
        np.frombuffer(buf, a.dtype, a.size, start + offset) \
            .reshape(shape)[...] = a
    with memoryview(buf) as view:
        header["checksum"] = _checksum(header, view[_PREFIX + size:])
    buf[:_PREFIX] = _MAGIC + size.to_bytes(4, "little")
    buf[_PREFIX:_PREFIX + size] = _header_bytes(header)
    return buf


def decode_record(buf: bytearray, key: str) -> dict | None:
    """The arrays of one record file's bytes, as writable views of
    ``buf``; None when any check fails."""
    if buf[:len(_MAGIC)] != _MAGIC:
        return None
    size = int.from_bytes(buf[len(_MAGIC):_PREFIX], "little")
    raw = buf[_PREFIX:_PREFIX + size]
    try:
        header = json.loads(raw)
    except ValueError:
        return None
    # exactly what put writes: no byte of the header goes unchecked
    if not isinstance(header, dict) or _header_bytes(header) != raw:
        return None
    checksum = header.pop("checksum", None)
    if header.get("schema") != RECORD_SCHEMA_VERSION \
            or header.get("key") != key:
        return None
    with memoryview(buf) as view:
        if checksum != _checksum(header, view[_PREFIX + size:]):
            return None
    start = _aligned(_PREFIX + size)
    arrays = {}
    try:
        for name, dtype, shape, offset in header["fields"]:
            dt = np.dtype(dtype)
            if (dt.kind not in _KINDS or not isinstance(name, str)
                    or not all(isinstance(n, int) and n >= 0
                               for n in shape)
                    or not isinstance(offset, int) or offset < 0):
                return None
            count = math.prod(shape)
            if start + offset + count * dt.itemsize > len(buf):
                return None
            arrays[name] = np.frombuffer(buf, dt, count, start + offset) \
                .reshape(shape)
    except (KeyError, TypeError, ValueError):
        return None
    return arrays


def _read(path: str) -> bytearray:
    """The whole file, in one read."""
    with open(path, "rb", buffering=0) as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        del buf[fh.readinto(buf):]
    return buf


def pack_result(res: EnergyPointResult) -> dict:
    """Array-only payload of one energy-point result.

    ``psi``/``from_left``/``velocities`` are included because downstream
    consumers (the SCF density loop) read them.  The solve's
    ``seconds`` and the boundary object are deliberately dropped — a
    cache hit performs no work to time.
    """
    return {
        "energy": np.float64(res.energy),
        "num_prop_left": np.int64(res.num_prop_left),
        "num_prop_right": np.int64(res.num_prop_right),
        "transmission_lr": np.float64(res.transmission_lr),
        "transmission_rl": np.float64(res.transmission_rl),
        "reflection_l": np.float64(res.reflection_l),
        "reflection_r": np.float64(res.reflection_r),
        "mode_transmissions": np.asarray(res.mode_transmissions),
        "psi": np.asarray(res.psi),
        "from_left": np.asarray(res.from_left),
        "velocities": np.asarray(res.velocities),
    }


def unpack_result(record: dict) -> EnergyPointResult:
    """Rebuild an :class:`EnergyPointResult` from a stored payload.

    The rebuilt result carries ``boundary=None`` and ``seconds=0.0``:
    a hit re-solves nothing, so there is no boundary operator and no
    solve time to attach.  Arrays the record holds beyond the fields below
    are ignored.
    """
    return EnergyPointResult(
        energy=float(record["energy"]),
        num_prop_left=int(record["num_prop_left"]),
        num_prop_right=int(record["num_prop_right"]),
        transmission_lr=float(record["transmission_lr"]),
        transmission_rl=float(record["transmission_rl"]),
        reflection_l=float(record["reflection_l"]),
        reflection_r=float(record["reflection_r"]),
        mode_transmissions=np.asarray(record["mode_transmissions"]),
        psi=np.asarray(record["psi"]),
        from_left=np.asarray(record["from_left"]),
        velocities=np.asarray(record["velocities"]),
        boundary=None,
    )


class ResultStore:
    """Content-addressed on-disk store of solved (k, E) records."""

    def __init__(self, root, max_bytes: int | None = None):
        self.root = str(root)
        self.max_bytes = max_bytes
        self._objects = os.path.join(self.root, "objects")
        os.makedirs(self._objects, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], key + _SUFFIX)

    def _object_paths(self):
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith((_SUFFIX, _STALE_SUFFIX)):
                    yield os.path.join(shard_dir, name)

    # -- counters ------------------------------------------------------

    @staticmethod
    def _count(name: str, amount: int = 1) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.counter(name).inc(amount)

    @staticmethod
    def _observe(name: str, value) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.metrics.histogram(name).observe(value)

    # -- record I/O ----------------------------------------------------

    def contains(self, key: str) -> bool:
        return os.path.exists(self._object_path(key))

    def put(self, key: str, payload: dict, kind: str = "result") -> bool:
        """Publish a payload under ``key``; returns False if already
        present or if the write fails.

        Atomic and idempotent: content-addressed keys mean every writer
        of a key writes identical bytes, so skipping an existing object
        is safe and the tmp-then-rename makes concurrent publishes from
        worker processes race-free.  A write that fails (a full disk, a
        file-size limit) is counted as ``result_store_put_failures`` and
        leaves no file: a cache write cannot change a result, so the run
        goes on.
        """
        path = self._object_path(key)
        if os.path.exists(path):
            return False
        record = encode_record(key, payload, kind)
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(record)
            os.replace(tmp, path)
        except OSError:
            self._count("result_store_put_failures")
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self._count("result_store_puts")
        if self.max_bytes is not None:
            self._evict_to(self.max_bytes, protect=path)
        return True

    @staticmethod
    def _load_verified(path: str) -> dict | None:
        """Read + verify one object file; None when it is not a valid
        record of its key (a schema-1 ``.npz`` never is).  An unreadable
        file raises its ``OSError``."""
        key, suffix = os.path.splitext(os.path.basename(path))
        return decode_record(_read(path), key) if suffix == _SUFFIX \
            else None

    def get(self, key: str, *, touch: bool = True) -> dict | None:
        """Load one record; any invalid/corrupt object counts as a miss.

        One read, no existence check first: a record another process
        evicts before the read is a plain miss, not corruption.
        """
        path = self._object_path(key)
        try:
            arrays = self._load_verified(path)
        except FileNotFoundError:
            self._count("result_store_misses")
            return None
        except OSError:
            arrays = None
        if arrays is None:
            self._count("result_store_misses")
            self._count("result_store_corrupt")
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        if touch:
            try:
                os.utime(path)
            except OSError:
                pass
        self._count("result_store_hits")
        self._observe("result_store_bytes_loaded",
                      sum(int(a.nbytes) for a in arrays.values()))
        return arrays

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict:
        """Object count and total bytes."""
        num, total = 0, 0
        for path in self._object_paths():
            try:
                total += os.path.getsize(path)
                num += 1
            except OSError:
                continue
        return {"root": self.root, "objects": num, "total_bytes": total,
                "max_bytes": self.max_bytes}

    def verify(self) -> dict:
        """Checksum-verify every object; returns counts + corrupt keys."""
        checked, corrupt = 0, []
        for path in self._object_paths():
            try:
                valid = self._load_verified(path) is not None
            except FileNotFoundError:     # evicted meanwhile
                continue
            except OSError:
                valid = False
            checked += 1
            if not valid:
                corrupt.append(
                    os.path.splitext(os.path.basename(path))[0])
        return {"checked": checked, "corrupt": corrupt}

    def prune(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used objects down to ``max_bytes``."""
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise ConfigurationError(
                "prune needs a byte budget (store max_bytes or argument)")
        return self._evict_to(budget)

    def _evict_to(self, budget: int, protect: str | None = None) -> dict:
        entries = []
        for path in self._object_paths():
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, path, st.st_size))
        total = sum(size for _, _, size in entries)
        removed, freed = 0, 0
        for _, path, size in sorted(entries):
            if total - freed <= budget:
                break
            if path == protect:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            removed += 1
            freed += size
        if removed:
            self._count("result_store_evictions", removed)
            tracer = current_tracer()
            if tracer is not None:
                tracer.instant("result-store-evict", category="cache",
                               attrs={"removed": removed,
                                      "freed_bytes": freed,
                                      "budget_bytes": budget})
        return {"removed": removed, "freed_bytes": freed,
                "total_bytes": total - freed}


def as_result_store(store) -> ResultStore | None:
    """Coerce None / path / ResultStore to a ResultStore (or None)."""
    if store is None or isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ResultStore(store)
    raise ConfigurationError(
        f"result_store must be a path or ResultStore, got {type(store)!r}")
