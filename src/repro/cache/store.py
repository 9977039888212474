"""On-disk content-addressed result store with LRU eviction.

Layout (one directory tree per store root)::

    <root>/objects/<key[:2]>/<key>.npz     one (k, E) result record

Records follow the :class:`~repro.runtime.checkpoint.CheckpointStore`
idiom: pickle-free ``.npz`` payloads written to a unique temp file and
published with an atomic ``os.replace``, so concurrent writers (worker
processes publishing the same key) can never expose a torn file —
the last rename wins and every version is identical by construction
(content-addressed keys).  Each record carries a versioned ``__meta__``
header with a sha256 checksum of the canonical payload bytes, verified
on every load; a mismatch (or any unreadable file) is treated as a miss
and the corrupt object is discarded.

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
import os
import uuid
import zipfile

import numpy as np

from repro.negf.transmission import EnergyPointResult
from repro.observability.spans import current_tracer
from repro.utils.errors import ConfigurationError

#: bump on incompatible record layout changes; old records become misses
RECORD_SCHEMA_VERSION = 1

_META_KEY = "__meta__"


def _payload_checksum(arrays: dict) -> str:
    """sha256 over the canonical bytes of a payload dict."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(a.dtype.str.encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def pack_result(res: EnergyPointResult) -> dict:
    """Array-only payload of one energy-point result.

    ``psi``/``from_left``/``velocities`` are included because downstream
    consumers (the SCF density loop) read them.  Span traces and the
    boundary object are deliberately dropped — a cache hit performs no
    work to trace.
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

    The rebuilt result carries ``boundary=None`` and ``trace=None``: a
    hit re-solves nothing, so there is no boundary operator and no span
    trace to attach.  Arrays the record holds beyond the fields below
    (records written before the FEAST Ritz block was dropped) are
    ignored.
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
        trace=None,
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
        return os.path.join(self._objects, key[:2], key + ".npz")

    def _object_paths(self):
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".npz"):
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
        for name, value in payload.items():
            if np.asarray(value).dtype == object:
                raise ConfigurationError(
                    f"result store payload {name!r} has object dtype; "
                    "only plain numeric/bool arrays are cacheable")
        meta = {"schema": RECORD_SCHEMA_VERSION, "kind": kind, "key": key,
                "checksum": _payload_checksum(payload)}
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        arrays = dict(payload)
        arrays[_META_KEY] = np.asarray(json.dumps(meta))
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except OSError:
            self._count("result_store_put_failures")
            return False
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        self._count("result_store_puts")
        if self.max_bytes is not None:
            self._evict_to(self.max_bytes, protect=path)
        return True

    def _load_verified(self, path: str) -> dict | None:
        """Load + checksum-verify one object file; None when invalid."""
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: np.asarray(data[name]) for name in data.files}
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile):
            return None
        raw_meta = arrays.pop(_META_KEY, None)
        if raw_meta is None:
            return None
        try:
            meta = json.loads(str(raw_meta))
        except json.JSONDecodeError:
            return None
        if meta.get("schema") != RECORD_SCHEMA_VERSION:
            return None
        if meta.get("checksum") != _payload_checksum(arrays):
            return None
        return arrays

    def get(self, key: str, *, touch: bool = True) -> dict | None:
        """Load one record; any invalid/corrupt object counts as a miss."""
        path = self._object_path(key)
        if not os.path.exists(path):
            self._count("result_store_misses")
            return None
        arrays = self._load_verified(path)
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
            checked += 1
            if self._load_verified(path) is None:
                corrupt.append(os.path.basename(path)[:-len(".npz")])
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
