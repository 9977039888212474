"""Atomic checkpoint files for the long-running outer loops.

The paper's production simulations — 40-50 Schroedinger-Poisson
iterations over 10 bias points, hours of machine time each — survive
node-allocation kills only because the state between iterations is
tiny: the atom potential, the density, and the sweep bookkeeping.  The
result store (:mod:`repro.cache`) resumes a spectrum; one ``"sweep"``
record in a file of this module
(:func:`repro.core.production.sweep_record`) resumes the SCF loop and
the bias sweep, bit for bit.

Format: one ``.npz`` archive per computation, written to a temp file and
atomically renamed over the old checkpoint (a kill mid-write never
corrupts the previous one).  A ``__kind__`` tag guards against resuming
one loop from another loop's file.  Scalars round-trip through 0-d
arrays; ``allow_pickle`` stays off, so a checkpoint is plain data.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from repro.utils.errors import CheckpointError

#: reserved key holding the telemetry/metrics snapshot (JSON text)
_TELEMETRY_KEY = "__telemetry__"


class CheckpointStore:
    """One named checkpoint file with atomic save/load/clear."""

    def __init__(self, path):
        self.path = os.fspath(path)
        #: telemetry snapshot of the most recent :meth:`load` (or None)
        self.last_telemetry: dict | None = None

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def save(self, kind: str, telemetry: dict | None = None,
             **state) -> None:
        """Atomically replace the checkpoint with ``state``.

        Values must be array-convertible (scalars, bools, lists of
        numbers, ndarrays); object arrays are rejected to keep the file
        pickle-free.  ``telemetry`` takes a JSON-serializable metrics
        snapshot (:meth:`repro.runtime.RunTelemetry.snapshot`) stored as
        JSON text, so a resumed run's failure/retry/stage accounting
        covers the whole job, not just the post-restart tail.  A write
        that fails (a full disk, a file-size limit) is a
        :class:`CheckpointError`; the previous checkpoint stays intact
        and no temp file is left behind.
        """
        arrays = {"__kind__": np.asarray(kind)}
        if telemetry is not None:
            arrays[_TELEMETRY_KEY] = np.asarray(json.dumps(telemetry))
        for key, value in state.items():
            arr = np.asarray(value)
            if arr.dtype == object:
                raise CheckpointError(
                    f"checkpoint value {key!r} is not plain numeric data")
            arrays[key] = arr
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
                # the bytes must be on disk before the rename publishes
                # them, or a crash can leave a renamed-but-empty checkpoint
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {exc}") from exc

    def load(self, kind: str | None = None) -> dict:
        """Read the checkpoint back; 0-d arrays become Python scalars."""
        if not self.exists():
            raise CheckpointError(f"no checkpoint at {self.path}")
        try:
            with np.load(self.path, allow_pickle=False) as archive:
                data = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: {exc}") from exc
        stored_kind = str(data.pop("__kind__", ""))
        if kind is not None and stored_kind != kind:
            raise CheckpointError(
                f"checkpoint {self.path} holds a {stored_kind!r} state, "
                f"expected {kind!r}")
        self.last_telemetry = None
        blob = data.pop(_TELEMETRY_KEY, None)
        if blob is not None:
            try:
                self.last_telemetry = json.loads(str(blob))
            except ValueError as exc:
                raise CheckpointError(
                    f"corrupt telemetry snapshot in {self.path}: "
                    f"{exc}") from exc
        return {key: (value.item() if value.ndim == 0 else value)
                for key, value in data.items()}

    def load_telemetry(self) -> dict | None:
        """Telemetry snapshot of the checkpoint, without loading state.

        Returns ``None`` when the checkpoint has no telemetry (older
        files stay loadable).
        """
        self.load()
        return self.last_telemetry

    def clear(self) -> None:
        if self.exists():
            os.remove(self.path)
