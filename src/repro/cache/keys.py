"""Canonical cache keys for the persistent result store.

A cached (k, E) solve is only reusable when *everything* that determines
its bitwise value matches.  The key therefore hashes, in a fixed order:

- the device matrix content (CSR data/indices/indptr of H and S, block
  layout, and the lead blocks) — the applied potential is folded into H
  by :meth:`DeviceMatrices.with_potential`, so it is captured here;
- the OBC method name and its canonicalized kwargs;
- the solver name and partition count;
- k (the transverse wave vector) and E.

No kernel backend enters the key: every transport solve runs the
reference kernels (:mod:`repro.linalg.backend`).

Floats enter the hash via :func:`canonical_float` (``float.hex`` — an
exact, locale-independent round-trip), never ``str()``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import issparse

#: bump when the key derivation itself changes incompatibly, or when what
#: a key stands for does (2: lead modes come from the interface-reduced
#: polynomial, so spectra differ from version 1's by round-off; 3: a
#: batched run used to publish RGF's bits under whatever solver name it
#: was given, so version-2 records of other solvers cannot be trusted;
#: 4: boundary maps are fitted on the coupling support and dense lead
#: modes come from the face pencil, round-off again; 5: SplitSolve's
#: Step 1 runs in real arithmetic on a real A(E), round-off on the
#: SplitSolve records of real devices; 6: stored ``velocities`` are the
#: un-normalised mode flux and every flux is read from one mode table, so
#: T changes value off S = I / NBW = 1 and by round-off on it; 7: the
#: kernel-backend identity left the key, every record is the reference's)
KEY_SCHEMA_VERSION = 7


def canonical_float(value) -> str:
    """Exact, deterministic text form of a float (for hashing)."""
    return float(value).hex()


def _update_with_array(h, name: str, arr) -> None:
    """Feed one array into the hash with a dtype/shape header.

    The header prevents collisions between arrays whose raw bytes agree
    but whose dtype or shape differ (e.g. a (4,) float64 vs (8,) float32).
    """
    a = np.ascontiguousarray(arr)
    h.update(name.encode())
    h.update(a.dtype.str.encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def _update_with_matrix(h, name: str, mat) -> None:
    """Hash a sparse (CSR) or dense matrix by content."""
    if issparse(mat):
        csr = mat.tocsr()
        csr.sort_indices()
        h.update(name.encode())
        h.update(repr(csr.shape).encode())
        _update_with_array(h, name + ".data", csr.data)
        _update_with_array(h, name + ".indices", csr.indices)
        _update_with_array(h, name + ".indptr", csr.indptr)
    else:
        _update_with_array(h, name, np.asarray(mat))


def device_content_hash(device) -> str:
    """sha256 over the matrix content of one :class:`DeviceMatrices`.

    Covers the device Hamiltonian and overlap (so structure, basis,
    k-point phases, and any applied potential), the block layout, and
    the lead blocks the OBC solves consume.
    """
    h = hashlib.sha256()
    h.update(b"repro-device-v1")
    _update_with_matrix(h, "hmat", device.hmat)
    _update_with_matrix(h, "smat", device.smat)
    _update_with_array(h, "block_sizes", np.asarray(device.block_sizes))
    _update_with_array(h, "cell_sizes", np.asarray(device.cell_sizes))
    _update_with_array(h, "kpoint", np.asarray(device.kpoint, dtype=float))
    _update_with_lead(h, device.lead)
    return h.hexdigest()


def _update_with_lead(h, lead) -> None:
    """Feed the lead blocks the OBC solves consume into the hash."""
    for i, cell in enumerate(lead.h_cells):
        _update_with_matrix(h, f"lead.h_cells[{i}]", cell)
    for i, cell in enumerate(lead.s_cells):
        _update_with_matrix(h, f"lead.s_cells[{i}]", cell)
    for name in ("h00", "h01", "s00", "s01"):
        _update_with_matrix(h, "lead." + name, getattr(lead, name))


def lead_content_hash(lead) -> str:
    """sha256 over the block content of one :class:`LeadBlocks`.

    Everything an open-boundary solve reads besides (E, method, kwargs):
    two leads share a boundary memo entry only when this agrees, so
    different k-points or a perturbed contact cell can never alias.
    """
    h = hashlib.sha256()
    h.update(b"repro-lead-v1")
    _update_with_lead(h, lead)
    return h.hexdigest()


def _canonical_value(value) -> str:
    """Deterministic text form of one kwargs value."""
    if isinstance(value, float):
        return "f:" + canonical_float(value)
    if isinstance(value, bool):
        return "b:" + repr(value)
    if isinstance(value, int):
        return "i:" + repr(value)
    if isinstance(value, str):
        return "s:" + value
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical_value(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return "a:" + hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()
    return "r:" + repr(value)


def canonical_kwargs(kwargs) -> str:
    """Order-independent canonical form of an OBC kwargs dict."""
    items = sorted((kwargs or {}).items())
    return ";".join(f"{k}={_canonical_value(v)}" for k, v in items)


def result_key(device_hash: str, *, obc_method: str, obc_kwargs,
               solver: str, num_partitions: int, kz: float,
               energy: float) -> str:
    """Content-addressed key of one (k, E) solve."""
    parts = (
        f"schema={KEY_SCHEMA_VERSION}",
        f"device={device_hash}",
        f"obc={obc_method}",
        f"obc_kwargs={canonical_kwargs(obc_kwargs)}",
        f"solver={solver}",
        f"partitions={int(num_partitions)}",
        f"kz={canonical_float(kz)}",
        f"energy={canonical_float(energy)}",
    )
    h = hashlib.sha256()
    h.update("\n".join(parts).encode())
    return h.hexdigest()
