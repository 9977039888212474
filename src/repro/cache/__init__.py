"""Persistent, content-addressed result cache (the cross-run memo).

``repro.cache`` promotes the in-run :class:`~repro.pipeline.cache.DeviceCache`
memoization to a durable on-disk store: every solved (k, E) point is
published under a canonical content hash of everything that determines
its value — device matrices (Hamiltonian/overlap blocks, i.e. structure,
basis and applied potential), OBC method and kwargs, solver, k, and E.
Repeated or overlapping requests — the millions-of-users scenario — hit
the store instead of re-solving.
"""

from repro.cache.keys import (canonical_float, device_content_hash,
                              lead_content_hash, result_key)
from repro.cache.store import (RECORD_SCHEMA_VERSION, ResultStore,
                               as_result_store, pack_result, unpack_result)

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "ResultStore",
    "as_result_store",
    "canonical_float",
    "device_content_hash",
    "lead_content_hash",
    "pack_result",
    "result_key",
    "unpack_result",
]
