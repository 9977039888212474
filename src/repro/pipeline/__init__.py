"""Data-centric transport pipeline: stages, registries, caching, traces.

The architectural layer between the physics modules and the runtime:
one (k, E) point is an explicit ``PREPARE -> OBC -> ASSEMBLE -> SOLVE ->
ANALYZE`` stage sequence (:class:`TransportPipeline`), stage
implementations are pluggable through decorator registries
(:func:`register_solver`, :func:`register_obc_method`), potential-invariant
data lives in a :class:`DeviceFamily` and k-invariant data of one potential
in its :class:`DeviceCache` objects, and every stage runs under
:func:`stage_scope`, whose ``category="stage"`` span is the stage's one
record in the run's stage table.

``TransportPipeline``, ``DeviceFamily`` and ``DeviceCache`` are imported
lazily: the registry and trace primitives must stay importable from low-level
modules (``repro.obc``, ``repro.solvers``) without dragging in the full
solve path.
"""

from repro.pipeline.registry import (
    AUTO,
    OBC_METHODS,
    SOLVERS,
    Registry,
    get_obc_method,
    get_solver,
    register_obc_method,
    register_solver,
    resolve_solver_name,
)
from repro.pipeline.trace import STAGES, stage_scope

__all__ = [
    "AUTO",
    "OBC_METHODS",
    "SOLVERS",
    "Registry",
    "get_obc_method",
    "get_solver",
    "register_obc_method",
    "register_solver",
    "resolve_solver_name",
    "STAGES",
    "stage_scope",
    "TransportPipeline",
    "DeviceCache",
    "DeviceFamily",
    "as_cache",
]

_LAZY = {
    "TransportPipeline": "repro.pipeline.pipeline",
    "DeviceCache": "repro.pipeline.cache",
    "DeviceFamily": "repro.pipeline.cache",
    "as_cache": "repro.pipeline.cache",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib
        mod = importlib.import_module(_LAZY[name])
        val = getattr(mod, name)
        globals()[name] = val
        return val
    raise AttributeError(f"module 'repro.pipeline' has no attribute {name!r}")
