"""Data-centric transport pipeline: stages, registries, caching, traces.

The architectural layer between the physics modules and the runtime:
one (k, E) point is an explicit ``PREPARE -> OBC -> ASSEMBLE -> SOLVE ->
ANALYZE`` stage sequence (:class:`TransportPipeline`), stage
implementations are pluggable through decorator registries
(:func:`register_solver`, :func:`register_obc_method`), potential-invariant
data lives in a :class:`DeviceFamily` and k-invariant data of one potential
in its :class:`DeviceCache` objects, and every stage emits a
:class:`StageTrace` that rolls up into the run's stage table and measured
load-balancer costs.

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
from repro.pipeline.trace import (STAGES, StageTrace, TaskTrace,
                                  apportion_exact, batch_stage_scope,
                                  stage_scope)

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
    "StageTrace",
    "TaskTrace",
    "stage_scope",
    "batch_stage_scope",
    "apportion_exact",
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
