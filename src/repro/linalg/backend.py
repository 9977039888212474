"""Pluggable kernel backends for the batched dense primitives.

:mod:`repro.linalg.batched` defines *what* the energy-batched kernels
compute (stacked GEMM, LU factor, LU solve) and what they record in the
flop ledger.  This module defines *who* executes them: a
:class:`KernelBackend` exposes the same three batched primitives plus
capability metadata, and the public functions in ``batched``
dispatch to whichever backend is currently selected.

Built-in backends
-----------------
``numpy``
    The reference implementation — the exact NumPy/SciPy code path the
    repo has always run.  Selecting it is bitwise identical to the
    pre-backend code (the dispatchers call the very same functions).
``mixed``
    Mixed-precision LU with iterative refinement
    (:mod:`repro.linalg.mixed`): complex64 factorization, complex128
    refined solutions behind a per-slice residual gate with
    double-precision fallback.

Selection
---------
:func:`resolve_backend` accepts a backend instance, a registered name,
or ``None`` (``numpy``).  :func:`backend_scope` installs a backend
thread-locally — the pipeline wraps each solve in one; worker processes
get the name in their unit spec.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass

from repro.utils.errors import ConfigurationError


class BackendUnavailableError(ConfigurationError):
    """The requested kernel backend cannot run in this environment."""


@dataclass(frozen=True)
class BackendCapabilities:
    """Static capability metadata of one kernel backend.

    ``deterministic`` means "bitwise identical to the reference
    backend" — the conformance suite tests it literally.  Backends with
    ``deterministic=False`` state their accuracy as ``tolerance``
    (max relative deviation from the reference solution the backend
    guarantees on well-conditioned inputs).
    """

    name: str
    dtypes: tuple
    native_batching: bool
    precision: str
    deterministic: bool
    tolerance: float = 0.0
    description: str = ""


class KernelBackend(ABC):
    """The batched-primitive protocol every backend implements.

    Contracts shared by all implementations:

    * shapes/validation as documented in :mod:`repro.linalg.batched`
      (``(nE, m, n)`` stacks, ragged widths are the caller's problem);
    * exactly the ledger-record discipline of the reference backend —
      one record per batched call, analytic flop counts (which are
      precision-independent), actual bytes of the arrays touched — so
      stage/ledger reconciliation holds for every backend;
    * ``lu_factor_batched`` returns an opaque factor object that only
      the same backend's ``lu_solve_batched`` needs to understand.
    """

    capabilities: BackendCapabilities

    @abstractmethod
    def gemm_batched(self, a, b, tag: str = "", out=None):
        """C[e] = A[e] @ B[e] over the stack."""

    @abstractmethod
    def lu_factor_batched(self, a, tag: str = ""):
        """Stacked LU factorization; opaque factor object."""

    @abstractmethod
    def lu_solve_batched(self, fac, b, tag: str = ""):
        """Solve with a factor object from ``lu_factor_batched``."""

    @property
    def name(self) -> str:
        return self.capabilities.name

    def __repr__(self):
        cap = self.capabilities
        return (f"<{type(self).__name__} {cap.name!r} "
                f"precision={cap.precision} "
                f"deterministic={cap.deterministic}>")


class NumpyBackend(KernelBackend):
    """The reference backend: the unmodified NumPy/SciPy kernels.

    The methods call the exact module functions that
    :mod:`repro.linalg.batched` has always run — same BLAS calls, same
    ledger records, bitwise-identical results by construction.
    """

    capabilities = BackendCapabilities(
        name="numpy",
        dtypes=("float64", "complex128"),
        native_batching=True,
        precision="double",
        deterministic=True,
        description="reference NumPy/SciPy stacked kernels")

    def gemm_batched(self, a, b, tag: str = "", out=None):
        from repro.linalg import batched as _b
        return _b._gemm_batched_impl(a, b, tag=tag, out=out)

    def lu_factor_batched(self, a, tag: str = ""):
        from repro.linalg import batched as _b
        return _b._lu_factor_batched_impl(a, tag=tag)

    def lu_solve_batched(self, fac, b, tag: str = ""):
        from repro.linalg import batched as _b
        return _b._lu_solve_batched_impl(fac, b, tag=tag)


# --------------------------------------------------------------------------
# Registry and selection
# --------------------------------------------------------------------------

def _make_mixed():
    from repro.linalg.mixed import MixedPrecisionBackend
    return MixedPrecisionBackend()


_FACTORIES = {
    "numpy": NumpyBackend,
    "mixed": _make_mixed,
}
_INSTANCES: dict = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(name: str, factory) -> None:
    """Register (or replace) a backend factory under ``name``."""
    with _REGISTRY_LOCK:
        _FACTORIES[str(name)] = factory
        _INSTANCES.pop(str(name), None)


def registered_backends() -> tuple:
    """All registered backend names (available or not)."""
    return tuple(_FACTORIES)


def get_backend(name: str) -> KernelBackend:
    """The singleton instance of a registered backend.

    Raises :class:`BackendUnavailableError` when the backend's factory
    cannot construct in this environment and :class:`ConfigurationError`
    for unknown names.
    """
    name = str(name)
    with _REGISTRY_LOCK:
        inst = _INSTANCES.get(name)
        if inst is not None:
            return inst
        factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(sorted(_FACTORIES))}")
    inst = factory()
    with _REGISTRY_LOCK:
        return _INSTANCES.setdefault(name, inst)


def available_backends() -> tuple:
    """Registered backend names that construct in this environment."""
    out = []
    for name in registered_backends():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        out.append(name)
    return tuple(out)


def resolve_backend(backend=None) -> KernelBackend:
    """Resolve a backend selector to an instance: a ``KernelBackend`` is
    returned as-is, a registered name gives the singleton instance, and
    ``None`` is ``numpy``."""
    if isinstance(backend, KernelBackend):
        return backend
    return get_backend("numpy" if backend is None else backend)


# --------------------------------------------------------------------------
# Thread-local selection
# --------------------------------------------------------------------------

_tls = threading.local()


def current_backend() -> KernelBackend:
    """The backend the batched dispatchers use on this thread."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    return resolve_backend(None)


@contextmanager
def backend_scope(backend=None):
    """Install a kernel backend thread-locally; yields the instance."""
    inst = resolve_backend(backend)
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(inst)
    try:
        yield inst
    finally:
        stack.pop()
