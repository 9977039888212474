"""The kernel backend behind the three batched dispatchers.

:mod:`repro.linalg.batched` defines *what* the energy-batched kernels
compute (stacked GEMM, LU factor, LU solve) and what they record in the
flop ledger.  This module defines *who* executes its three public
dispatchers (``gemm_batched``, ``lu_factor_batched``,
``lu_solve_batched``): the :class:`KernelBackend` that
:func:`backend_scope` installs thread-locally, the ``numpy`` reference
outside every scope.  No transport path reads the scope — the stacked
RGF sweep calls the reference kernels directly — so a transport result
never depends on which backend a caller has open.

Built-in backends
-----------------
``numpy``
    The reference implementation: the ``_*_impl`` kernels of
    :mod:`repro.linalg.batched`.
``mixed``
    Mixed-precision LU with iterative refinement
    (:mod:`repro.linalg.mixed`): complex64 factorization, complex128
    refined solutions behind a per-slice residual gate with
    double-precision fallback.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager

from repro.utils.errors import ConfigurationError


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

    #: the name :func:`get_backend` knows the backend by
    name: str

    @abstractmethod
    def gemm_batched(self, a, b, tag: str = "", out=None):
        """C[e] = A[e] @ B[e] over the stack."""

    @abstractmethod
    def lu_factor_batched(self, a, tag: str = ""):
        """Stacked LU factorization; opaque factor object."""

    @abstractmethod
    def lu_solve_batched(self, fac, b, tag: str = ""):
        """Solve with a factor object from ``lu_factor_batched``."""

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(KernelBackend):
    """The reference backend: the unmodified NumPy/SciPy kernels.

    The methods call the exact module functions that
    :mod:`repro.linalg.batched` has always run — same BLAS calls, same
    ledger records, bitwise-identical results by construction.
    """

    name = "numpy"

    def gemm_batched(self, a, b, tag: str = "", out=None):
        from repro.linalg import batched as _b
        return _b._gemm_batched_impl(a, b, tag=tag, out=out)

    def lu_factor_batched(self, a, tag: str = ""):
        from repro.linalg import batched as _b
        return _b._lu_factor_batched_impl(a, tag=tag)

    def lu_solve_batched(self, fac, b, tag: str = ""):
        from repro.linalg import batched as _b
        return _b._lu_solve_batched_impl(fac, b, tag=tag)


def _make_mixed():
    from repro.linalg.mixed import MixedPrecisionBackend
    return MixedPrecisionBackend()


_FACTORIES = {
    "numpy": NumpyBackend,
    "mixed": _make_mixed,
}
_INSTANCES: dict = {}
_INSTANCES_LOCK = threading.Lock()


def get_backend(name: str) -> KernelBackend:
    """The singleton instance of a built-in backend; an unknown name is
    a :class:`ConfigurationError`."""
    name = str(name)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; built-in: "
            f"{', '.join(sorted(_FACTORIES))}")
    with _INSTANCES_LOCK:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = factory()
    return inst


_tls = threading.local()


def current_backend() -> KernelBackend:
    """The backend the batched dispatchers use on this thread."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else get_backend("numpy")


@contextmanager
def backend_scope(backend):
    """Install a kernel backend (an instance or a built-in name)
    thread-locally; yields the instance."""
    inst = backend if isinstance(backend, KernelBackend) \
        else get_backend(backend)
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(inst)
    try:
        yield inst
    finally:
        stack.pop()
