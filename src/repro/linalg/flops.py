"""Floating-point operation accounting — the PAPI/CUPTI substitute.

The paper measures CPU flops with PAPI (``PAPI_DP_OPS``) and GPU flops by
sampling CUPTI device counters.  Here every instrumented kernel
(:mod:`repro.linalg.kernels`) reports a *deterministic analytic* flop count
to the active :class:`FlopLedger`.  The counts use the standard LAPACK
conventions (one multiply + one add = 2 flops; a complex multiply-add = 8
flops), the same accounting the paper's 15 PFlop/s figure rests on.
What a kernel costs - flops and bytes - is declared once, in the price
table behind :func:`kernel_cost`: the wrappers record from it and the
cost models of :mod:`repro.perfmodel.costmodel` sum over it.

Ledgers are thread-local by default so SPMD rank programs running on
threads each accumulate into their own ledger; a ledger can also be shared
explicitly via :func:`ledger_scope`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


# --------------------------------------------------------------------------
# Analytic flop formulas (real counts; multiply by 4 for complex128,
# following the convention that a complex mul-add costs 4x a real one).
# --------------------------------------------------------------------------

def _cplx_factor(is_complex: bool) -> int:
    return 4 if is_complex else 1


def gemm_flops(m: int, n: int, k: int, is_complex: bool = True) -> int:
    """Flops of C <- A(m,k) @ B(k,n): 2mnk real, 8mnk complex."""
    return 2 * m * n * k * _cplx_factor(is_complex)


def lu_flops(n: int, is_complex: bool = True) -> int:
    """Flops of an n-by-n LU factorization: (2/3)n^3 real."""
    return int(round(2.0 / 3.0 * n ** 3)) * _cplx_factor(is_complex)


def trsm_flops(n: int, nrhs: int, is_complex: bool = True) -> int:
    """Flops of one triangular solve with nrhs right-hand sides: n^2*nrhs."""
    return n * n * nrhs * _cplx_factor(is_complex)


def solve_flops(n: int, nrhs: int, is_complex: bool = True) -> int:
    """LU factorization + forward/backward substitution."""
    return lu_flops(n, is_complex) + 2 * trsm_flops(n, nrhs, is_complex)


def eig_flops(n: int, is_complex: bool = True) -> int:
    """Nominal flops of a dense nonsymmetric eigendecomposition (~25 n^3).

    LAPACK does not publish an exact count for ``zggev``/``zgeev``; 25 n^3 is
    the customary accounting (Golub & Van Loan) also used in OMEN's own
    estimates for the FEAST Rayleigh-Ritz step.
    """
    return 25 * n ** 3 * _cplx_factor(is_complex)


# --------------------------------------------------------------------------
# The price table: what one instrumented kernel costs, declared once.
# The wrappers of :mod:`repro.linalg.kernels` / :mod:`repro.linalg.batched`
# record from it and the models of :mod:`repro.perfmodel.costmodel` sum
# over it, so a model and a ledger cannot disagree on a kernel's price.
#
# kind -> (flops(*dims, is_complex), bytes(*dims, itemsize)): operands in
# and results out, all of them in the working dtype (the one LAPACK runs
# in, whatever dtype an operand arrived in).
# --------------------------------------------------------------------------

def _substitution_flops(n: int, nrhs: int, is_complex: bool) -> int:
    return 2 * trsm_flops(n, nrhs, is_complex)


def _solve_bytes(n: int, nrhs: int, itemsize: int) -> int:
    return (n * n + 2 * n * nrhs) * itemsize        # a + b + x


_KERNEL_COSTS = {
    # C(m,n) = A(m,k) B(k,n): a + b + c
    "gemm": (gemm_flops,
             lambda m, n, k, w: (m * k + k * n + m * n) * w),
    # getrf: the matrix read + the factors written
    "lu_factor": (lu_flops, lambda n, w: 2 * n * n * w),
    # getrs: rhs read + solution written
    "lu_solve": (_substitution_flops, lambda n, nrhs, w: 2 * n * nrhs * w),
    # gesv, and hesv (LDL^H: half an LU)
    "solve": (solve_flops, _solve_bytes),
    "solve_her": (lambda n, nrhs, cx: lu_flops(n, cx) // 2
                  + _substitution_flops(n, nrhs, cx), _solve_bytes),
    # getri after getrf: 2 n^3 in all
    "inv": (lambda n, cx: 2 * n ** 3 * _cplx_factor(cx),
            lambda n, w: 2 * n * n * w),
    # geev / ggev run complex whatever the operands (ggev: two matrices,
    # twice the nominal count); heev / hegv are half a geev
    "eig": (lambda n, cx: eig_flops(n, True), lambda n, w: 3 * n * n * w),
    "eigh": (lambda n, cx: eig_flops(n, cx) // 2,
             lambda n, w: 3 * n * n * w),
    "geig": (lambda n, cx: 2 * eig_flops(n, True),
             lambda n, w: 4 * n * n * w),
    # reduced QR of an (m, n) block
    "qr": (lambda m, n, cx: (2 * m * n * n - 2 * n ** 3 // 3)
           * _cplx_factor(cx),
           lambda m, n, w: 2 * m * n * w),
    # the mixed backend's low-precision pair (same operation counts; the
    # factor reads the input, keeps a full-width copy for the residuals
    # and factors the half-width cast in place, a sweep moves rhs +
    # solution at half width)
    "lu_factor_c64": (lu_flops,
                      lambda n, w: 2 * n * n * w + 3 * n * n * (w // 2)),
    "lu_solve_c64": (_substitution_flops,
                     lambda n, nrhs, w: 2 * n * nrhs * (w // 2)),
    # sparse LU of T with nnz stored entries (T read, L and U written),
    # priced from the realized fill: pairs = sum_k nnz(L[:, k]) nnz(U[k, :])
    "lu_sparse": (lambda pairs, nnz, cx: 2 * pairs * _cplx_factor(cx),
                  lambda pairs, nnz, w: 3 * nnz * w),
    # its solve over fill = nnz(L + U): the (n, nrhs) rhs read and the
    # solution written
    "lu_sparse_solve": (
        lambda fill, n, nrhs, cx: 2 * fill * nrhs * _cplx_factor(cx),
        lambda fill, n, nrhs, w: 2 * n * nrhs * w),
}


def kernel_cost(kind: str, dims, is_complex: bool = True) -> tuple:
    """``(flops, bytes)`` one instrumented kernel of ``kind`` records on
    operands of ``dims``, both counted in the working dtype."""
    flops, nbytes = _KERNEL_COSTS[kind]
    return flops(*dims, is_complex), nbytes(*dims, 16 if is_complex else 8)


# --------------------------------------------------------------------------
# Ledger
# --------------------------------------------------------------------------

@dataclass
class KernelEvent:
    """One instrumented kernel execution, for activity traces (Fig. 12b)."""

    kernel: str
    device: str
    flops: int
    bytes_moved: int
    t_start: float
    t_stop: float
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start


@dataclass
class FlopLedger:
    """Accumulates flop/byte counts per kernel and per device.

    Parameters
    ----------
    trace : bool
        If true, every kernel call is also appended to :attr:`events`,
        enabling nvprof-style activity timelines.  Off by default because
        traces grow with the number of kernel launches.
    """

    trace: bool = False
    flops_by_kernel: dict = field(default_factory=lambda: defaultdict(int))
    flops_by_device: dict = field(default_factory=lambda: defaultdict(int))
    bytes_by_kernel: dict = field(default_factory=lambda: defaultdict(int))
    bytes_by_device: dict = field(default_factory=lambda: defaultdict(int))
    events: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, kernel: str, flops: int, bytes_moved: int = 0,
               device: str = "cpu", tag: str = "",
               t_start: float | None = None,
               t_stop: float | None = None) -> None:
        with self._lock:
            self.flops_by_kernel[kernel] += flops
            self.flops_by_device[device] += flops
            self.bytes_by_kernel[kernel] += bytes_moved
            self.bytes_by_device[device] += bytes_moved
            if self.trace:
                now = time.perf_counter()
                self.events.append(KernelEvent(
                    kernel=kernel, device=device, flops=flops,
                    bytes_moved=bytes_moved,
                    t_start=t_start if t_start is not None else now,
                    t_stop=t_stop if t_stop is not None else now,
                    tag=tag,
                ))

    @property
    def total_flops(self) -> int:
        with self._lock:
            return sum(self.flops_by_device.values())

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(self.bytes_by_device.values())

    def flops_on(self, device_prefix: str) -> int:
        """Total flops on devices whose name starts with ``device_prefix``.

        Convention: simulated accelerators are named ``gpu<i>``, host CPUs
        ``cpu<i>`` (bare ``cpu`` for un-attributed host work).
        """
        with self._lock:
            return sum(v for k, v in self.flops_by_device.items()
                       if k.startswith(device_prefix))

    def merge(self, other: "FlopLedger") -> None:
        """Fold another ledger into this one (used when joining ranks)."""
        with self._lock, other._lock:
            for k, v in other.flops_by_kernel.items():
                self.flops_by_kernel[k] += v
            for k, v in other.flops_by_device.items():
                self.flops_by_device[k] += v
            for k, v in other.bytes_by_kernel.items():
                self.bytes_by_kernel[k] += v
            for k, v in other.bytes_by_device.items():
                self.bytes_by_device[k] += v
            self.events.extend(other.events)

    def as_snapshot(self) -> dict:
        """Plain-data state (what a worker process ships to its parent).

        Kernel events are intentionally excluded: they carry raw
        ``perf_counter`` pairs that are only meaningful inside one
        activity-trace session, and worker results should stay small.
        """
        with self._lock:
            return {"flops_by_kernel": dict(self.flops_by_kernel),
                    "flops_by_device": dict(self.flops_by_device),
                    "bytes_by_kernel": dict(self.bytes_by_kernel),
                    "bytes_by_device": dict(self.bytes_by_device)}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold an :meth:`as_snapshot` dict in (cross-process merge)."""
        with self._lock:
            for k, v in snap.get("flops_by_kernel", {}).items():
                self.flops_by_kernel[k] += int(v)
            for k, v in snap.get("flops_by_device", {}).items():
                self.flops_by_device[k] += int(v)
            for k, v in snap.get("bytes_by_kernel", {}).items():
                self.bytes_by_kernel[k] += int(v)
            for k, v in snap.get("bytes_by_device", {}).items():
                self.bytes_by_device[k] += int(v)

    def reset(self) -> None:
        with self._lock:
            self.flops_by_kernel.clear()
            self.flops_by_device.clear()
            self.bytes_by_kernel.clear()
            self.bytes_by_device.clear()
            self.events.clear()


# --------------------------------------------------------------------------
# Active-ledger plumbing
# --------------------------------------------------------------------------

_GLOBAL_LEDGER = FlopLedger()
_tls = threading.local()


def global_ledger() -> FlopLedger:
    """The process-wide default ledger."""
    return _GLOBAL_LEDGER


def current_ledger() -> FlopLedger:
    """The ledger kernel calls record into (thread-local scope aware)."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    return _GLOBAL_LEDGER


@contextmanager
def ledger_scope(ledger: FlopLedger | None = None, trace: bool = False):
    """Route kernel accounting in this thread into ``ledger``.

    Yields the ledger, creating a fresh one if none is given::

        with ledger_scope() as led:
            solve(a, b)
        print(led.total_flops)
    """
    if ledger is None:
        ledger = FlopLedger(trace=trace)
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(ledger)
    try:
        yield ledger
    finally:
        stack.pop()


@contextmanager
def device_scope(device: str):
    """Attribute kernel calls in this thread to a named (simulated) device."""
    prev = getattr(_tls, "device", "cpu")
    _tls.device = device
    try:
        yield
    finally:
        _tls.device = prev


def current_device() -> str:
    return getattr(_tls, "device", "cpu")
