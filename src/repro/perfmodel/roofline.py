"""Roofline analysis — the paper's conclusion claim.

"A roofline analysis of SplitSolve and FEAST shows that both algorithms
have high arithmetic intensity and are clearly compute bound.  It can
thus be expected that OMEN will run efficiently on future supercomputing
systems offering lower relative memory bandwidth" (Section 6).

The instrumented kernels record both flops and bytes, so arithmetic
intensity comes straight out of a ledger; combined with a device's peak
flop rate and memory bandwidth this classifies any recorded workload
against the roofline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.errors import ConfigurationError

if TYPE_CHECKING:       # annotations only: repro.hardware imports us back
    from repro.hardware.specs import GpuSpec


@dataclass
class RooflinePoint:
    """One workload placed on a device's roofline."""

    name: str
    flops: int
    bytes_moved: int
    device_peak_flops: float        # flop/s
    device_bandwidth: float         # byte/s

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of traffic."""
        if self.bytes_moved <= 0:
            return float("inf")
        return self.flops / self.bytes_moved

    @property
    def ridge_point(self) -> float:
        """Intensity (flop/byte) where compute and bandwidth limits meet."""
        return self.device_peak_flops / self.device_bandwidth

    @property
    def compute_bound(self) -> bool:
        return self.arithmetic_intensity >= self.ridge_point

    @property
    def attainable_flops(self) -> float:
        """min(peak, AI * BW): the roofline ceiling for this workload."""
        return min(self.device_peak_flops,
                   self.arithmetic_intensity * self.device_bandwidth)

    def row(self) -> str:
        kind = "COMPUTE bound" if self.compute_bound else "MEMORY bound"
        return (f"{self.name:<16s} AI = {self.arithmetic_intensity:8.1f} "
                f"flop/B (ridge {self.ridge_point:5.1f})  -> {kind}, "
                f"attainable {self.attainable_flops / 1e9:.0f} GF/s")


def roofline_from_ledger(ledger, gpu: GpuSpec,
                         kernel_prefixes=None) -> dict:
    """Place each recorded kernel family on a GPU's roofline.

    Parameters
    ----------
    ledger : FlopLedger with byte accounting.
    kernel_prefixes : iterable of str, optional
        Group kernels whose names start with a prefix (e.g. ``"zgemm"``);
        default: one point per distinct kernel name.

    Returns
    -------
    dict name -> :class:`RooflinePoint`.
    """
    flops_k = dict(ledger.flops_by_kernel)
    if not flops_k:
        raise ConfigurationError("ledger holds no kernel records")
    # Exact per-kernel traffic: every instrumented kernel records its own
    # operand + result bytes, so each roofline point gets *its* bytes —
    # not a flop-proportional share of the device total (which assigned
    # every kernel the same arithmetic intensity by construction).
    bytes_k = dict(getattr(ledger, "bytes_by_kernel", {}) or {})
    total_flops = sum(flops_k.values())
    total_bytes = sum(ledger.bytes_by_device.values())
    # Legacy snapshots predate per-kernel byte records; only then fall
    # back to the old flop-proportional apportionment.
    legacy = not any(bytes_k.values()) and total_bytes > 0
    peak = gpu.peak_dp_gflops * 1e9
    bw = gpu.bandwidth_gb_s * 1e9

    if kernel_prefixes is None:
        groups = {k: [k] for k in flops_k}
    else:
        groups = {p: [k for k in flops_k if k.startswith(p)]
                  for p in kernel_prefixes}
    out = {}
    for name, kernels in groups.items():
        f = sum(flops_k[k] for k in kernels)
        if f == 0:
            continue
        if legacy:
            b = int(total_bytes * f / total_flops) if total_flops else 0
        else:
            b = int(sum(bytes_k.get(k, 0) for k in kernels))
        out[name] = RooflinePoint(name=name, flops=f, bytes_moved=b,
                                  device_peak_flops=peak,
                                  device_bandwidth=bw)
    return out


def byte_drift(measured_bytes: float, predicted_bytes: float,
               tolerance: float = 0.05) -> dict:
    """Measured-vs-model byte comparison for one stage or kernel.

    Returns ``{"measured", "predicted", "ratio", "excess", "drifting"}``
    where ``ratio`` is measured/predicted and ``drifting`` flags stages
    moving more (or fewer) bytes than the model allows — the roofline
    drift check that catches silently-introduced extra copies.  A zero
    prediction only drifts when bytes were measured anyway.
    """
    measured = float(measured_bytes)
    predicted = float(predicted_bytes)
    if predicted <= 0.0:
        return {"measured": measured, "predicted": predicted,
                "ratio": float("inf") if measured > 0 else 1.0,
                "excess": measured, "drifting": measured > 0.0}
    ratio = measured / predicted
    return {"measured": measured, "predicted": predicted, "ratio": ratio,
            "excess": measured - predicted,
            "drifting": abs(ratio - 1.0) > float(tolerance)}


def drift_report(measured: dict, predicted: dict,
                 tolerance: float = 0.05) -> dict:
    """Measured-vs-model byte drift for a set of stages or kernels.

    ``measured`` and ``predicted`` map stage (or kernel) name to bytes;
    every name present in either dict gets a :func:`byte_drift`
    verdict.  A stage whose measured traffic exceeds its byte model by
    more than ``tolerance`` is ``drifting`` — the regression signal for
    silently-introduced extra copies that would erode arithmetic
    intensity.
    """
    return {name: byte_drift(measured.get(name, 0),
                             predicted.get(name, 0), tolerance)
            for name in sorted(set(measured) | set(predicted))}


def workload_roofline(ledger, gpu: GpuSpec, name: str = "workload"
                      ) -> RooflinePoint:
    """The whole ledger as a single roofline point."""
    total_flops = sum(ledger.flops_by_kernel.values())
    total_bytes = sum(ledger.bytes_by_device.values())
    if total_flops == 0:
        raise ConfigurationError("ledger holds no kernel records")
    return RooflinePoint(name=name, flops=total_flops,
                         bytes_moved=total_bytes,
                         device_peak_flops=gpu.peak_dp_gflops * 1e9,
                         device_bandwidth=gpu.bandwidth_gb_s * 1e9)
