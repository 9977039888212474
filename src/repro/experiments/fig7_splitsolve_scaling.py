"""Fig. 7: weak and strong scaling of SplitSolve.

Paper (Piz Daint, UTBFET): (a) weak scaling at 2560 atoms/GPU — the
efficiency drops with GPU count because of the extra spike computations
(log2(p) recursive merge steps); (b) strong scaling of a 10 240-atom
structure is poor because the structure barely fits 2 GPUs yet offers
too little work for >= 8.

Two reproductions:

* *measured* — the real SplitSolve on this machine, threads as
  accelerators, laptop-scale blocks; the spike-merge overhead and the
  strong-scaling saturation are directly observable;
* *modelled* — the calibrated Piz Daint machine model evaluated at the
  paper's sizes, reproducing the published second-level numbers
  (30 s on 2 GPUs to ~70 s on 32 GPUs weak; see caption).
"""

from __future__ import annotations

import time

import numpy as np

from repro.hardware.machine import SimulatedMachine
from repro.hardware.specs import PIZ_DAINT
from repro.linalg import BlockTridiagonalMatrix
from repro.perfmodel.costmodel import splitsolve_flop_model
from repro.solvers import SplitSolve
from repro.utils.rng import make_rng

#: Paper caption numbers for the weak-scaling curve (seconds).
PAPER_WEAK = {2: 30.0, 32: 70.0}
PAPER_SPIKE_STEP_S = 10.0


def _random_system(num_blocks, block_size, seed=0):
    rng = make_rng(seed)

    def blk():
        return (rng.standard_normal((block_size, block_size))
                + 1j * rng.standard_normal((block_size, block_size)))

    diag = [blk() + 4 * block_size * np.eye(block_size)
            for _ in range(num_blocks)]
    upper = [blk() for _ in range(num_blocks - 1)]
    lower = [blk() for _ in range(num_blocks - 1)]
    a = BlockTridiagonalMatrix(diag, upper, lower)
    sl = 0.2 * blk()
    sr = 0.2 * blk()
    bt = blk()[:, :2]
    bb = blk()[:, :2]
    return a, sl, sr, bt, bb


def run_measured(block_size: int = 28, blocks_per_partition: int = 6,
                 partitions=(1, 2, 4), strong_blocks: int = 16,
                 repeats: int = 2) -> dict:
    """Real SplitSolve wall-clock scaling on this host."""
    weak = {}
    for p in partitions:
        nb = blocks_per_partition * p
        a, sl, sr, bt, bb = _random_system(nb, block_size, seed=p)
        best = np.inf
        for _ in range(repeats):
            ss = SplitSolve(a, num_partitions=p, parallel=True)
            t0 = time.perf_counter()
            ss.solve(sl, sr, bt, bb)
            best = min(best, time.perf_counter() - t0)
        weak[p] = best

    strong = {}
    a, sl, sr, bt, bb = _random_system(strong_blocks, block_size, seed=99)
    for p in partitions:
        if p > strong_blocks:
            continue
        best = np.inf
        for _ in range(repeats):
            ss = SplitSolve(a, num_partitions=p, parallel=True)
            t0 = time.perf_counter()
            ss.solve(sl, sr, bt, bb)
            best = min(best, time.perf_counter() - t0)
        strong[p] = best
    return {"weak": weak, "strong": strong, "block_size": block_size,
            "blocks_per_partition": blocks_per_partition}


def run_modelled(atoms_per_gpu: int = 2560, orbitals_per_atom: int = 12,
                 block_atoms: int = 320,
                 gpu_counts=(2, 4, 8, 16, 32)) -> dict:
    """Paper-scale Piz Daint model of the Fig. 7(a) weak-scaling curve.

    The spike-merge flops are part of the flop model itself; the model's
    per-recursive-step increment is a genuine *prediction* to compare
    against the paper's measured "10 sec per recursive step".
    """
    machine = SimulatedMachine(PIZ_DAINT)
    s = block_atoms * orbitals_per_atom
    rows = {}
    for g in gpu_counts:
        partitions = max(g // 2, 1)
        nb = (atoms_per_gpu * g) // block_atoms
        flops = splitsolve_flop_model(nb, s, num_rhs=2 * s // 10,
                                      num_partitions=partitions)
        rows[g] = flops / (machine.gpu_rate() * g)
    gpus = sorted(rows)
    steps = max(int(np.log2(max(gpus) // 2)) - 0, 1)
    per_step = (rows[gpus[-1]] - rows[gpus[0]]) / max(
        np.log2(gpus[-1] / gpus[0]), 1)
    return {"weak_model": rows, "modelled_spike_step_s": float(per_step)}


def run(**kwargs) -> dict:
    out = run_measured(**{k: v for k, v in kwargs.items()
                          if k in run_measured.__code__.co_varnames})
    out.update(run_modelled())
    return out


def report(results: dict) -> str:
    lines = ["Fig. 7(a) — SplitSolve weak scaling (measured, this host)",
             "  partitions  time(s)   efficiency"]
    weak = results["weak"]
    base = min(weak)
    for p, t in sorted(weak.items()):
        eff = weak[base] / t
        lines.append(f"  {p:10d}  {t:7.3f}   {eff:6.2f}")
    lines.append("Fig. 7(b) — strong scaling (measured, fixed size)")
    strong = results["strong"]
    base_t = strong[min(strong)]
    for p, t in sorted(strong.items()):
        lines.append(f"  {p:10d}  {t:7.3f}   speedup {base_t / t:5.2f}")
    lines.append("Fig. 7(a) — Piz Daint model at paper scale "
                 "(2560 atoms/GPU)")
    for g, t in sorted(results["weak_model"].items()):
        note = ""
        if g in PAPER_WEAK:
            note = f"   (paper: {PAPER_WEAK[g]:.0f} s)"
        lines.append(f"  {g:3d} GPUs: {t:6.1f} s{note}")
    lines.append(
        f"  modelled cost per recursive merge step: "
        f"{results['modelled_spike_step_s']:.0f} s "
        f"(paper measured: {PAPER_SPIKE_STEP_S:.0f} s)")
    return "\n".join(lines)
