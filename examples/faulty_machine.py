#!/usr/bin/env python
"""Surviving a misbehaving machine: real faults + resilience.

The paper's production runs hold thousands of nodes for hours per bias
point; at that scale tasks fail, and OMEN survives them only because
every (k, E) task is independent and can be re-run.  This example hands
the runners tasks that really raise, and shows the fault-tolerance
layer absorbing them:

1. an *unprotected* run aborts with the failed (k, E) task identified,
2. the same faults under :class:`ResilientTaskRunner` are retried until
   the spectrum is bit-identical to the fault-free one,
3. a killed Schroedinger-Poisson loop resumes from its checkpoint, and
   a bias sweep whose process is killed (SIGKILL) in the middle of a
   bias point resumes at the next SCF iteration of that point.

No runner takes a fault hook: the task list is the seam, so a fault is
injected by wrapping the tasks a runner is handed.  The script exits
non-zero unless every resumed run is bitwise the uninterrupted one.

Run:  python examples/faulty_machine.py
"""

import multiprocessing
import os
import signal
import sys
import tempfile

import numpy as np

from repro.core.production import run_production
from repro.core.runner import compute_spectrum
from repro.parallel import ThreadTaskRunner
from repro.poisson.scf import schroedinger_poisson
from repro.runtime import CheckpointStore, ResilientTaskRunner
from repro.basis.shells import BasisSet, Shell, SpeciesBasis
from repro.structure import linear_chain
from repro.utils.errors import TaskExecutionError


def single_s_basis():
    """Single-orbital chain basis: the analytic anchor."""
    sb = SpeciesBasis("X", (Shell(l=0, energy=0.0, decay=0.2),))
    return BasisSet(name="1s", species={"X": sb}, cutoff=0.27,
                    energy_scale=1.0, overlap_scale=0.0)


def failing_first(task, fails):
    """``task``, raising a transient error on its first ``fails`` calls."""
    left = [fails]

    def run():
        if left[0] > 0:
            left[0] -= 1
            raise RuntimeError("link error")
        return task()
    return run


def with_faults(runner, fails):
    """``runner`` over task lists whose task ``i`` fails ``fails(i)``
    times before it succeeds."""
    def run(tasks):
        return runner([failing_first(t, fails(i))
                       for i, t in enumerate(tasks)])
    return run


class DyingStore(CheckpointStore):
    """A checkpoint whose process is killed (SIGKILL) right after it
    writes the sweep record of SCF iteration 2 of bias point 2."""

    def save(self, kind, telemetry=None, **state):
        super().save(kind, telemetry=telemetry, **state)
        if len(state["vds"]) == 2 and state.get("scf_iterations") == 2:
            os.kill(os.getpid(), signal.SIGKILL)


def sweep(checkpoint=None):
    """A two-point bias sweep, four SCF iterations per point."""
    return run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                          [0.0, 0.1], mu_source=-0.6, e_window=(-1.8, -0.2),
                          scf_kwargs=dict(max_iter=4, tol=1e-12),
                          checkpoint=checkpoint)


def killed_sweep(path):
    sweep(DyingStore(path))


def main():
    chain = linear_chain(10, 0.25)
    basis = single_s_basis()
    energies = np.linspace(-1.0, -0.2, 9)

    # -- fault-free reference ------------------------------------------------
    clean = compute_spectrum(chain, basis, 10, energies,
                             obc_method="dense", solver="rgf")
    print(f"reference: {energies.size} energy points, "
          f"<T> = {clean.k_averaged_transmission().mean():.3f}")

    # every third task fails once, every fifth a second time
    def fails(i):
        return (i % 3 == 1) + (i % 5 == 2)

    # -- 1. unprotected runner dies (but reports *which* task) ---------------
    bare = ThreadTaskRunner(4)
    try:
        compute_spectrum(chain, basis, 10, energies,
                         obc_method="dense", solver="rgf",
                         task_runner=with_faults(bare, fails))
    except TaskExecutionError as err:
        print(f"\nunprotected run died: task {err.task_index} "
              f"(k={err.kpoint_index}, E-index {err.energy_index}) "
              f"on {err.node}: {err.__cause__}")

    # -- 2. the resilient runner absorbs the same faults ---------------------
    runner = ResilientTaskRunner(ThreadTaskRunner(4), max_retries=3)
    protected = compute_spectrum(chain, basis, 10, energies,
                                 obc_method="dense", solver="rgf",
                                 task_runner=with_faults(runner, fails))
    identical = np.array_equal(protected.transmission, clean.transmission)
    print(f"\nprotected run, {sum(map(fails, range(energies.size)))} "
          f"failed attempts over {energies.size} tasks:")
    print(runner.telemetry.summary())
    print(f"  spectrum identical to fault-free run: {identical}")

    # -- 3. checkpoint/restart of the SCF loop -------------------------------
    args = dict(mu_l=-0.5, mu_r=-0.5, e_window=(-1.5, 0.0), mixing=0.3,
                tol=1e-12, density_scale=0.05)
    chain8 = linear_chain(8, 0.25)
    ckpt = os.path.join(tempfile.mkdtemp(), "scf.npz")
    schroedinger_poisson(chain8, basis, 8, max_iter=2, checkpoint=ckpt,
                         **args)                      # "the job was killed"
    resumed = schroedinger_poisson(chain8, basis, 8, max_iter=4,
                                   checkpoint=ckpt, **args)
    straight = schroedinger_poisson(chain8, basis, 8, max_iter=4, **args)
    match = np.array_equal(resumed.potential_atom, straight.potential_atom)
    print(f"\nSCF killed after 2/4 iterations, resumed from {ckpt}:")
    print(f"  resumed trajectory identical to uninterrupted run: {match}")

    # -- 3b. a bias sweep killed in the middle of its second point ----------
    record = os.path.join(os.path.dirname(ckpt), "sweep.npz")
    child = multiprocessing.get_context("spawn").Process(
        target=killed_sweep, args=(record,))
    child.start()
    child.join()
    resumed_sweep = sweep(record)
    straight_sweep = sweep()
    same = all(
        got.current.hex() == want.current.hex()
        and got.scf_iterations == want.scf_iterations
        and np.array_equal(got.potential, want.potential)
        for got, want in zip(resumed_sweep.points, straight_sweep.points,
                             strict=True))
    print(f"\nsweep process killed by signal {-child.exitcode} after SCF "
          f"iteration 2 of bias point 2, resumed from {record}:")
    print(resumed_sweep.iv_table())
    print(f"  currents, SCF iterations and potentials identical to the "
          f"uninterrupted sweep: {same}")
    if not (identical and match and same
            and child.exitcode == -signal.SIGKILL):
        sys.exit("a resumed run differs from the uninterrupted one")


if __name__ == "__main__":
    main()
