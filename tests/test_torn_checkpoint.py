"""A checkpoint cut short mid-write ends in a typed error, never a crash.

The save path flushes and fsyncs before its atomic rename, but a file
can still be torn by a full disk or a copy interrupted outside the
library.  Whatever is left on disk, ``load`` and both resume paths - the
SCF loop and the bias sweep, which share one ``"sweep"`` record - raise
:class:`~repro.utils.errors.CheckpointError` naming the file.  So does a
checkpoint of another kind, such as the separate ``"scf"`` and
``"production"`` formats these loops once wrote.
"""

import numpy as np
import pytest

from repro.core.production import run_production
from repro.poisson.scf import schroedinger_poisson
from repro.runtime import CheckpointStore
from repro.structure import linear_chain
from repro.utils.errors import CheckpointError
from tests.test_hamiltonian import single_s_basis

WINDOW = (-1.8, -0.2)


def _resume_scf(path):
    schroedinger_poisson(linear_chain(8, 0.25), single_s_basis(), 8,
                         mu_l=-0.6, mu_r=-0.6, e_window=WINDOW,
                         max_iter=1, checkpoint=path)


def _resume_sweep(path):
    run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                   bias_points=[0.0], mu_source=-0.6, e_window=WINDOW,
                   scf_kwargs=dict(max_iter=1), checkpoint=path)


@pytest.fixture(scope="module")
def sweep_bytes(tmp_path_factory):
    """The bytes of a one-point sweep record."""
    path = tmp_path_factory.mktemp("sweep") / "sweep.npz"
    _resume_sweep(path)
    return path.read_bytes()


def _torn(tmp_path, raw, where):
    cut = {"empty": 0, "header": 10, "half": len(raw) // 2,
           "tail": len(raw) - 5}[where]
    path = tmp_path / "torn.npz"
    path.write_bytes(raw[:cut])
    return path


@pytest.mark.parametrize("where", ["empty", "header", "half", "tail"])
def test_load_raises_checkpoint_error(tmp_path, sweep_bytes, where):
    path = _torn(tmp_path, sweep_bytes, where)
    with pytest.raises(CheckpointError, match="torn.npz"):
        CheckpointStore(path).load("sweep")


@pytest.mark.parametrize("where", ["empty", "header", "half", "tail"])
def test_scf_resume_raises_checkpoint_error(tmp_path, sweep_bytes, where):
    path = _torn(tmp_path, sweep_bytes, where)
    with pytest.raises(CheckpointError, match="torn.npz"):
        _resume_scf(path)


@pytest.mark.parametrize("where", ["empty", "header", "half", "tail"])
def test_sweep_resume_raises_checkpoint_error(tmp_path, sweep_bytes,
                                              where):
    path = _torn(tmp_path, sweep_bytes, where)
    with pytest.raises(CheckpointError, match="torn.npz"):
        _resume_sweep(path)


@pytest.mark.parametrize("resume", [_resume_scf, _resume_sweep],
                         ids=["scf", "sweep"])
@pytest.mark.parametrize("kind", ["scf", "production"])
def test_other_kind_raises_checkpoint_error(tmp_path, kind, resume):
    """The state each loop wrote before the two shared one record."""
    path = tmp_path / "old.npz"
    natoms = linear_chain(8, 0.25).num_atoms
    if kind == "scf":
        state = dict(iteration=1, potential=np.zeros(natoms),
                     density=np.zeros(natoms), residuals=[0.1],
                     converged=False)
    else:
        state = dict(vds=[0.0], current=[1e-7], scf_iterations=[3],
                     converged=[True], potentials=np.zeros((1, natoms)))
    CheckpointStore(path).save(kind, **state)
    with pytest.raises(CheckpointError, match="old.npz"):
        resume(path)
