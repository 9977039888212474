"""A checkpoint cut short mid-write ends in a typed error, never a crash.

The save path flushes and fsyncs before its atomic rename, but a file
can still be torn by a full disk or a copy interrupted outside the
library.  Whatever is left on disk, ``load`` and every resume path
raise :class:`~repro.utils.errors.CheckpointError` naming the file.
"""

import pytest

from repro.core.production import run_production
from repro.core.runner import compute_spectrum
from repro.runtime import CheckpointStore
from repro.structure import linear_chain
from repro.utils.errors import CheckpointError
from tests.test_hamiltonian import single_s_basis


@pytest.fixture(scope="module")
def production_bytes(tmp_path_factory):
    """The bytes of a one-point ``production`` checkpoint."""
    path = tmp_path_factory.mktemp("sweep") / "sweep.npz"
    run_production(linear_chain(8, 0.25), single_s_basis(), 8,
                   bias_points=[0.0], mu_source=-0.6,
                   e_window=(-1.8, -0.2), checkpoint=path)
    return path.read_bytes()


def _torn(tmp_path, raw, where):
    cut = {"empty": 0, "header": 10, "half": len(raw) // 2,
           "tail": len(raw) - 5}[where]
    path = tmp_path / "torn.npz"
    path.write_bytes(raw[:cut])
    return path


@pytest.mark.parametrize("where", ["empty", "header", "half", "tail"])
def test_load_raises_checkpoint_error(tmp_path, production_bytes, where):
    path = _torn(tmp_path, production_bytes, where)
    with pytest.raises(CheckpointError, match="torn.npz"):
        CheckpointStore(path).load("production")


@pytest.mark.parametrize("where", ["empty", "header", "half", "tail"])
def test_spectrum_resume_raises_checkpoint_error(tmp_path,
                                                 production_bytes, where):
    path = _torn(tmp_path, production_bytes, where)
    with pytest.raises(CheckpointError, match="torn.npz"):
        compute_spectrum(linear_chain(4, 0.25), single_s_basis(), 4,
                         [-0.5], checkpoint=path)
