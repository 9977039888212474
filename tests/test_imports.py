"""Every package can be the first ``repro`` import of an interpreter, and
a serial run loads only what it calls."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize("module", ["repro.runtime", "repro.poisson"])
def test_first_import_has_no_cycle(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_serial_run_loads_only_what_it_calls():
    """Importing ``repro.core.production`` and building a bias point's
    inputs loads none of the never-called packages, and the serial,
    untraced call itself first imports only ``repro.poisson``: nothing
    taken out of set-up reappears inside the call."""
    probe = os.path.join(os.path.dirname(__file__), "cold_start_probe.py")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["never_called"] == []
    assert [m for m in out["call_imports"]
            if m != "repro.poisson" and not m.startswith("repro.poisson.")] \
        == []
