"""Smoke test of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` is ``tests/``); run it by path::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"][-1] == "benchmarks/e2e/run.py"

    assert len(doc["workloads"]) == 4
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and workload["why"]
    workloads = [w["name"] for w in doc["workloads"]]
    assert workloads == list(e2e_workloads.WORKLOADS)

    end_to_end = doc["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"]
        assert metric["better"] in ("lower", "higher")
        assert metric["bound"] > 0
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")

    per_layer = doc["per_layer"]
    assert 1 <= len(per_layer) <= 128
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["unit"]
        assert metric["better"] in ("lower", "higher")

    names = workloads + [m["name"] for m in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_smoke_pass_checks_every_output_and_reports_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(HERE / "output" / "results-smoke.json") as fh:
        results = json.load(fh)
    assert list(results["workloads"]) == list(e2e_workloads.WORKLOADS)
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    for name, record in results["workloads"].items():
        assert record["failures"] == [], name
        end_to_end = record["end_to_end"]
        assert end_to_end["failed_fraction"]["value"] == 0
        for metric in _benchmark_json()["end_to_end"]:
            assert end_to_end[metric["name"]]["value"] > 0, metric["name"]
        assert set(record["per_layer"]) == per_layer
        assert name in proc.stdout
        with open(HERE / "output" / f"spans-{name}.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        assert spans[0]["name"] == "call" and spans[0]["parent"] is None
        for span in spans:
            assert {"name", "start", "end", "parent", "run_id",
                    "self_s"} <= set(span)
            assert -1e-9 <= span["self_s"] <= span["end"] - span["start"]
    for name in per_layer:
        assert name in proc.stdout
