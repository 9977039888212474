"""Span-log overhead benchmark: the demo with its span log on vs off.

Runs the traced production demo without and with a streamed span log
(``jsonl_path``: every span appended and flushed as it closes) in
interleaved repeats, takes the minimum walltime of each mode, and gates
the claim the span log makes: watching a run must not meaningfully slow
it down.

* **overhead_ratio** — min(log-on walltime) / min(log-off walltime),
  gated at <= 1.05 by ``benchmarks/check_regression.py`` at any
  configuration (the bound is scale-free);
* **missing_span_records_deviation** — spans the tracer recorded minus
  lines the log holds, summed over the log-on repeats, gated bitwise at
  0 (the streamed log must be complete);
* **span_write_microseconds** — microbenchmarked cost of writing one
  span record (``as_dict``, JSON encoding, append and flush;
  informational: the per-span price paid inside instrumented code).

Writes ``BENCH_live.json`` at the repo root for
``benchmarks/check_regression.py``.

Run standalone (``python benchmarks/bench_live_overhead.py [--smoke]``)
or through pytest (``pytest benchmarks/bench_live_overhead.py``).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.observability.demo import traced_production_demo
from repro.observability.export import SpanLogWriter
from repro.observability.spans import Span

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_live.json"


def _write_cost(spans: int = 20000) -> float:
    """Microseconds per span record written to the log."""
    span = Span(name="SOLVE", category="stage", t_start=1.0, t_stop=1.5,
                flops=123456789, bytes_moved=98765432, worker="node1",
                span_id=42, parent_id=41, seq=42,
                attrs={"task_index": 7, "predicted_bytes": 98000000})
    with tempfile.TemporaryDirectory() as tmp:
        with SpanLogWriter(Path(tmp) / "spans.jsonl") as writer:
            t0 = time.perf_counter()
            for _ in range(spans):
                writer(span.as_dict())
            return (time.perf_counter() - t0) / spans * 1e6


def run(smoke: bool = False, repeats: int = 3) -> dict:
    seconds_off, seconds_on = [], []
    records = missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "spans.jsonl"
        # interleave the modes so machine-load drift hits both equally
        for _ in range(repeats):
            t0 = time.perf_counter()
            traced_production_demo(smoke=smoke)
            seconds_off.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            out = traced_production_demo(smoke=smoke, jsonl_path=log)
            seconds_on.append(time.perf_counter() - t0)
            with open(log) as fh:
                lines = sum(1 for _ in fh)
            records = len(out["spans"])
            missing += records - lines

    best_off, best_on = min(seconds_off), min(seconds_on)
    return {
        "device": {"diameter_nm": 1.0, "length_cells": 4,
                   "smoke": bool(smoke)},
        "repeats": int(repeats),
        "seconds_off": best_off,
        "seconds_on": best_on,
        "overhead_ratio": best_on / best_off,
        "span_records": int(records),
        "missing_span_records_deviation": int(missing),
        "span_write_microseconds": _write_cost(),
    }


def report(results: dict) -> str:
    return "\n".join([
        "Span-log overhead benchmark",
        f"  demo ({'smoke' if results['device']['smoke'] else 'full'}), "
        f"min of {results['repeats']} interleaved repeats",
        f"  log off : {results['seconds_off'] * 1e3:9.2f} ms",
        f"  log on  : {results['seconds_on'] * 1e3:9.2f} ms "
        f"({results['span_records']} spans, "
        f"{results['missing_span_records_deviation']} missing)",
        f"  overhead: {results['overhead_ratio']:.3f}x (gate <= 1.05)",
        f"  write   : {results['span_write_microseconds']:.2f} us/span",
    ])


def write_json(results: dict, path: Path = JSON_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def test_live_overhead(reportout):
    """Smoke-scale run asserting the acceptance invariants."""
    results = run(smoke=True, repeats=3)
    assert results["missing_span_records_deviation"] == 0
    assert results["span_records"] > 0
    assert results["overhead_ratio"] <= 1.05
    reportout(report(results))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI scale: one bias point, one SCF iteration")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", type=Path, default=JSON_PATH)
    args = ap.parse_args(argv)
    results = run(smoke=args.smoke, repeats=args.repeats)
    print(report(results))
    path = write_json(results, args.json)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
