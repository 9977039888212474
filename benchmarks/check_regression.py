#!/usr/bin/env python
"""Bench-regression gate: diff fresh BENCH_*.json against baselines.

Compares the benchmark JSON files a run just produced (repo root by
default) against the committed references in ``benchmarks/baselines/``
and fails with a non-zero exit code when a guarded quantity regressed.
Both rules are scale-free, so a CI ``--smoke`` run is held to them as
the full configuration is:

* **deviation fields** (``*deviation*``) must stay within
  ``max(baseline, 1e-12)`` — ``missing_span_records_deviation`` (spans
  recorded minus span-log lines written) has a baseline of 0, so it is
  held at 0;
* **overhead-ratio fields** (``*overhead_ratio*``) must stay at or
  below 1.05 — observing a run (streaming its span log) may cost at
  most 5% walltime;
* raw seconds are reported but never gated (different machines).

Speed claims are not this gate's business: they need a before/after on
``benchmarks/e2e`` (see its README).

Run:  python benchmarks/check_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: absolute floor for deviation comparisons (round-off scale)
DEVIATION_FLOOR = 1e-12

#: hard ceiling on any ``*overhead_ratio*`` quantity: instrumentation
#: (the streamed span log) may slow a run by at most 5%
OVERHEAD_RATIO_CEILING = 1.05


def check_file(fresh: dict, base: dict) -> list:
    """Return a list of failure strings (empty == pass)."""
    failures = [f"{key}: missing from the fresh run" for key in base
                if ("deviation" in key or "overhead_ratio" in key)
                and key not in fresh]
    for key, value in fresh.items():
        if "deviation" in key:
            limit = max(float(base.get(key, 0.0)), DEVIATION_FLOOR)
            if float(value) > limit:
                failures.append(
                    f"{key}: {value:.3e} exceeds {limit:.3e}")
        if "overhead_ratio" in key \
                and float(value) > OVERHEAD_RATIO_CEILING:
            failures.append(
                f"{key}: {value:.3f} exceeds the "
                f"{OVERHEAD_RATIO_CEILING:.2f} ceiling (instrumentation "
                f"must stay near-free)")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh-dir", type=Path, default=ROOT,
                    help="directory holding the fresh BENCH_*.json "
                         "(default: repo root)")
    ap.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR)
    args = ap.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines in {args.baseline_dir}", file=sys.stderr)
        return 2

    bad = 0
    for base_path in baselines:
        fresh_path = args.fresh_dir / base_path.name
        if not fresh_path.exists():
            print(f"  SKIP {base_path.name}: no fresh run at "
                  f"{fresh_path}")
            continue
        fresh = json.loads(fresh_path.read_text())
        base = json.loads(base_path.read_text())
        failures = check_file(fresh, base)
        seconds = {k: v for k, v in fresh.items()
                   if "seconds" in k}
        status = "FAIL" if failures else "OK"
        print(f"  {status} {base_path.name}")
        for k, v in sorted(seconds.items()):
            unit = "us" if k.endswith("microseconds") else "s"
            print(f"         {k} = {v:.4g} {unit} (informational)")
        for f in failures:
            print(f"     !! {f}")
        bad += bool(failures)
    if bad:
        print(f"{bad} benchmark file(s) regressed", file=sys.stderr)
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
