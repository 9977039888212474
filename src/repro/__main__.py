"""Command-line entry point: experiments, traced runs, span reports.

Usage::

    python -m repro list
    python -m repro run fig5
    python -m repro run all
    python -m repro trace --out trace.json --jsonl spans.jsonl
    python -m repro trace --smoke --result-store .repro-cache
    python -m repro trace --smoke --jsonl spans.jsonl
    python -m repro watch spans.jsonl
    python -m repro report spans.jsonl --memory
    python -m repro report --checkpoint sweep.npz
    python -m repro cache stats .repro-cache
    python -m repro cache verify .repro-cache
    python -m repro cache prune .repro-cache --max-bytes 100000000
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables/figures of Calderara et al., "
                    "SC'15 (OMEN+CP2K, FEAST+SplitSolve)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("name", help="experiment id from 'list', or 'all'")

    tracep = sub.add_parser(
        "trace", help="run the traced production demo and export a "
                      "Perfetto/Chrome trace")
    tracep.add_argument("--out", default="trace.json",
                        help="Chrome-trace JSON path (default trace.json)")
    tracep.add_argument("--jsonl", default=None,
                        help="stream the span JSONL log here, one line "
                             "per span as it closes")
    tracep.add_argument("--nodes", type=int, default=2,
                        help="simulated nodes (one Perfetto track group "
                             "each; default 2)")
    tracep.add_argument("--smoke", action="store_true",
                        help="shrink to one bias point / one SCF "
                             "iteration (CI budget)")
    tracep.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="task execution backend: simulated nodes on "
                             "threads (default) or worker OS processes "
                             "with merged telemetry")
    tracep.add_argument("--telemetry-out", default=None,
                        help="write the merged RunTelemetry snapshot as "
                             "JSON (machine-readable CI artifact)")
    tracep.add_argument("--result-store", default=None,
                        help="persistent result-store root directory: "
                             "publish every solved (k, E) point and "
                             "merge prior runs' results back "
                             "bitwise-identically (warm re-runs skip "
                             "the solves)")

    watchp = sub.add_parser(
        "watch", help="tail the span log a 'trace --jsonl' run is "
                      "writing and re-print the report as spans close")
    watchp.add_argument("spans", help="span JSONL file from 'trace "
                                      "--jsonl'")
    watchp.add_argument("--idle-timeout", type=float, default=5.0,
                        help="seconds without a new span before watch "
                             "exits (default 5)")

    reportp = sub.add_parser(
        "report", help="re-derive the phase/activity reports from a span "
                       "JSONL export or a checkpoint's telemetry")
    reportp.add_argument("spans", nargs="?", default=None,
                         help="span JSONL file from 'trace --jsonl'")
    reportp.add_argument("--checkpoint", default=None,
                         help="print the telemetry snapshot stored in a "
                              "checkpoint file instead")
    reportp.add_argument("--memory", action="store_true",
                         help="add the memory-movement view: arena reuse "
                              "rates and predicted-vs-measured byte "
                              "drift per stage")

    cachep = sub.add_parser(
        "cache", help="inspect or maintain a persistent result store")
    cachep.add_argument("action", choices=("stats", "verify", "prune"),
                        help="stats: object/byte counts; verify: "
                             "checksum every record; prune: LRU-evict "
                             "down to --max-bytes")
    cachep.add_argument("root", help="result-store root directory")
    cachep.add_argument("--max-bytes", type=int, default=None,
                        help="byte budget for prune")
    args = parser.parse_args(argv)

    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "cache":
        return _cmd_cache(args)

    from repro.experiments import ALL_EXPERIMENTS

    if args.command == "list":
        for name, mod in ALL_EXPERIMENTS.items():
            doc = (mod.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<16s} {doc}")
        return 0

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'python -m repro "
                  f"list'", file=sys.stderr)
            return 2
        mod = ALL_EXPERIMENTS[name]
        t0 = time.perf_counter()
        results = mod.run()
        print(mod.report(results))
        print(f"[{name}: {time.perf_counter() - t0:.1f} s]\n")
    return 0


def _cmd_trace(args) -> int:
    from repro.observability.export import validate_chrome_trace
    from repro.observability.report import (activity_report, node_activity,
                                            phase_report, reconcile_report,
                                            roofline_report)
    from repro.observability.demo import traced_production_demo

    t0 = time.perf_counter()
    demo = traced_production_demo(num_nodes=args.nodes, smoke=args.smoke,
                                  trace_path=args.out,
                                  jsonl_path=args.jsonl,
                                  backend=args.backend,
                                  result_store=args.result_store)
    elapsed = time.perf_counter() - t0

    print(f"backend: {args.backend} ({args.nodes} workers)")
    print(demo["result"].iv_table())
    print()
    print(phase_report(demo["totals"]))
    print()
    # A fully warm result-store run emits no stage spans and no flops:
    # there is no activity table and no roofline to print.
    if any(sp.category == "stage" for sp in demo["spans"]):
        print(activity_report(node_activity(demo["spans"])))
        print()
    if demo["roofline"]:
        print(roofline_report(demo["roofline"], device_name="Titan K20X"))
        print()
    if args.result_store:
        from repro.observability.report import cache_report
        print(cache_report(demo["spans"]))
        print()
    print("run telemetry:")
    print(demo["telemetry"].summary())
    print()
    print("metrics:")
    for row in demo["metrics"].as_rows():
        print("  " + row)
    print()
    check = demo["reconciliation"]
    print(reconcile_report(check))
    import json
    with open(args.out) as fh:
        slices = validate_chrome_trace(json.load(fh))
    print(f"wrote {args.out}: {slices} slices, "
          f"{len({sp.worker for sp in demo['spans']})} tracks "
          f"(load it at https://ui.perfetto.dev)")
    if args.jsonl:
        print(f"wrote {args.jsonl}: {demo['jsonl_lines']} span records")
    if args.telemetry_out:
        payload = {"backend": args.backend,
                   "num_nodes": int(args.nodes),
                   "reconciliation": check,
                   "spans": len(demo["spans"]),
                   "telemetry": demo["telemetry"].snapshot()}
        with open(args.telemetry_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.telemetry_out}: merged telemetry snapshot")
    print(f"[trace: {elapsed:.1f} s]")
    return 0 if check["flops_exact"] and check["bytes_exact"] else 1


def _cmd_watch(args) -> int:
    from repro.observability.watch import watch
    spans = watch(args.spans, idle_timeout=args.idle_timeout,
                  clear=sys.stdout.isatty())
    if not spans:
        print(f"{args.spans} holds no spans", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    if args.checkpoint is not None:
        from repro.runtime import RunTelemetry
        from repro.runtime.checkpoint import CheckpointStore
        snap = CheckpointStore(args.checkpoint).load_telemetry()
        if snap is None:
            print(f"{args.checkpoint} holds no telemetry snapshot",
                  file=sys.stderr)
            return 2
        telemetry = RunTelemetry()
        telemetry.restore(snap)
        print(f"telemetry snapshot from {args.checkpoint}:")
        print(telemetry.summary())
        return 0
    if args.spans is None:
        print("need a span JSONL file or --checkpoint",
              file=sys.stderr)
        return 2
    from repro.observability.export import read_spans_jsonl
    from repro.observability.report import run_report
    spans = read_spans_jsonl(args.spans)
    if not spans:
        print(f"{args.spans} holds no spans", file=sys.stderr)
        return 2
    print(f"{len(spans)} spans from {args.spans}")
    print(run_report(spans, memory=args.memory))
    return 0


def _cmd_cache(args) -> int:
    from repro.cache import ResultStore
    store = ResultStore(args.root)
    if args.action == "stats":
        s = store.stats()
        print(f"result store at {s['root']}")
        print(f"  {s['objects']} objects, "
              f"{s['total_bytes'] / 1e6:.2f} MB")
        return 0
    if args.action == "verify":
        v = store.verify()
        print(f"checked {v['checked']} objects, "
              f"{len(v['corrupt'])} corrupt")
        for key in v["corrupt"]:
            print(f"  corrupt: {key}")
        return 0 if not v["corrupt"] else 1
    if args.max_bytes is None:
        print("prune needs --max-bytes", file=sys.stderr)
        return 2
    r = store.prune(args.max_bytes)
    print(f"removed {r['removed']} objects, "
          f"freed {r['freed_bytes'] / 1e6:.2f} MB "
          f"({r['total_bytes'] / 1e6:.2f} MB remain)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
