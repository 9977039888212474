#!/usr/bin/env python3
"""End-to-end time-to-solution benchmark of the transport simulator.

    python3 benchmarks/e2e/run.py                    # all four workloads
    python3 benchmarks/e2e/run.py --selfcheck        # same code, two sets
    python3 benchmarks/e2e/run.py --smoke            # plumbing, < 60 s
    python3 benchmarks/e2e/run.py --write-reference  # refresh reference.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \
        --trace 0|1                                  # pipeline form

A closed loop with one client: every repeat is a fresh child process that
builds its inputs from the seed, makes the one public call of its workload
and reports what a user would see.  End-to-end metrics come from untraced
children only; one extra traced child per workload gives the per-layer
numbers.  See README.md next to this file.
"""

import time
_T0 = time.perf_counter()   # a child's first clock reading: only stdlib so far

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import e2e_probes as probes      # both import only the standard library
import e2e_workloads as wl       # until one of their functions is called

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUTPUT = HERE / "output"

#: the one declaration of workloads (name, why), end-to-end metrics (name,
#: unit, direction, bound) and per-layer metrics (name, unit, direction)
with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
#: a call takes 2-3 s and a traced child under 30 s; two children that hang
#: still leave the pipeline form inside its 180 s
CHILD_TIMEOUT_S = 60

#: the kernels a speed sample is made of (see SpeedSampler): what one pass
#: does, on one BLAS thread, and its CPU seconds in a quiet hour of the box
#: that wrote this.  Times are reported as they would read on a box where
#: the kernels take this long.  A workload names the kernels of its call in
#: e2e_workloads.py.
SAMPLE_KERNELS = {
    "python": ("20 000 Python multiply-adds", 1.12e-3),
    "zgemm": ("4 zgemm n=96 and 1 zgemm n=192", 1.38e-3),
    "zgesv": ("zgesv n=128 with 128 right-hand sides", 1.21e-3),
    "zggev": ("zggev n=32", 1.32e-3),
    "small": ("120 times norm(m @ v) and abs(v).max(), n=60", 0.72e-3),
}
#: while a child sets up: imports and Python loops, numpy not imported yet
SETUP_SAMPLE = ("python",)
SAMPLE_PERIOD_S = 0.1

#: a child is noisy when the box ran this much slower during its call than
#: during the fastest call of the run so far, going by the speed samples;
#: where children are counted, not fitted into a time, noisy ones are
#: re-run, at most NOISY_RERUNS times
NOISE_LIMIT = 0.15
NOISY_RERUNS = 2


# --------------------------------------------------------------------------
# the speed of the box while a child works
# --------------------------------------------------------------------------

def _sample_kernel(name: str):
    """One pass of SAMPLE_KERNELS[name] as a function of no arguments."""
    if name == "python":
        def kernel():
            total = 0
            for i in range(20_000):
                total += i * i
        return kernel
    import numpy as np
    import scipy.linalg
    rng = np.random.default_rng(0)

    def matrix(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if name == "zgemm":
        a, b = matrix(96), matrix(192)
        out_a, out_b = np.empty_like(a), np.empty_like(b)

        def kernel():
            for _ in range(4):
                np.matmul(a, a, out=out_a)
            np.matmul(b, b, out=out_b)
    elif name == "zgesv":
        a = matrix(128)

        def kernel():
            np.linalg.solve(a, a)
    elif name == "zggev":
        a, b = matrix(32), matrix(32)

        def kernel():
            scipy.linalg.eig(a, b)
    elif name == "small":
        m, v = matrix(60), matrix(60)[0].copy()

        def kernel():
            for _ in range(120):
                np.linalg.norm(m @ v)
                abs(v).max()
    return kernel


class SpeedSampler:
    """Times a fixed set of kernels every SAMPLE_PERIOD_S of wall while the
    body of its ``with`` block runs.

    The kernels run in a SIGALRM handler, so on the main thread and between
    two bytecodes of the work itself, and are timed in CPU seconds of that
    thread: a sample reads how fast the core is that the work has at that
    moment, and a parent that waits for its workers still reads the cores,
    not its turn on them.  The samples take 1-4 % of the wall.
    """

    def __init__(self, names=SETUP_SAMPLE):
        self.use(names)

    def use(self, names) -> None:
        """Sample these kernels from now on (all but "python" import numpy
        and scipy)."""
        self.kernels = [_sample_kernel(name) for name in names]
        self.nominal_s = sum(SAMPLE_KERNELS[name][1] for name in names)
        self.samples: list = []
        for _ in range(5):   # the first passes load BLAS and touch the pages
            self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        for kernel in self.kernels:
            kernel()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def slowdown(self) -> float:
        """How many times slower than SAMPLE_KERNELS says the box ran during
        the block: the harmonic mean of its samples over their stated
        seconds (work done is the time average of speed, and a sample's
        seconds are the inverse of speed)."""
        mean = len(self.samples) / sum(1.0 / s for s in self.samples)
        return mean / self.nominal_s


# --------------------------------------------------------------------------
# child: one fresh process, one public call
# --------------------------------------------------------------------------

def child_main(spec: dict) -> dict:
    sampler = SpeedSampler()
    sys.path.insert(0, str(SRC))   # spawned pool workers inherit sys.path
    with sampler:
        inputs = wl.make_inputs(spec["workload"], spec["size"], spec["seed"])
    setup_s = time.perf_counter() - _T0
    slowdown = dict(setup=sampler.slowdown())
    sampler.use(wl.WORKLOADS[spec["workload"]]["speed_sample"])

    OUTPUT.mkdir(exist_ok=True)
    traced = {}
    with tempfile.TemporaryDirectory(dir=OUTPUT) as tmp:
        if not spec["trace"]:
            with sampler:
                cpu0, t0 = probes.cpu_seconds(), time.perf_counter()
                result = wl.call(inputs, tmp)
                wall = time.perf_counter() - t0
                cpu_s = probes.cpu_seconds() - cpu0
            peak_rss_mb = probes.peak_rss_mb()
        else:
            from e2e_spans import SpanLog
            from repro.linalg import ledger_scope
            from repro.observability.spans import tracing
            log = SpanLog(f"{spec['workload']}-seed{spec['seed']}")
            with log.span("call") as call_span, tracing() as tracer, \
                    ledger_scope() as ledger, sampler:
                cpu0 = probes.cpu_seconds()
                result = wl.call(inputs, tmp)
                cpu_s = probes.cpu_seconds() - cpu0
            wall = call_span["end"] - call_span["start"]
            peak_rss_mb = probes.peak_rss_mb()
            layers = probes.call_metrics(inputs, tracer, ledger, cpu_s)
            with log.span("probes"):
                probed, notes = probes.run_probes(inputs, log, tmp)
            layers.update(probed)
            log.write(OUTPUT / f"spans-{spec['workload']}.jsonl")
            traced = dict(layers=layers, notes=notes,
                          points_traced=probes.points_traced(tracer))
    slowdown["call"] = sampler.slowdown()
    points = wl.points_solved(inputs, result)
    return dict(
        traced, entry=inputs["entry"],
        expect_converged=inputs["expect_converged"],
        operations=wl.operations(inputs, result), points=points,
        slowdown=slowdown,
        metrics=dict(time_to_solution_s=wall, setup_s=setup_s,
                     points_per_s=points / wall, cpu_s=cpu_s,
                     peak_rss_mb=peak_rss_mb))


# --------------------------------------------------------------------------
# parent: spawn, guard against noise, check, aggregate
# --------------------------------------------------------------------------

def run_child(workload: str, size: str, seed: int,
              trace: bool = False) -> dict:
    """Run one child to completion; ``{"error": reason}`` when it crashed,
    timed out or printed no result."""
    spec = dict(workload=workload, size=size, seed=seed, trace=trace)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=dict(os.environ, **THREAD_PINS),
        start_new_session=True)   # own process group: workers die with it
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        status = f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        status = f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        # the child and whatever process-backend workers it left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out, err = proc.communicate()
        tail = err.strip().splitlines()[-1:] or [""]
        return {"error": f"child {status}: {tail[0]}"}
    lines = out.strip().splitlines()
    if not lines:
        return {"error": "child printed no result"}
    return json.loads(lines[-1])


def load_reference(workload: str, size: str, seed: int):
    """Seed-0 operations of the serial default path; None at other seeds.
    A workload without a reference gets an empty one, which fails every
    operation on its length check."""
    if seed != 0:
        return None
    with open(HERE / "reference.json") as fh:
        table = json.load(fh)
    name = wl.WORKLOADS[workload].get("bitwise_equal_to", workload)
    return table.get(size, {}).get(name, [])


def check_child(child: dict, reference, bitwise) -> dict:
    """Failure reasons of one completed child by operation index."""
    bad = wl.check_operations(child["entry"], child["operations"],
                              child["expect_converged"], reference, bitwise)
    traced = child.get("points_traced", child["points"])
    if traced != child["points"]:
        # points_per_s would be wrong on every child of this workload
        for i in range(len(child["operations"])):
            bad.setdefault(i, []).append(
                f"the spans count {traced} (k, E) points, points_per_s "
                f"assumes {child['points']}")
    return bad


def scaled(metrics: dict, slowdown: dict) -> dict:
    """A child's end-to-end metrics as they would read on a box where the
    sample kernels take what SAMPLE_KERNELS says: ``slowdown`` holds how
    many times longer they took while the child set up and while its call
    ran.  A time scales in proportion, a rate inversely, a size not at
    all."""
    return dict(metrics, setup_s=metrics["setup_s"] / slowdown["setup"],
                time_to_solution_s=(metrics["time_to_solution_s"]
                                    / slowdown["call"]),
                cpu_s=metrics["cpu_s"] / slowdown["call"],
                points_per_s=metrics["points_per_s"] * slowdown["call"])


def measure(workload: str, size: str, seed: int, *, deadline: float = 0.0,
            repeats: int = 0, bitwise=None) -> dict:
    """Untraced children of one workload, checked and guarded.

    With ``repeats``, that many children, a noisy one dropped and replaced
    at most NOISY_RERUNS times.  Without, a child is started only while it
    is expected to end before ``deadline`` (a ``perf_counter`` reading),
    going by the longest one so far; the first is always started, and every
    child is kept, because a dropped one costs a sample.  Returns the
    samples (a child's metrics as read and scaled, and its slowdowns),
    the failure counts and the operations of the last child.  ``bitwise`` is
    the default path's operations on the same inputs, for workloads that
    must equal them bit for bit.
    """
    reference = load_reference(workload, size, seed)
    samples, failures, attempted, failed = [], [], 0, 0
    reruns, longest, dead, operations = NOISY_RERUNS, 0.0, 0, []

    def may_start() -> bool:
        if repeats:
            return len(samples) < repeats
        return not (samples or dead) \
            or time.perf_counter() + longest <= deadline

    quietest = float("inf")   # slowdown of the run's quietest call
    while dead < 2 and may_start():
        t0 = time.perf_counter()
        child = run_child(workload, size, seed)
        longest = max(longest, time.perf_counter() - t0)
        if "error" in child:
            # a dead child fails every operation it was meant to do
            num_ops = len(reference or bitwise or operations or [None])
            bad = {i: [child["error"]] for i in range(num_ops)}
            dead += 1
        else:
            quietest = min(quietest, child["slowdown"]["call"])
            noisy = child["slowdown"]["call"] > (1 + NOISE_LIMIT) * quietest
            if noisy and reruns and repeats:
                reruns -= 1
                continue
            operations = child["operations"]
            num_ops = len(operations)
            bad = check_child(child, reference, bitwise)
            samples.append(dict(
                read=child["metrics"], slowdown=child["slowdown"],
                noisy=noisy,
                scaled=scaled(child["metrics"], child["slowdown"])))
        attempted += num_ops
        failed += len(bad)
        failures += [f"child {len(samples)} operation {i}: {why}"
                     for i, reasons in bad.items() for why in reasons]
    return dict(samples=samples, failures=failures, attempted=attempted,
                failed=failed, operations=operations)


def traced_run(workload: str, size: str, seed: int, untraced_s: float,
               bitwise=None) -> dict:
    """One traced child: its per-layer metrics and notes, its outputs
    checked like any other child's; ``{"error": reason}`` when it died."""
    child = run_child(workload, size, seed, trace=True)
    if "error" in child:
        return child
    bad = check_child(child, load_reference(workload, size, seed), bitwise)
    layers = child["layers"]
    layers["observability.tracing_overhead_ratio"] = scaled(
        child["metrics"], child["slowdown"])["time_to_solution_s"] / untraced_s
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        return {"error": f"traced child reports no {', '.join(missing)}"}
    return dict(layers=layers, notes=child["notes"],
                attempted=len(child["operations"]), failed=len(bad),
                failures=[f"traced child operation {i}: {why}"
                          for i, reasons in bad.items() for why in reasons])


def _operations_file(workload: str, size: str, seed: int) -> Path:
    """Where the operations of ``workload`` at ``seed`` are kept for the
    workloads that must equal them: per seed, and per state of ``src/``,
    so that a changed program is never checked against its old self."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.read_bytes())
    return OUTPUT / (f"operations-{workload}-{size}-seed{seed}-"
                     f"{digest.hexdigest()[:12]}.json")


def keep_operations(workload: str, size: str, seed: int, ops: list) -> None:
    OUTPUT.mkdir(exist_ok=True)
    with open(_operations_file(workload, size, seed), "w") as fh:
        json.dump(ops, fh)


def default_path_operations(workload: str, size: str, seed: int):
    """Operations of the default path that a fast-path workload must match
    bit for bit (None for the other workloads): those a pipeline run of
    the default-path workload kept for this seed, else those of one
    untimed default-path child, kept for the next run."""
    other = wl.WORKLOADS[workload].get("bitwise_equal_to")
    if other is None:
        return None
    try:
        with open(_operations_file(other, size, seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        pass
    child = run_child(other, size, seed)
    if "error" in child:
        # an empty list fails every operation on its length check
        print(f"no bitwise reference: {child['error']}", file=sys.stderr)
        return []
    keep_operations(other, size, seed, child["operations"])
    return child["operations"]


def _quartiles(values: list) -> tuple:
    """(q1, q3); both the value itself when there is only one."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(samples: list) -> dict:
    """Every end-to-end metric of one run: the ``value`` it reports, and the
    median, min, quartiles and n of its children as they were read.

    This box slows by a tenth to a half for seconds and for minutes at a
    time, so the value is the median of the children's scaled readings
    (see ``scaled``), not of the readings themselves.
    """
    out = {}
    for name, metric in END_TO_END.items():
        read = [s["read"][name] for s in samples]
        q1, q3 = _quartiles(read)
        out[name] = dict(
            value=statistics.median(s["scaled"][name] for s in samples),
            median=statistics.median(read), min=min(read), q1=q1, q3=q3,
            n=len(read), unit=metric["unit"])
    return out


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(nproc=os.cpu_count(), cpu_model=cpu,
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__,
                blas=f"{blas.get('name')} {blas.get('version')}",
                thread_pins=THREAD_PINS, seed=seed, git_commit=commit,
                sample_period_s=SAMPLE_PERIOD_S,
                sample_kernels=SAMPLE_KERNELS)


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------

def pipeline_mode(args) -> int:
    """One workload, one JSON object on the last line.  ``--seconds`` caps
    the run from its first clock reading: the untimed default-path child of
    a fast-path workload comes out of the same budget.  A traced run is one
    untraced child, for the overhead ratio, and one traced child."""
    size, deadline = "bench", _T0 + args.seconds
    bitwise = default_path_operations(args.workload, size, args.seed)
    run = measure(args.workload, size, args.seed, deadline=deadline,
                  repeats=1 if args.trace else 0, bitwise=bitwise)
    if not run["samples"]:
        for line in run["failures"]:
            print("FAILED", line, file=sys.stderr)
        return 1
    if not run["failed"] and any(
            spec.get("bitwise_equal_to") == args.workload
            for spec in wl.WORKLOADS.values()):
        keep_operations(args.workload, size, args.seed, run["operations"])
    summary = summarize(run["samples"])
    if args.trace:
        traced = traced_run(args.workload, size, args.seed,
                            summary["time_to_solution_s"]["value"], bitwise)
        if "error" in traced:
            print("traced child failed:", traced["error"], file=sys.stderr)
            return 1
        for key in ("failures", "attempted", "failed"):
            run[key] += traced[key]
        metrics = {name: dict(value=traced["layers"][name], unit=m["unit"])
                   for name, m in PER_LAYER.items()}
    else:
        metrics = {name: dict(value=summary[name]["value"], unit=m["unit"])
                   for name, m in END_TO_END.items()}
    for line in run["failures"]:
        print("FAILED", line)
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(dict(correct=run["failed"] == 0,
                          attempted=run["attempted"], failed=run["failed"],
                          metrics=metrics)))
    return 0


def full_mode(args) -> int:
    """All four workloads: every metric by name with unit, outputs checked,
    results written to output/results-<size>.json."""
    size = "smoke" if args.smoke else "bench"
    repeats = 1 if args.smoke else args.repeats
    results = dict(fingerprint=fingerprint(args.seed), size=size,
                   workloads={})
    print(json.dumps(results["fingerprint"], indent=1))
    operations, any_failed = {}, False
    for row in SPEC["workloads"]:
        name = row["name"]
        print(f"\n== {name} ({size}, seed {args.seed}): {row['why']}")
        # the default path's operations come from this same invocation
        other = wl.WORKLOADS[name].get("bitwise_equal_to")
        bitwise = operations.get(other, []) if other else None
        run = measure(name, size, args.seed, repeats=repeats,
                      bitwise=bitwise)
        operations[name] = run["operations"]
        if not run["samples"]:
            for line in run["failures"]:
                print("  FAILED", line)
            any_failed = True
            continue
        summary = summarize(run["samples"])
        traced = traced_run(name, size, args.seed,
                            summary["time_to_solution_s"]["value"], bitwise)
        if "error" in traced:
            print("  traced child failed:", traced["error"])
            any_failed = True
            traced = dict(layers=None, notes=None)
        else:
            for key in ("failures", "attempted", "failed"):
                run[key] += traced[key]
        for line in run["failures"]:
            print("  FAILED", line)
        any_failed |= run["failed"] > 0
        summary["failed_fraction"] = dict(
            value=run["failed"] / run["attempted"], unit="1",
            n=run["attempted"])
        for metric, s in summary.items():
            as_read = "" if "q1" not in s else \
                (f"  as read: median {s['median']:.6g}  min {s['min']:.6g}"
                 f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
            print(f"  {metric:22s} {s['value']:.6g} {s['unit']}"
                  f"{as_read}  n={s['n']}")
        slow = [s["slowdown"] for s in run["samples"]]
        print("  slowdown by the speed samples, median over the children: "
              f"{statistics.median(s['setup'] for s in slow):.3f} in set-up, "
              f"{statistics.median(s['call'] for s in slow):.3f} in the call")
        noisy = sum(s["noisy"] for s in run["samples"])
        if noisy:
            print(f"  {noisy} of {len(run['samples'])} children were noisy")
        if traced["layers"]:
            for metric, m in PER_LAYER.items():
                print(f"  {metric:42s} {traced['layers'][metric]:.6g} "
                      f"{m['unit']}")
            print("  notes:", json.dumps(traced["notes"]))
        results["workloads"][name] = dict(
            end_to_end=summary, per_layer=traced["layers"],
            notes=traced["notes"], failures=run["failures"])
    OUTPUT.mkdir(exist_ok=True)
    path = OUTPUT / f"results-{size}.json"
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
    print("\nwrote", path.relative_to(ROOT))
    return 1 if any_failed else 0


def selfcheck_mode(args) -> int:
    """Two sets of runs of the same checkout, children interleaved A B A B
    so that a slow spell of the box hits both; non-zero when a pair of
    medians differs by more than the metric's bound."""
    worst = 0
    print(f"{'workload':24s} {'metric':20s} {'A':>12s} {'B':>12s} "
          f"{'diff':>8s} {'bound':>6s}")
    operations = {}
    for name, spec in wl.WORKLOADS.items():
        other = spec.get("bitwise_equal_to")
        run = measure(name, "bench", args.seed, repeats=2 * args.repeats,
                      bitwise=operations.get(other, []) if other else None)
        operations[name] = run["operations"]
        for line in run["failures"]:
            print("  FAILED", line)
        if run["failed"] or len(run["samples"]) < 2:
            worst = 1
            continue
        a = summarize(run["samples"][0::2])
        b = summarize(run["samples"][1::2])
        for metric, m in END_TO_END.items():
            ma, mb = a[metric]["value"], b[metric]["value"]
            diff = abs(ma - mb) / min(ma, mb)
            flag = "" if diff <= m["bound"] else "  EXCEEDS"
            worst |= bool(flag)
            print(f"{name:24s} {metric:20s} {ma:12.6g} {mb:12.6g} "
                  f"{diff:8.2%} {m['bound']:6.0%}{flag}")
    return worst


def write_reference_mode(args) -> int:
    """Seed-0 operations of the serial default path, per size."""
    path = HERE / "reference.json"
    with open(path) as fh:
        table = json.load(fh)
    size = "smoke" if args.smoke else "bench"
    table[size] = {}
    for name, spec in wl.WORKLOADS.items():
        if spec.get("fast"):
            continue   # the reference comes from the serial path only
        child = run_child(name, size, 0)
        if "error" in child:
            print(name, child["error"], file=sys.stderr)
            return 1
        table[size][name] = child["operations"]
        print(f"{name}: {len(child['operations'])} operations")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced children per workload (per set "
                             "with --selfcheck)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    if args.write_reference:
        return write_reference_mode(args)
    if args.selfcheck:
        return selfcheck_mode(args)
    if args.workload:
        return pipeline_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
