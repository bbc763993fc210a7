"""pursuit-lab benchmark: one command for every workload.

    python3 benchmarks/run.py --workload {ensemble,solo,atlas} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.
The seed makes every input.  After one untimed warm-up pass, passes repeat
for ``--seconds`` seconds (at least three), and every item of every pass is
checked against the acceptance tolerances.

``--trace 0`` measures the end-to-end metrics with tracing off: ``setup_s``
(median over fresh processes), ``wall_s`` (median pass), throughput, item
latency, ``peak_rss_mb`` and ``fail_frac``.  ``--trace 1`` alternates
untraced passes with traced ones (at most ``MAX_TRACED`` traced passes, to
bound the spans kept in memory), reports the per-layer metrics and
``trace.overhead_frac``, and writes the spans to
``.bench_out/spans-<workload>.jsonl.gz``.

Every line but the last is a human-readable report: the machine and
environment, then each metric with its unit and sample counts.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; its metrics are the ones ``BENCHMARK.json`` declares for the
trace mode, and the full record goes to
``.bench_out/report-<workload>-trace<k>.json``.  A failed item or a
failed run-level check makes ``correct`` false; the exit code is 0 as long
as the benchmark itself ran.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the set-up time)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, BLAS pinned to one thread, keeps the load within nproc.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
SETUP_RUNS = 9
MAX_TRACED = 3
CHILD_TIMEOUT_S = 60


def _declared():
    """End-to-end and per-layer metric names from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _setup_seconds(args):
    """Median set-up time over fresh processes (import to inputs ready)."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", repr(args.scale), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return statistics.median(times), times


class Ledger:
    """Items attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures[:5 - len(self.messages)])


def _one_pass(workload, ledger):
    start = time.perf_counter()
    items = workload.run_pass()
    elapsed = time.perf_counter() - start
    ledger.add(len(items), workload.check(items))
    return elapsed, items


def measure(workload, args, ledger):
    """Untraced passes for ``args.seconds``; end-to-end metrics."""
    _one_pass(workload, ledger)
    walls, items = [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, done = _one_pass(workload, ledger)
        walls.append(elapsed)
        items.extend(done)
    return walls, items


def measure_traced(workload, args, ledger, tracer):
    """Alternate untraced and traced passes for ``args.seconds``."""
    _one_pass(workload, ledger)
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while (len(traced) < 2 or len(plain) < 2
           or time.perf_counter() < deadline):
        if len(traced) < MAX_TRACED and len(traced) < len(plain):
            with tracer:
                start = time.perf_counter()
                items = workload.run_pass()
                traced.append(time.perf_counter() - start)
            ledger.add(len(items), workload.check(items))
        else:
            plain.append(_one_pass(workload, ledger)[0])
    return plain, traced


def end_to_end(workload, walls, items, setup):
    """All end-to-end figures as name -> (value, unit, note)."""
    import numpy as np
    q1, q3 = _quartiles(walls)
    latency = np.array([i.latency_s for i in items if i.latency_item]) * 1e3
    out = {
        "setup_s": (setup[0], "s", f"median of {len(setup[1])} fresh "
                    "processes"),
        "wall_s": (statistics.median(walls), "s",
                   f"p25 {q1:.6g}, p75 {q3:.6g}, {len(walls)} passes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "this process"),
        "item_ms.p50": (float(np.percentile(latency, 50)), "ms",
                        f"{latency.size} items"),
    }
    if latency.size // len(walls) >= 100:
        out["item_ms.p90"] = (float(np.percentile(latency, 90)), "ms",
                              f"{latency.size} items")
    if workload.throughput == "points":
        out["points_per_s"] = (latency.size / (latency.sum() / 1e3), "1/s",
                               f"{latency.size} points")
    else:
        steps = sum(i.steps for i in items)
        out["steps_per_s"] = (steps / sum(walls), "1/s",
                              f"{steps} RK4 steps")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "solo", "atlas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink horizons and sizes (smoke test only)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pursuit_lab" / "__init__.py").is_file():
        print(f"error: no pursuit_lab package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "configs").is_dir():
        print(f"error: no configs directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.setup_only:
            cls(ROOT, args.seed, args.scale, scratch)
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
            return 0
        return _run(args, cls, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _traced(workload, args, ledger, declared):
    """Per-layer figures from a run that alternates traced passes."""
    import spans
    import workloads
    tracer = spans.Tracer()
    plain, traced = measure_traced(workload, args, ledger, tracer)
    extra = {
        "cli.bytes_written": (
            getattr(workload, "bytes_written", 0)
            / (len(plain) + len(traced) + 1), "bytes"),
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(plain) - 1.0,
            "fraction"),
    }
    layer = spans.layer_metrics(
        tracer, len(traced), int(sum(traced) * 1e9),
        enum_sizes=sorted({3, *workloads.Atlas.ENUM_SIZES}),
        spectrum_sizes=[n for n, _ in workloads.Atlas.GRID], extra=extra)
    spans.write_spans(tracer.spans, OUT / f"spans-{args.workload}.jsonl.gz")
    lines = [f"{name} = {m['value']:.6g} {m['unit']}"
             for name, m in layer.items()]
    lines.append(f"traced passes {len(traced)}, untraced passes "
                 f"{len(plain)}, spans {len(tracer.spans)}")
    if tracer.absent:
        lines.append("absent: " + ", ".join(tracer.absent))
    metrics = {name: layer[name] for name in declared if name in layer}
    record = {"metrics": layer, "absent": tracer.absent,
              "pass_s": {"untraced": plain, "traced": traced}}
    return lines, metrics, record


def _untraced(workload, args, ledger, declared, setup):
    """End-to-end figures from untraced passes and fresh set-ups."""
    walls, items = measure(workload, args, ledger)
    figures = end_to_end(workload, walls, items, setup)
    lines = [f"{name} = {value:.6g} {unit}" + (f" ({note})" if note else "")
             for name, (value, unit, note) in figures.items()]
    metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
               for name in declared}
    record = {"metrics": {name: {"value": v, "unit": u}
                          for name, (v, u, _) in figures.items()},
              "setup_runs_s": setup[1], "pass_s": walls}
    return lines, metrics, record


def _run(args, cls, scratch):
    declared_e2e, declared_layer = _declared()
    env = environment(args)
    setup = None if args.trace else _setup_seconds(args)
    workload = cls(ROOT, args.seed, args.scale, scratch)
    ledger = Ledger()
    if args.trace:
        lines, metrics, record = _traced(workload, args, ledger,
                                         declared_layer)
    else:
        lines, metrics, record = _untraced(workload, args, ledger,
                                           declared_e2e, setup)
    failures, run_checks, summary = workload.finish()
    ledger.add(run_checks, failures)
    fail_frac = ledger.failed / ledger.attempted
    lines.append(f"fail_frac = {fail_frac:.6g} fraction "
                 f"({ledger.failed} of {ledger.attempted} items)")
    lines.append("workload " + json.dumps(summary))
    lines.extend(f"FAILED: {message}" for message in ledger.messages)
    record.update(environment=env, summary=summary, fail_frac=fail_frac,
                  failures=ledger.messages)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
