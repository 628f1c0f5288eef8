"""relsched benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  Each invocation is one process and one single closed-loop
caller with no worker threads.  It runs whole cycles of the workload's
ops until at least ``--seconds`` have passed, checks every op's output,
prints a report, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: set-up time (median over fresh
interpreters), ops per second, median op latency and peak RSS.
--trace 1 runs each op untraced and then replays it with a span around
every call into the package, and reports the per-layer metrics derived
from the spans.  NOTES.md explains the workloads and the metrics.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported, here and in
# every child process; the installed OpenBLAS otherwise sizes its thread
# pool to the machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter_ns  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"   # scratch CSVs and span files
WORKLOAD_NAMES = ("paper-grid", "hot-pool", "oracle-verify")
SETUP_SAMPLES = 9
P90_MIN_OPS = 100
MAX_ERRORS_SHOWN = 5

# Per-layer metric -> (span name, ns per unit); the value is the median
# self time of the spans of that name, 0 where the workload makes no such
# call.
SPAN_METRICS = {
    "cli.write_csv_us": ("cli.write_csv", 1e3),
    "cli.load_config_us": ("cli.load_config", 1e3),
    "presets.preset_us": ("presets.preset", 1e3),
    "model.validate_config_us": ("model.validate_config", 1e3),
    "model.objective_us": ("model.objective", 1e3),
    "model.allocation_us": ("model.Allocation", 1e3),
    "model.build_config_ms": ("model.build_config", 1e6),
    "best_response.row_us": ("best_response.best_response_row", 1e3),
    "equilibrium.solve_ms": ("equilibrium.solve", 1e6),
    "baseline.solve_ms": ("baseline.bsa_solve", 1e6),
    "metrics.fairness_us": ("metrics.fairness_index", 1e3),
    "metrics.reciprocals_us": ("metrics.per_node_reciprocals", 1e3),
    "oracle.nash_check_ms": ("oracle.nash_check", 1e6),
    "oracle.numeric_row_ms": ("oracle.numeric_best_response", 1e6),
    "oracle.traffic_ms": ("oracle.traffic_empirical_rates", 1e6),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


# --------------------------------------------------------------------------
# Set-up time: fresh interpreters, each importing relsched and building the
# workload's inputs, timed from spawn to a "ready" line.

def setup_probe(args) -> int:
    workloads = import_workloads()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=RUN_DIR))
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter_ns()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            ready = perf_counter_ns()
            child.stdout.read()
            code = child.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        samples.append((ready - start) / 1e9)
    return samples


# --------------------------------------------------------------------------
# The closed loop.

class Loop:
    """Outcome of running whole cycles of a workload's ops."""

    def __init__(self):
        self.ops = []        # (label, elapsed_ns, ok)
        self.errors = []
        self.first_counts = {}

    def record(self, label, elapsed_ns, error=None, counts=None):
        if error is None and counts is not None:
            expected = self.first_counts.setdefault(label, counts)
            if counts != expected:
                error = f"counts {counts} differ from first repeat {expected}"
        self.ops.append((label, elapsed_ns, error is None))
        if error is not None:
            self.errors.append(f"{label}: {error}")

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(not ok for _, _, ok in self.ops)

    def latencies_ms(self):
        """Per-op latency; a failed op counts as +inf."""
        return sorted(ns / 1e6 if ok else math.inf for _, ns, ok in self.ops)

    def ops_per_s(self):
        busy = sum(ns for _, ns, _ in self.ops)
        return (self.attempted - self.failed) / (busy / 1e9)


def run_cycles(workload, seconds, modes) -> None:
    """Run whole cycles of ``workload.labels`` until ``seconds`` have passed.

    ``modes`` pairs a Loop with the function that runs an op; each label is
    run by every mode in turn, so paired measurements of one op sit next to
    each other in time.  Only the op is timed; its output check follows,
    outside the timing.
    """
    start = perf_counter_ns()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            for label in workload.labels:
                for loop, op in modes:
                    run_op(loop, label, op, workload.check)
            if perf_counter_ns() - start >= seconds * 1e9:
                return


def run_op(loop, label, op, check) -> None:
    begin = perf_counter_ns()
    try:
        result = op(label)
    except Exception:
        loop.record(label, perf_counter_ns() - begin,
                    error=traceback.format_exc(limit=-3))
        return
    elapsed = perf_counter_ns() - begin
    try:
        counts = check(label, result)
    except Exception as exc:
        loop.record(label, elapsed, error=repr(exc))
        return
    loop.record(label, elapsed, counts=counts)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# --------------------------------------------------------------------------
# Traced run: per-layer metrics from the spans.

def traced_loop(workloads, args, workdir):
    """Each op untraced, then replayed with spans, for ``--seconds``."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = "setup"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    op_ids = itertools.count()

    def replay(label):
        tracer.op = next(op_ids)  # equals the op's index in traced.ops
        with tracer.span("op", label=label):
            return workload.replay(label, tracer)

    untraced, traced = Loop(), Loop()
    run_cycles(workload, args.seconds,
               ((untraced, workload.run), (traced, replay)))
    return untraced, traced, tracer, workload


def span_counts_repeat(tracer, traced: Loop) -> None:
    """Fail a traced op whose span counts differ from its label's first op."""
    signature = {}
    for op_id, _, _, name, _, _, attrs in tracer.spans:
        if isinstance(op_id, int) and attrs and name != "op":
            signature.setdefault(op_id, []).append(
                (name, tuple(sorted(attrs.items()))))
    first = {}
    for op_id, (label, ns, ok) in enumerate(traced.ops):
        sig = signature.get(op_id, [])
        if first.setdefault(label, sig) != sig and ok:
            traced.ops[op_id] = (label, ns, False)
            traced.errors.append(f"{label}: span counts differ across repeats")


def layer_metrics(tracer, untraced: Loop, traced: Loop) -> dict:
    own = tracer.self_times_ns()
    by_name = {}
    for record, self_ns in zip(tracer.spans, own):
        by_name.setdefault(record[3], []).append((record, self_ns))

    metrics = {}
    for metric, (name, scale) in SPAN_METRICS.items():
        values = [ns / scale for _, ns in by_name.get(name, [])]
        metrics[metric] = (median(values) if values else 0.0,
                           "us" if scale == 1e3 else "ms")

    def cycles_metrics(prefix, name):
        spans = [r for r, _ in by_name.get(name, [])]
        cycles = sum(r[6]["cycles"] for r in spans)
        sweeps = [(r[5] - r[4]) / r[6]["cycles"] / 1e6 for r in spans]
        metrics[f"{prefix}.cycles"] = (
            cycles / len(spans) if spans else 0.0, "count")
        metrics[f"{prefix}.sweep_ms"] = (
            median(sweeps) if sweeps else 0.0, "ms")

    cycles_metrics("equilibrium", "equilibrium.solve")
    cycles_metrics("baseline", "baseline.bsa_solve")

    rows = [r[6] for r, _ in
            by_name.get("best_response.best_response_row", [])]
    active = sum(a["active"] for a in rows)
    size = sum(a["m"] for a in rows)
    metrics["best_response.active_frac"] = (
        active / size if rows else 0.0, "ratio")
    # Candidate active-set sizes tried per row: m, m-1, ..., active_count.
    metrics["best_response.search_steps"] = (
        (size - active + len(rows)) / len(rows) if rows else 0.0, "count")

    # Op accounting.  For each traced op: its call spans (direct children
    # other than probes), its probes, and its own self time, which is the
    # tracer's and the replay's glue.
    calls, probes = {}, {}
    for op_id, _, parent, name, start, end, _ in tracer.spans:
        if parent is not None and tracer.spans[parent][3] == "op":
            bucket = probes if name == "probe" else calls
            bucket[op_id] = bucket.get(op_id, 0) + end - start
    ops = by_name.get("op", [])
    call_ms, traced_busy = {}, 0
    for record, _ in ops:
        op_id, label = record[0], record[6]["label"]
        call_ms.setdefault(label, []).append(calls.get(op_id, 0) / 1e6)
        traced_busy += record[5] - record[4] - probes.get(op_id, 0)
    untraced_ms = {}
    for label, ns, ok in untraced.ops:
        if ok:
            untraced_ms.setdefault(label, []).append(ns / 1e6)
    labels = [lb for lb in call_ms if lb in untraced_ms]
    overhead = [median(untraced_ms[lb]) - median(call_ms[lb]) for lb in labels]
    share = [median(call_ms[lb]) / median(untraced_ms[lb]) for lb in labels]
    traced_ops_per_s = (traced.attempted - traced.failed) / (traced_busy / 1e9)
    metrics["cli.overhead_ms"] = (median(overhead), "ms")
    metrics["trace.span_share"] = (median(share), "ratio")
    metrics["trace.overhead_ms"] = (median(ns for _, ns in ops) / 1e6, "ms")
    metrics["trace.overhead_ops_per_s"] = (
        traced_ops_per_s - untraced.ops_per_s(), "1/s")
    return metrics


# --------------------------------------------------------------------------
# Environment record.

def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build record varies by version
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


# --------------------------------------------------------------------------

def report(args, loop, metrics, extra_lines, info):
    print(json.dumps({"info": info}, default=str))
    print(f"relsched benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for error in loop.errors[:MAX_ERRORS_SHOWN]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def plain_run(args, workloads, setup, workdir):
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    loop = Loop()
    run_cycles(workload, args.seconds, ((loop, workload.run),))
    latencies = loop.latencies_ms()
    metrics = {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_p50_ms": (median(latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}",
             f"  op_p50_ms over n={len(latencies)} ops"]
    if len(latencies) >= P90_MIN_OPS:
        lines.append(f"  op_p90_ms {percentile(latencies, 0.9):.6g} ms"
                     f" (n={len(latencies)})")
    else:
        lines.append(f"  op_p90_ms not reported: {len(latencies)} ops"
                     f" < {P90_MIN_OPS}")
    return workload, loop, metrics, lines


def traced_run(args, workloads, workdir):
    untraced, loop, tracer, workload = traced_loop(workloads, args, workdir)
    span_counts_repeat(tracer, loop)
    metrics = layer_metrics(tracer, untraced, loop)
    loop.ops = untraced.ops + loop.ops
    loop.errors = untraced.errors + loop.errors
    spans = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    lines = [f"  spans: {len(tracer.spans)} written to "
             f"{spans.relative_to(ROOT)}"]
    return workload, loop, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relsched" / "__init__.py").is_file():
        print(f"error: no relsched sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    setup = [] if args.trace else measure_setup(args)
    workloads = import_workloads()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        if args.trace:
            workload, loop, metrics, lines = traced_run(args, workloads,
                                                        workdir)
        else:
            workload, loop, metrics, lines = plain_run(args, workloads, setup,
                                                       workdir)
        info = {"workload": args.workload, "seed": args.seed,
                "environment": environment(), "inputs": workload.info()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.append(f"  failed_frac {loop.failed / loop.attempted:g} "
                 f"({loop.failed}/{loop.attempted})")
    report(args, loop, metrics, lines, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
