"""wulffkit's benchmark: one closed-loop client driving seeded op lists.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact_wulff --seed 1 --seconds 45 --trace 0

Workloads are defined in ``workloads.py`` and described in
``BENCHMARK.json``.  A run imports the package from the checkout's
``src/``, warms up on op 0, then runs whole passes over the workload's
fixed op list until the pass count nearest ``--seconds`` is reached, so
the op mix never depends on how fast the program is.  Each op is timed
from outside the call and checked; an op that raises or fails its check
is counted and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
plain pass and one traced pass over the same ops, prints the per-layer
metrics of the traced pass plus the tracing overhead, and writes the
spans to ``.perfbench_out/``.  Both print a ``{"record": ...}`` line
(environment, op counts, output digest) before the result line, which
is the last line of standard output.
"""

import os

# one BLAS thread, set before numpy is first imported; otherwise OpenBLAS
# starts a thread per core and the single client is no longer alone
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: fresh processes timed from start through warm-up; setup_s is their median
SETUP_PROBES = 3

#: seconds a setup probe may take before it is killed
PROBE_TIMEOUT = 60

OUT_DIR = ROOT / ".perfbench_out"


def load_program():
    """Import wulffkit from the checkout's ``src/`` and nowhere else."""
    pkg = ROOT / "src" / "wulffkit"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no wulffkit package at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import wulffkit

    if Path(wulffkit.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"wulffkit was imported from {wulffkit.__file__}, not {pkg}")
    return wulffkit


@dataclasses.dataclass
class Pass:
    """One pass over a workload's op list."""

    latencies: list
    failed: int
    exact: int
    distances: int
    digest: str
    wall: float


def call_op(workload, t, seed):
    """Run op t; None when it raised (the traceback goes to stderr)."""
    try:
        return workload.op(t, seed)
    except Exception:
        print(f"perfbench: {workload.name} op {t} raised", file=sys.stderr)
        traceback.print_exc()
        return None


def run_pass(workload, seed, tracer=None):
    latencies = []
    values = []
    failed = exact = distances = 0
    start = time.perf_counter()
    for t in range(workload.ops):
        if tracer is not None:
            tracer.op = t
        t0 = time.perf_counter()
        res = call_op(workload, t, seed)
        latencies.append(time.perf_counter() - t0)
        if res is None:
            failed += 1
            values.append(None)
            continue
        failed += not res.ok
        exact += res.exact
        distances += res.distances
        values.append(res.values)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    return Pass(latencies, failed, exact, distances, digest, wall)


def timed_passes(workload, seed, seconds):
    """Whole passes until the count nearest `seconds` (at least one)."""
    passes = [run_pass(workload, seed)]
    elapsed = passes[0].wall
    while elapsed + passes[-1].wall / 2.0 < seconds:
        passes.append(run_pass(workload, seed))
        elapsed += passes[-1].wall
    return passes


def measure_setup(workload, seed, probes):
    """Wall seconds of `probes` fresh processes: start, imports, warm-up op."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed),
    ]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def latency_ms(passes):
    """(p50, p90, samples, samples beyond p90) of the per-op latencies."""
    lat = [1e3 * x for p in passes for x in p.latencies]
    p90 = statistics.quantiles(lat, n=10)[-1]
    return statistics.median(lat), p90, len(lat), sum(x > p90 for x in lat)


def end_to_end_metrics(passes, setup_times):
    p50, p90, ops, _ = latency_ms(passes)
    failed = sum(p.failed for p in passes)
    exact = sum(p.exact for p in passes)
    distances = sum(p.distances for p in passes)
    return {
        "ops_per_s": _metric(ops / sum(p.wall for p in passes), "op/s"),
        "op_ms_p50": _metric(p50, "ms"),
        "op_ms_p90": _metric(p90, "ms"),
        "ok_frac": _metric((ops - failed) / ops, "ratio"),
        "exact_frac": _metric(exact / distances if distances else 0.0, "ratio"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run(workload, seed, seconds, trace, setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result, record)."""
    call_op(workload, 0, seed)  # warm-up: first-call costs stay out of the timing
    record = {"workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds}
    if trace:
        plain = run_pass(workload, seed)
        with Tracer() as tracer:
            traced = run_pass(workload, seed, tracer)
        passes = [plain, traced]
        plain_rate = workload.ops / plain.wall
        traced_rate = workload.ops / traced.wall
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = _metric(traced_rate, "op/s")
        metrics["trace.overhead_frac"] = _metric(1.0 - traced_rate / plain_rate, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv"
        tracer.write_spans(spans_file)
        record["untraced_ops_per_s"] = plain_rate
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["layers_missing"] = tracer.missing
    else:
        passes = timed_passes(workload, seed, seconds)
        setup_times = measure_setup(workload, seed, setup_probes)
        metrics = end_to_end_metrics(passes, setup_times)
        record["setup_probe_s"] = setup_times
    _, _, attempted, beyond_p90 = latency_ms(passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    record.update(
        passes=len(passes),
        ops_per_pass=workload.ops,
        latency_samples=attempted,
        samples_beyond_p90=beyond_p90,
        exact_results=sum(p.exact for p in passes),
        distance_results=sum(p.distances for p in passes),
        # the same seed must give the same outputs in every pass, traced or not
        digest=digests[0] if len(digests) == 1 else digests,
        env=environment(),
    )
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def environment():
    import numpy
    import scipy
    import wulffkit

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": wulffkit.BACKEND,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        call_op(workload, 0, args.seed)
        return 0
    result, record = run(workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
