"""Alternated before/after comparison of two wulffkit checkouts.

Usage (from the root of a checkout):

    python3 bench/ab_bench.py --before ../parent --after . \\
        --seeds 2711 2720 --out BENCH_27.json

Both trees need ``src/wulffkit`` and ``perfbench/``.  For every seed, and
for every workload of ``BENCHMARK.json`` in its order, the script runs
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``
once in each tree, before first on odd seeds and after first on even
ones, and keeps the end-to-end metrics of the result line plus the
record's output digest.

The layer numbers come from fresh processes, alternated the same way,
``LAYER_REPS`` per tree and workload: each runs ``LAYER_OPS`` ops of the
workload at ``LAYER_SEED`` after one warm-up op, with wrappers that count
``np.linalg.svd`` and ``np.linalg.eigh`` calls and time each
``metric._exact_directed`` call, and reports calls per op, microseconds
of ``_exact_directed`` per op and the CPU time per op.  After the timed
ops it sorts the bodies those ops passed to ``metric._exact_directed``
and ``metric._nearest_body_points`` by whether their face spans of rank
d - 1 are read off normals: d >= 3, and generators (``cones.span_basis``)
of rank d - 1, or of rank d with at least one normal.  It reports the
share of ``_exact_directed`` calls with both, one or neither body so,
and the share of ``_nearest_body_points`` calls and rows whose body is
so.  It also times each ``metric.directed_distance_sampled`` call, the
sampled route, and counts the rows given to ``kernels.min_slack`` and to
``metric.batch_point_body_distance`` inside it, and reports its calls per
op, microseconds per call and those rows per call.

The summary gives, per workload and metric, the inclusive quartiles of
each side, the pairs the after tree won, and the median change as a
fraction of the before median (positive is worse, as BENCHMARK.json's
bounds read it).
"""

import os

# one BLAS thread, set before numpy is first imported, as perfbench/run.py
# sets it for its runs
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402


def run_perfbench(tree, workload, seed, seconds):
    """One ``perfbench/run.py --trace 0`` run in `tree`: (metrics, record)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in out if line.startswith('{"record"'))
    result = json.loads(out[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, {"correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "digest": record.get("digest")}


LAYER_SEED = 501
LAYER_OPS = 400
LAYER_REPS = 8


def layer_probe(tree, workload):
    """In this process: count and time the layers over `LAYER_OPS` ops."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    from wulffkit import cones, kernels, metric

    calls = {"svd": 0, "eigh": 0}
    directed = []
    # the seconds of each sampled call, and the rows the counted layers got
    # inside those calls
    sampled = []
    sampled_rows = {"min_slack": 0, "batch": 0}
    # the bodies each call saw, kept alive so their ids stay unique
    bodies, directed_pairs, nearest_rows = {}, [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(fn):
        def wrapper(a, b):
            bodies[id(a)], bodies[id(b)] = a, b
            directed_pairs.append((id(a), id(b)))
            t0 = time.perf_counter()
            try:
                return fn(a, b)
            finally:
                directed.append(time.perf_counter() - t0)
        return wrapper

    def recorded(fn):
        def wrapper(X, body):
            bodies[id(body)] = body
            nearest_rows.append((id(body), X.shape[0]))
            return fn(X, body)
        return wrapper

    in_sampled = False

    def rows_in_sampled(name, fn):
        def wrapper(X, *args):
            if in_sampled:
                sampled_rows[name] += X.shape[0]
            return fn(X, *args)
        return wrapper

    def sampled_timed(fn):
        def wrapper(*args, **kwargs):
            nonlocal in_sampled
            in_sampled = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sampled.append(time.perf_counter() - t0)
                in_sampled = False
        return wrapper

    op = workloads.WORKLOADS[workload].op
    op(0, LAYER_SEED)
    svd, eigh = np.linalg.svd, np.linalg.eigh
    np.linalg.svd = counted("svd", svd)
    np.linalg.eigh = counted("eigh", eigh)
    metric._exact_directed = timed(metric._exact_directed)
    metric._nearest_body_points = recorded(metric._nearest_body_points)
    metric.directed_distance_sampled = sampled_timed(metric.directed_distance_sampled)
    kernels.min_slack = rows_in_sampled("min_slack", kernels.min_slack)
    metric.batch_point_body_distance = rows_in_sampled("batch", metric.batch_point_body_distance)
    cpu = time.process_time()
    for t in range(LAYER_OPS):
        op(t, LAYER_SEED)
    cpu = time.process_time() - cpu
    np.linalg.svd, np.linalg.eigh = svd, eigh

    def by_normals(body):
        G = body.generator_array
        d = G.shape[1]
        rank = cones.span_basis(G)[1]
        return d >= 3 and (rank == d - 1 or (rank == d and body.normal_array.shape[0] > 0))

    read = {key: by_normals(b) for key, b in bodies.items()}
    sides = [read[a] + read[b] for a, b in directed_pairs]
    n_pairs = max(len(sides), 1)
    n_rows = max(sum(rows for _, rows in nearest_rows), 1)
    n_sampled = max(len(sampled), 1)
    return {
        "svd_calls_per_op": calls["svd"] / LAYER_OPS,
        "eigh_calls_per_op": calls["eigh"] / LAYER_OPS,
        "exact_directed_us_per_op": 1e6 * sum(directed) / LAYER_OPS,
        "exact_directed_calls_per_op": len(directed) / LAYER_OPS,
        "cpu_ops_per_s": LAYER_OPS / cpu,
        "exact_directed_facets_by_normals_both_frac": sides.count(2) / n_pairs,
        "exact_directed_facets_by_normals_one_frac": sides.count(1) / n_pairs,
        "exact_directed_facets_by_normals_neither_frac": sides.count(0) / n_pairs,
        "nearest_calls_per_op": len(nearest_rows) / LAYER_OPS,
        "nearest_facets_by_normals_call_frac":
            sum(read[key] for key, _ in nearest_rows) / max(len(nearest_rows), 1),
        "nearest_facets_by_normals_row_frac":
            sum(rows for key, rows in nearest_rows if read[key]) / n_rows,
        "sampled_calls_per_op": len(sampled) / LAYER_OPS,
        "sampled_us_per_call": 1e6 * sum(sampled) / n_sampled,
        "sampled_min_slack_rows_per_call": sampled_rows["min_slack"] / n_sampled,
        "sampled_batch_rows_per_call": sampled_rows["batch"] / n_sampled,
    }


def run_layer_probe(tree, workload):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--layer-probe", str(tree), workload],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(q2, 4), "q3": round(q3, 4)}


def summarize(pairs, spec):
    """Per workload and end-to-end metric: quartiles, wins, median change."""
    summary = {}
    for workload in sorted({p["workload"] for p in pairs}):
        rows = [p for p in pairs if p["workload"] == workload]
        out = summary[workload] = {"pairs": len(rows)}
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            before = [p["before"][name] for p in rows]
            after = [p["after"][name] for p in rows]
            wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
            losses = sum((a < b) if higher else (a > b) for a, b in zip(after, before))
            mb, ma = statistics.median(before), statistics.median(after)
            worse = ((mb - ma) if higher else (ma - mb)) / mb if mb else 0.0
            out[name] = {
                "before": quartiles(before), "after": quartiles(after),
                "after_wins": wins, "after_losses": losses,
                "median_worse_frac": round(worse, 4), "bound": m["bound"],
                "within_bound": worse <= m["bound"],
            }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"))
    ap.add_argument("--out", type=Path)
    ap.add_argument("--layer-probe", nargs=2, metavar=("TREE", "WORKLOAD"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.layer_probe:
        print(json.dumps(layer_probe(*args.layer_probe)))
        return
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((trees["after"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    pairs = []
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        order = ("before", "after") if seed % 2 else ("after", "before")
        for w in spec["workloads"]:
            pair = {"workload": w["name"], "seed": seed, "first": order[0]}
            for side in order:
                pair[side], pair[side + "_run"] = run_perfbench(
                    trees[side], w["name"], seed, seconds)
            pairs.append(pair)
            print(json.dumps(pair), file=sys.stderr)
    layers = {}
    for w in spec["workloads"]:
        runs = {"before": [], "after": []}
        for rep in range(LAYER_REPS):
            for side in ("before", "after") if rep % 2 == 0 else ("after", "before"):
                runs[side].append(run_layer_probe(trees[side], w["name"]))
        medians = {
            side: {k: round(statistics.median(r[k] for r in reps), 4) for k in reps[0]}
            for side, reps in runs.items()
        }
        layers[w["name"]] = {"medians": medians, "runs": runs}
        print(json.dumps({"layers": w["name"], "medians": medians}), file=sys.stderr)
    doc = {
        "machine": {
            "cores": os.cpu_count(), "cpu": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas_num_threads": "1",
        },
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": (
            f"seeds {args.seeds[0]}-{args.seeds[1]}; one run per tree, workload and seed, "
            "before first on odd seeds and after first on even ones; "
            f"layer probes: {LAYER_REPS} alternated fresh processes per tree and workload, "
            f"{LAYER_OPS} ops at seed {LAYER_SEED} after one warm-up op"
        ),
        "summary": summarize(pairs, spec),
        "layers": layers,
        "pairs": pairs,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
