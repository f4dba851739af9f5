"""Alternated before/after comparison of two wulffkit checkouts.

Usage (from the root of a checkout):

    python3 bench/ab_bench.py --before ../parent --after . \\
        --seeds 3101 3110 --interleave --out BENCH_31.json

Both trees need ``src/wulffkit`` and ``perfbench/``.  For every seed, and
for every workload of ``BENCHMARK.json`` in its order, the script runs
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds``
once in each tree, before first on odd seeds and after first on even
ones, and keeps the end-to-end metrics of the result line plus the
record's output digest.

The layer numbers come from fresh processes, alternated the same way,
``LAYER_REPS`` per tree and workload: each runs ``LAYER_OPS`` ops of the
workload at ``LAYER_SEED`` after one warm-up op, with wrappers that count
``np.linalg.svd`` and ``np.linalg.eigh`` calls, and reports calls per
op, microseconds of ``metric._exact_directed`` per op and the CPU time
per op.  It times each ``metric._nearest_body_points`` call, the
nearest-point layer, and reports microseconds and rows per call and
calls per op, split by the route running when the call was made: the
exact route (``_exact_directed``), the sampled route
(``directed_distance_sampled``) or a point distance
(``point_body_distance``).  It also times each sampled call and counts
the grid rows of the cells it visits (given to ``metric._row_samples``)
and the rows given to ``kernels.min_slack`` and to
``metric.batch_point_body_distance`` inside it, and reports its calls per
op, microseconds per call and those rows per call.

With ``--interleave`` the two trees are also compared in one process,
where a run-to-run drift of the host moves both sides alike: both
trees' ``src/wulffkit`` are imported under distinct package names, each
with its own ``perfbench/workloads.py`` bound to it (`load_tree`), and
for every workload and seed one pass of the op list runs in both trees
op by op (`interleaved_pass`); each side's output digest must equal the
digest its own tree's ``perfbench/run.py`` prints for that seed.  The
report gives each pass's op/s per side and their ratio, and the
in-process nearest-point probe (`nearest_probe`).

The import probe runs ``IMPORT_REPS`` fresh interpreters per tree and
workload, alternated the same way.  Each is started with ``python -c``, so
nothing of this script (which imports scipy) is loaded in it, and reports
the wall time of ``import wulffkit`` and the scipy modules loaded after the
import and after op 0 of the workload at ``LAYER_SEED``.

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
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
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

# the in-process nearest-point probe's bodies and alternated repetitions
NEAREST_BODIES = 40
NEAREST_REPS = 21

# the routes a nearest-point call is split by, named after the metric
# routine that was running when it was made
ROUTES = {"_exact_directed": "exact", "directed_distance_sampled": "sampled",
          "point_body_distance": "point"}


def layer_probe(tree, workload):
    """In this process: count and time the layers over `LAYER_OPS` ops."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads
    from wulffkit import kernels, metric

    calls = {"svd": 0, "eigh": 0}
    # the innermost route running, and the seconds each route's calls took
    route = ["other"]
    seconds = {name: [] for name in ROUTES}
    # per nearest-point call: (route, rows, seconds)
    nearest = []
    # rows the counted layers got inside the sampled route
    sampled_rows = {"min_slack": 0, "batch": 0, "visited": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def routed(name, fn):
        def wrapper(*args, **kwargs):
            route.append(ROUTES[name])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name].append(time.perf_counter() - t0)
                route.pop()
        return wrapper

    def timed_nearest(fn):
        def wrapper(X, body):
            t0 = time.perf_counter()
            try:
                return fn(X, body)
            finally:
                nearest.append((route[-1], X.shape[0], time.perf_counter() - t0))
        return wrapper

    def rows_in_sampled(name, fn):
        def wrapper(X, *args):
            if route[-1] == "sampled":
                sampled_rows[name] += X.shape[0]
            return fn(X, *args)
        return wrapper

    def visited_rows(fn):
        def wrapper(body, rows, band_width):
            if route[-1] == "sampled":
                sampled_rows["visited"] += rows.shape[0]
            return fn(body, rows, band_width)
        return wrapper

    op = workloads.WORKLOADS[workload].op
    op(0, LAYER_SEED)
    svd, eigh = np.linalg.svd, np.linalg.eigh
    np.linalg.svd = counted("svd", svd)
    np.linalg.eigh = counted("eigh", eigh)
    for name in ROUTES:
        setattr(metric, name, routed(name, getattr(metric, name)))
    metric._nearest_body_points = timed_nearest(metric._nearest_body_points)
    metric._row_samples = visited_rows(metric._row_samples)
    kernels.min_slack = rows_in_sampled("min_slack", kernels.min_slack)
    metric.batch_point_body_distance = rows_in_sampled("batch", metric.batch_point_body_distance)
    cpu = time.process_time()
    for t in range(LAYER_OPS):
        op(t, LAYER_SEED)
    cpu = time.process_time() - cpu
    np.linalg.svd, np.linalg.eigh = svd, eigh

    directed, sampled = seconds["_exact_directed"], seconds["directed_distance_sampled"]
    n_sampled = max(len(sampled), 1)
    out = {
        "svd_calls_per_op": calls["svd"] / LAYER_OPS,
        "eigh_calls_per_op": calls["eigh"] / LAYER_OPS,
        "exact_directed_us_per_op": 1e6 * sum(directed) / LAYER_OPS,
        "exact_directed_calls_per_op": len(directed) / LAYER_OPS,
        "cpu_ops_per_s": LAYER_OPS / cpu,
        "nearest_calls_per_op": len(nearest) / LAYER_OPS,
        "nearest_us_per_call": 1e6 * sum(s for _, _, s in nearest) / max(len(nearest), 1),
        "nearest_rows_per_call": sum(n for _, n, _ in nearest) / max(len(nearest), 1),
        "nearest_us_per_op": 1e6 * sum(s for _, _, s in nearest) / LAYER_OPS,
    }
    for name in ("exact", "sampled", "point", "other"):
        out[f"nearest_calls_per_op_{name}"] = sum(r == name for r, _, _ in nearest) / LAYER_OPS
    out.update({
        "sampled_calls_per_op": len(sampled) / LAYER_OPS,
        "sampled_us_per_call": 1e6 * sum(sampled) / n_sampled,
        "sampled_visited_rows_per_call": sampled_rows["visited"] / n_sampled,
        "sampled_min_slack_rows_per_call": sampled_rows["min_slack"] / n_sampled,
        "sampled_batch_rows_per_call": sampled_rows["batch"] / n_sampled,
    })
    return out


# fresh interpreters per tree and workload for the import probe
IMPORT_REPS = 7

# the import probe's interpreter: argv is (tree, workload, seed); it prints
# the import's wall seconds and the scipy modules loaded after the import
# and after op 0, as one JSON line
IMPORT_PROBE = """
import os, sys, time, json
os.environ["OPENBLAS_NUM_THREADS"] = "1"
tree, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
t0 = time.perf_counter()
import wulffkit
import_s = time.perf_counter() - t0
after_import = scipy_modules()
import workloads
workloads.WORKLOADS[workload].op(0, seed)
print(json.dumps({"import_s": import_s, "after_import": after_import,
                  "after_op0": scipy_modules()}))
"""


def import_probe(trees, spec):
    """Per tree: the median wall seconds of ``import wulffkit`` over every
    fresh interpreter, and per workload the scipy modules loaded after the
    import and after op 0 (the package names below ``scipy.`` and the count
    of modules)."""
    runs = {side: {w["name"]: [] for w in spec["workloads"]} for side in trees}
    for w in spec["workloads"]:
        for rep in range(IMPORT_REPS):
            for side in ("before", "after") if rep % 2 == 0 else ("after", "before"):
                out = subprocess.run(
                    [sys.executable, "-c", IMPORT_PROBE, str(trees[side]), w["name"],
                     str(LAYER_SEED)],
                    check=True, capture_output=True, text=True,
                ).stdout
                runs[side][w["name"]].append(json.loads(out.strip().splitlines()[-1]))

    def loaded(modules):
        return {"modules": len(modules),
                "packages": sorted({".".join(m.split(".")[:2]) for m in modules})}

    doc = {}
    for side, by_workload in runs.items():
        times = [r["import_s"] for reps in by_workload.values() for r in reps]
        doc[side] = {
            "import_s": round(statistics.median(times), 4),
            "import_s_quartiles": quartiles(times),
            "scipy_after_import": loaded(next(iter(by_workload.values()))[0]["after_import"]),
            "scipy_after_op0": {name: loaded(reps[0]["after_op0"])
                                for name, reps in by_workload.items()},
        }
        print(json.dumps({"import_probe": side, **doc[side]}), file=sys.stderr)
    return doc


def run_layer_probe(tree, workload):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--layer-probe", str(tree), workload],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def load_tree(tree, name):
    """Import `tree`'s ``src/wulffkit`` as the package `name`, and its
    ``perfbench/workloads.py`` bound to that package; returns the workloads
    module.

    ``workloads.py`` reads ``from wulffkit import ...``, so the name
    ``wulffkit`` stands for this tree's package while it loads and for
    nothing after.  The package's own imports are relative, its one lazy
    import (``from . import metric`` in ``oracles``) included, so they stay
    inside `name`; every module loaded under `name` must come from the
    tree's ``src/wulffkit``.
    """
    src = (Path(tree) / "src" / "wulffkit").resolve()
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    held = sys.modules.pop("wulffkit", None)
    sys.modules["wulffkit"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(
            name + "_workloads", Path(tree).resolve() / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["wulffkit"]
        if held is not None:
            sys.modules["wulffkit"] = held
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith(name + ".") and Path(mod.__file__).resolve().parent != src:
            raise ImportError(f"{mod_name} was loaded from {mod.__file__}, not {src}")
    if workloads.metric is not pkg.metric:
        raise ImportError(f"{tree}'s workloads are not bound to its own package")
    return workloads


def interleaved_pass(sides, workload, seed):
    """One pass of `workload`'s op list at `seed` in both trees, op by op:
    before first on even ops and after first on odd ones.  Returns per side
    the op/s over the summed op times, the failed ops, and the digest of the
    outputs as ``perfbench/run.py`` computes it."""
    ops = sides["before"].WORKLOADS[workload].ops
    wall = {side: 0.0 for side in sides}
    values = {side: [] for side in sides}
    failed = {side: 0 for side in sides}
    for t in range(ops):
        for side in ("before", "after") if t % 2 == 0 else ("after", "before"):
            op = sides[side].WORKLOADS[workload].op
            t0 = time.perf_counter()
            try:
                res = op(t, seed)
            except Exception:
                print(f"ab_bench: {side} {workload} op {t} raised", file=sys.stderr)
                traceback.print_exc()
                res = None
            wall[side] += time.perf_counter() - t0
            failed[side] += res is None or not res.ok
            values[side].append(None if res is None else res.values)
    return {
        side: {"ops_per_s": ops / wall[side], "failed": failed[side],
               "digest": hashlib.sha256(json.dumps(values[side]).encode()).hexdigest()}
        for side in sides
    }


def nearest_probe(sides, reps):
    """In-process, alternated rep by rep: the median microseconds of one
    ``metric._nearest_body_points`` call on an 8-row block and per row of a
    1,000-row block, over `NEAREST_BODIES` S^2 Wulff bodies drawn as the
    workloads draw them, and of one ``metric._normal_candidates`` call over
    the primal, reversed and polar pairs of half as many such pairs."""
    cases = {}
    for side, workloads in sides.items():
        pkg = sys.modules[workloads.metric.__package__]
        metric, transforms, geometry = pkg.metric, pkg.transforms, pkg.geometry
        wulff = [workloads._wulff(np.random.default_rng([LAYER_SEED, i]))
                 for i in range(NEAREST_BODIES)]
        blocks = {n: [geometry.uniform_sphere_points(workloads.DIM, n, i)
                      for i in range(NEAREST_BODIES)] for n in (8, 1000)}
        pairs = []
        for a, b in zip(wulff[::2], wulff[1::2]):
            pairs += [(a, b), (b, a), (transforms.polar(a), transforms.polar(b))]
        args = [(metric._facet_normals(a), metric._basis_spans(a), metric._facet_normals(b),
                 float(metric._hemisphere_lower_bound(a.generator_array, b).max())
                 - metric._PRUNE_MARGIN) for a, b in pairs]
        cases[side] = (metric, wulff, blocks, args)

    def timed(side, what):
        metric, wulff, blocks, args = cases[side]
        t0 = time.perf_counter()
        if what == "normal_candidates":
            for arg in args:
                metric._normal_candidates(*arg)
            return 1e6 * (time.perf_counter() - t0) / len(args)
        for b, X in zip(wulff, blocks[what]):
            metric._nearest_body_points(X, b)
        return 1e6 * (time.perf_counter() - t0) / (len(wulff) * (1 if what == 8 else what))

    out = {}
    for what, key in ((8, "nearest_8_rows_us"), (1000, "nearest_1000_rows_us_per_row"),
                      ("normal_candidates", "normal_candidates_us")):
        runs = {side: [] for side in sides}
        for side in sides:
            timed(side, what)
        for rep in range(reps):
            for side in ("before", "after") if rep % 2 == 0 else ("after", "before"):
                runs[side].append(timed(side, what))
        out[key] = {side: round(statistics.median(r), 3) for side, r in runs.items()}
    return out


def interleave(trees, seeds, spec):
    """The in-process comparison: both trees loaded side by side
    (`load_tree`), one `interleaved_pass` per workload and seed, each side's
    digest checked against its own tree's ``perfbench/run.py`` digest, and
    the in-process `nearest_probe`."""
    sides = {side: load_tree(tree, f"wulffkit_{side}") for side, tree in trees.items()}
    doc = {"nearest_probe": nearest_probe(sides, NEAREST_REPS)}
    for w in spec["workloads"]:
        for workloads in sides.values():
            workloads.WORKLOADS[w["name"]].op(0, seeds[0])
        passes = []
        for seed in seeds:
            run = interleaved_pass(sides, w["name"], seed)
            for side, tree in trees.items():
                reference = run_perfbench(tree, w["name"], seed, 0)[1]["digest"]
                if run[side]["digest"] != reference:
                    raise RuntimeError(f"{side} digest {run[side]['digest']} at seed {seed} is not "
                                       f"{tree}'s own perfbench digest {reference}")
            passes.append({
                "seed": seed, "digest": run["after"]["digest"][:16],
                **{side: {"ops_per_s": r["ops_per_s"], "failed": r["failed"]}
                   for side, r in run.items()},
                "ratio": run["after"]["ops_per_s"] / run["before"]["ops_per_s"],
            })
            print(json.dumps({"interleave": w["name"], **passes[-1]}), file=sys.stderr)
        ratios = [p["ratio"] for p in passes]
        doc[w["name"]] = {"median_ratio": round(statistics.median(ratios), 4),
                          "min_ratio": round(min(ratios), 4), "max_ratio": round(max(ratios), 4),
                          "passes": passes}
    return doc


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
    ap.add_argument("--interleave", action="store_true",
                    help="also compare both trees in one process, op by op, one pass per seed")
    ap.add_argument("--layer-probe", nargs=2, metavar=("TREE", "WORKLOAD"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.layer_probe:
        print(json.dumps(layer_probe(*args.layer_probe)))
        return
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    spec = json.loads((trees["after"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    imports = import_probe(trees, spec)
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
            f"{LAYER_OPS} ops at seed {LAYER_SEED} after one warm-up op; "
            f"import probe: {IMPORT_REPS} alternated fresh interpreters per tree and workload"
        ),
        "summary": summarize(pairs, spec),
        "import_probe": imports,
        "layers": layers,
        "pairs": pairs,
    }
    if args.interleave:
        doc["protocol"] += (
            "; interleaved: both trees in one process, one pass per workload and seed, "
            "before first on even ops and after first on odd ones, each side's digest "
            "checked against its tree's own perfbench/run.py digest; in-process nearest-point "
            f"probe: {NEAREST_REPS} alternated repetitions over {NEAREST_BODIES} S^2 Wulff bodies"
        )
        doc["interleave"] = interleave(trees, range(args.seeds[0], args.seeds[1] + 1), spec)
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
