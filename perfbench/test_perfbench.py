"""Self-test of the benchmark on tiny op lists.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _tiny(name, ops=5):
    return dataclasses.replace(workloads.WORKLOADS[name], ops=ops)


def test_workloads_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result, record = run.run(_tiny(name), seed=3, seconds=0, trace=0, setup_probes=1)
    assert result["correct"], record
    assert (result["attempted"], result["failed"]) == (5, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["distance_results"] == 10


def test_every_per_layer_metric_is_emitted_and_tracing_is_undone():
    result, record = run.run(_tiny("mixed_convex"), seed=3, seconds=0, trace=1)
    # the traced pass reproduced the plain pass's outputs
    assert result["correct"], record
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert not record["layers_missing"]
    metrics = result["metrics"]
    for layer in ("cones.linprog", "cones.nonneg_lstsq", "metric.directed_distance_sampled"):
        assert metrics[f"{layer}.calls"]["value"] > 0
    routes = metrics["metric.route.exact"]["value"] + metrics["metric.route.sampled"]["value"]
    assert routes == metrics["metric.directed_distance_with_bound.calls"]["value"]
    assert workloads.metric.hausdorff_with_bound.__name__ == "hausdorff_with_bound"
    assert workloads.harness.from_generators.__name__ == "from_generators"


def test_failing_ops_are_counted_and_the_run_goes_on():
    real = workloads.WORKLOADS["exact_wulff"]

    def op(t, seed):
        if t == 1:
            raise RuntimeError("injected failure")
        res = real.op(t, seed)
        return dataclasses.replace(res, ok=res.ok and t != 2)

    faulty = dataclasses.replace(real, op=op, ops=4)
    result, _ = run.run(faulty, seed=3, seconds=0, trace=0, setup_probes=1)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_wulff", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
