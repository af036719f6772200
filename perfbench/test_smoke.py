"""Smoke tests of the benchmark itself, outside Tier-1 (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for one second. The untraced run must emit every
end-to-end metric and the traced run every per-layer metric, all finite;
the traced runs together must cover all eight layers, with the bypasses the
workloads are chosen for.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = ("core", "spinor_maps", "rotation_algebra", "ks_covariance", "gauge_fixing",
          "fixtures", "verify", "cli")


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_metrics(result, group):
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    check_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    check_metrics(traced[workload], "per_layer")


def test_traced_runs_cover_every_layer_and_confirm_the_bypasses(traced):
    calls = {w: {layer: traced[w]["metrics"][f"{layer}.calls"]["value"] for layer in LAYERS}
             for w in WORKLOADS}
    for layer in LAYERS:
        assert any(calls[w][layer] > 0 for w in WORKLOADS), layer
    for layer in ("gauge_fixing", "ks_covariance", "fixtures", "verify", "cli"):
        assert calls["points"][layer] == 0, layer
    assert calls["frames"]["spinor_maps"] == 0
    seen = set()
    for workload in WORKLOADS:
        with np.load(ROOT / "perfbench" / "out" / f"spans-{workload}-seed3.npz") as data:
            layers = json.loads(str(data["layers"]))
            seen.update(layers[i] for i in np.unique(data["name"]))
    assert set(LAYERS) <= seen


def test_known_defects_show_in_failed_share(traced):
    for workload in ("points", "frames"):
        assert traced[workload]["metrics"]["outcome.failed_share"]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("points", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
