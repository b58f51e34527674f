"""Smoke test of the benchmark harness: every stage, check and metric at tiny sizes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(name="tiny", why="smoke test", n_images=2, image_side=48, image_disks=30,
                patch_side=4, n_patches=400, map_width=3, map_height=3, max_iters=3,
                n_frames=12, window=16, scene_side=48, scene_disks=30,
                permutations=20, max_lag=2, locality_k=2)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        return json.load(f)


def test_declared_workloads_are_the_defined_ones():
    assert ([(w["name"], w["why"]) for w in benchmark_json()["workloads"]]
            == [(w.name, w.why) for w in run.WORKLOADS.values()])


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_reports_every_declared_metric(tmp_path, trace, kind):
    result = run.run_workload(TINY, seed=3, seconds=0, trace=trace, state_dir=str(tmp_path))
    assert result["correct"], result["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 20
    declared = {m["name"]: m["unit"] for m in benchmark_json()[kind]}
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == declared


def test_second_run_is_compared_with_the_first(tmp_path):
    first = run.run_workload(TINY, seed=4, seconds=0, trace=False, state_dir=str(tmp_path))
    second = run.run_workload(TINY, seed=4, seconds=0, trace=False, state_dir=str(tmp_path))
    assert first["correct"] and second["correct"], second["report"]["failures"]
    assert second["attempted"] == first["attempted"] + 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
