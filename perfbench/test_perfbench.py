"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that no request fails, and that the exact layer counts repeat
across two traced runs of one seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
EXACT_COUNTS = ("hodge_solver.levels_solved", "residue_kernel.p_ab.builds",
                "residue_kernel.p_n.builds",
                "lambert_curve.s_involution.calls",
                "lambert_curve.s_involution.orders",
                "hodge_solver.cache.hits", "hodge_solver.cache.misses")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.split()[:2] == ["failed_ratio", "0"] for line in lines)
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res["metrics"]


def test_spec_names_the_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == wl.WORKLOADS


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_oracle_covers_every_seed(workload):
    oracle = wl.load_oracle()
    for seed in range(200):
        assert wl.build_pass(workload, seed, oracle)
    assert wl.build_pass(workload, 0, oracle) == \
        wl.build_pass(workload, 0, oracle)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(bench(workload, 0))
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "hodge_cache":
        assert first["hodge_solver.cache.hits"]["value"] > 0
        assert first["hodge_solver.cache.misses"]["value"] > 0
    if workload in ("hodge_query", "verify_curve"):
        assert first["lambert_curve.s_involution.calls"]["value"] > 0


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("hodge_query", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
