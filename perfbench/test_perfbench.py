"""The benchmark's own tests: every workload reports every named metric,
counts repeat at one seed, and the seed changes the inputs.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload briefly (``--seconds 1``; the prefix rounds still
complete), so the whole file takes a few minutes.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 1, run: int = 0):
    """(detail, result) of one quick run; ``run`` tells repeats apart."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    detail, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert all(law["ok"] for law in detail["laws"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_counts_repeat_at_one_seed(trace):
    first = bench("struct-hooks", trace)[1]["metrics"]
    second = bench("struct-hooks", trace, run=1)[1]["metrics"]
    names = (["engine.attempts_per_sample", "engine.dead_frac",
              "marginals.bulk_calls_per_sample"] if trace else ["uniforms_per_sample"])
    for name in names:
        assert first[name]["value"] == second[name]["value"], name


def test_seed_changes_the_inputs():
    d1, r1 = bench("struct-hooks", 0)
    d2, r2 = bench("struct-hooks", 0, seed=2)
    assert d1["inputs_sha256"] != d2["inputs_sha256"]
    assert r1["metrics"]["uniforms_per_sample"] != r2["metrics"]["uniforms_per_sample"]


def test_refuses_to_run_without_source():
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=HERE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
