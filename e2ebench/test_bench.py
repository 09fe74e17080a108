"""Self-test of the benchmark: a tiny run of every workload.

Run from the repository root:  python3 -m pytest -q e2ebench/test_bench.py

Checks that tracing changes no verdict and no exact count, that one seed
gives one set of inputs and counts, that the traced run reports every
per-layer metric BENCHMARK.json names, and that the benchmark refuses to run
without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from sweep import lru_caches, run_sweep  # noqa: E402

from simplicial_tc import DEFAULT_BUDGET, maps  # noqa: E402
from simplicial_tc._kernels import pure  # noqa: E402

SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("invariants.checks", "maps.bfs_states_sum", "kernels.neighbors_calls")


def profiled_sweep(cases):
    """An untraced sweep, counted by a profile hook instead of patched names."""
    counts = {"maps.bfs_states_sum": 0, "kernels.neighbors_calls": 0}
    queries = {maps.same_contiguity_class.__code__, maps.class_constant_witness.__code__}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is pure.neighbors.__code__:
            counts["kernels.neighbors_calls"] += 1
        elif event == "return" and frame.f_code in queries:
            counts["maps.bfs_states_sum"] += arg.explored

    sys.setprofile(hook)
    try:
        sweep = run_sweep(cases, DEFAULT_BUDGET, lru_caches())
    finally:
        sys.setprofile(None)
    counts["invariants.checks"] = sum(op.tc_checks + op.scat_checks for op in sweep.ops)
    return sweep, counts


def traced_sweep(cases):
    sweep = run_sweep(cases, DEFAULT_BUDGET, lru_caches(), traced=True)
    metrics, _ = run.per_layer(sweep, plain_wall=sweep.total("latency_s"))
    return sweep, metrics


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_verdict_or_count(workload):
    cases = workloads.build(workload, SEED, tiny=True)
    plain, plain_counts = profiled_sweep(cases)
    traced, metrics = traced_sweep(cases)
    for sweep in (plain, traced):
        assert [op.problems for op in sweep.ops] == [[] for _ in cases]
    assert [op.answer for op in plain.ops] == [op.answer for op in traced.ops]
    assert {k: metrics[k] for k in COUNTS} == plain_counts
    assert metrics["invariants.check_spans"] == metrics["invariants.checks"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_one_run(workload):
    first = workloads.build(workload, SEED, tiny=True)
    assert workloads.build(workload, SEED, tiny=True) == first
    assert workloads.build(workload, SEED + 1, tiny=True) != first
    (_, a), (_, b) = traced_sweep(first), traced_sweep(first)
    count_keys = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert {k: a[k] for k in count_keys} == {k: b[k] for k in count_keys}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    _, metrics = traced_sweep(workloads.build(workload, SEED, tiny=True))
    for m in BENCH["per_layer"]:
        assert isinstance(metrics[m["name"]], (int, float)), m["name"]


def test_gate_rejects_wrong_answers():
    from gate import check_operation
    from simplicial_tc import parse_complex, scat, tc

    case = workloads.build("tc-square", SEED, tiny=True)[0]
    K = parse_complex(case.text)
    good = check_operation(case, tc(K), scat(K), [("tc", True, [])])
    assert good == []
    wrong = workloads.Case(case.name, case.text, True, 1, 1)
    assert check_operation(wrong, tc(K), scat(K), []) == ["tc = 2, pinned 1"]
    rejected = check_operation(case, tc(K), scat(K), [("tc", False, ["bad witness"])])
    assert rejected == ["tc certificate rejected: bad witness"]


def test_core_loop_matches_known_complexes():
    from gate import core_is_one_vertex

    assert core_is_one_vertex([{"a", "b", "c"}, {"c", "d"}])
    assert not core_is_one_vertex([{"a", "b"}, {"b", "c"}, {"a", "c"}])
    assert not core_is_one_vertex([{"a"}, {"b"}])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "tc-square", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
