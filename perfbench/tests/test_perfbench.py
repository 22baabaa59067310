"""Tests of the benchmark itself: smoke-size runs and seeded generation.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import instances  # noqa: E402
from workloads import WORKLOADS, first_round, schedule  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, seconds: str = "1") -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    lines, result = run_bench("chain", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name
    if trace == 0:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)


def test_small_exact_smoke_reports_quality_against_the_optimum():
    _, result = run_bench("small-exact", 1, seconds="3")
    assert result["correct"]
    for method in ("greedy", "bg", "eptas"):
        assert result["metrics"][f"{method}_size_over_opt"]["value"] >= 1.0


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _fingerprint(case):
    g = case.instance.graph
    return (g.n, tuple(sorted(g.edges)), case.instance.s, case.instance.t)


def _shape(case):
    g = case.instance.graph
    return (g.n, g.m, tuple(sorted(g.degree(v) for v in range(g.n))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_fixed_by_the_seed_and_differs_across_seeds(name):
    for fam in WORKLOADS[name].families:
        draws = range(4 * fam.per_round)
        a = [instances.make_case(fam, 7, d) for d in draws]
        assert [_fingerprint(c) for c in a] == [_fingerprint(instances.make_case(fam, 7, d)) for d in draws]
        b = [instances.make_case(fam, 8, d) for d in draws]
        assert [_fingerprint(c) for c in a] != [_fingerprint(c) for c in b]
        # every seed measures the same shapes, under another labelling
        assert [_shape(c) for c in a] == [_shape(c) for c in b]


def test_grid_mirror_images_keep_corners_and_row_major_ids():
    fam = WORKLOADS["cover"].families[0]
    for seed in range(6):
        inst = instances.make_case(fam, seed, 0).instance
        n = inst.graph.n
        assert (inst.s, inst.t) == (0, n - 1)
        assert all(v - u in (1, 5) for u, v in inst.graph.edges)


def test_every_op_of_a_round_has_a_first_round_instance():
    for workload in WORKLOADS.values():
        ops = next(schedule(workload))
        for method in workload.methods:
            assert sorted((fi, d) for fi, d, m in ops if m == method) == sorted(first_round(workload, method))


def test_chain_prediction_matches_the_package_reduction():
    from trackpaths.kernel import instance_lower_bound
    from trackpaths.reduction import reduce_all

    fam = WORKLOADS["chain"].families[0]
    for draw in range(4):
        case = instances.make_case(fam, 11, draw)
        reduced, trace = reduce_all(case.instance)
        assert reduced.graph.n == case.expect["n"]
        assert frozenset().union(*trace.origin_map) == case.expect["core"]
        assert instance_lower_bound(case.instance) == case.k


TRACER_PROBE = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import instances
from trackpaths import eptas
from workloads import WORKLOADS
del eptas.pi_subgraph  # as if a later change deleted it
from spans import Tracer
tracer = Tracer()
tracer.install()
fam = WORKLOADS["cover"].families[0]
for op_id, method in enumerate(("greedy", "bg")):
    case = instances.make_case(fam, 5, op_id)
    tracer.run_op(op_id, case.instance, lambda: instances.run_op(method, case, 5))
summary = tracer.summary()
assert summary["absent"] == ["eptas.pi_subgraph"], summary["absent"]
total_self = sum(summary["self_s"].values())
assert abs(total_self - summary["op_wall"]) < 1e-9 * max(1.0, summary["op_wall"]), (total_self, summary["op_wall"])
assert summary["calls"]["approx.approx_logn_weighted"] == 1
assert summary["calls"]["reduction.reduce_all"] >= 2
print("ok")
"""


def test_tracer_accounts_for_op_time_and_reports_deleted_functions_as_absent():
    code = TRACER_PROBE.format(bench=BENCH, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
