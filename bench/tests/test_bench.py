"""Tests of the benchmark's own code: span arithmetic, wrapper install and
restore, the output checks, and seeding.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run_bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from drsubmax import analysis, optimizers  # noqa: E402
from drsubmax.geometry import Polytope, lmo, project  # noqa: E402
from drsubmax.objectives import generate_nqp  # noqa: E402
from drsubmax.oracles import NoiseModel  # noqa: E402
from drsubmax.optimizers import MomentumRule, RunConfig  # noqa: E402


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("optimizers.trial", 0.0, 10.0),          # 0
        _span("oracles.grad", 1.0, 4.0, parent=0),     # 1
        _span("objectives.grad", 2.0, 3.5, parent=1),  # 2
        _span("geometry.lmo", 5.0, 9.0, parent=0),     # 3
        _span("geometry.lmo", 20.0, 21.0),             # 4: a root of its own
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 4.0, 1.0])
    summary = spans.layer_summary(tree)
    assert summary["geometry.lmo"]["calls"] == 2
    assert summary["geometry.lmo"]["self_s"] == pytest.approx(5.0)
    assert summary["optimizers.trial"]["s"] == pytest.approx(10.0)
    assert summary["oracles.grad"]["self_s"] == pytest.approx(1.5)


def test_repeat_frac_compares_within_a_trial():
    def lmo_span(parent, vertex):
        s = _span("geometry.lmo", 0.0, 0.0, parent)
        s.payload = (None, None, np.array(vertex, dtype=float))
        return s

    tree = [
        _span("optimizers.trial", 0.0, 1.0),
        lmo_span(0, [1, 0]), lmo_span(0, [1, 0]), lmo_span(0, [0, 1]),
        _span("optimizers.trial", 1.0, 2.0),
        lmo_span(4, [0, 1]), lmo_span(4, [0, 1]),
    ]
    # trial 0: one repeat of two comparisons; trial 1: one of one.  The
    # first call of trial 1 is not compared with the last of trial 0.
    assert spans.repeat_frac(tree) == pytest.approx(2 / 3)


def _current_targets():
    out = []
    for _, owner_path, attr in spans.TARGETS:
        out.append(vars(spans._owner(owner_path))[attr])
    return out


def test_wrappers_record_and_restore_originals():
    before = _current_targets()
    obj = generate_nqp(3, 4, 2, -1.0, 0.0)
    cfg = RunConfig("scg", T=3, momentum_rule=MomentumRule("alpha", 0.5))
    tracer = spans.Tracer()
    with tracer:
        assert _current_targets() != before
        analysis.approx_opt(obj, n_runs=1, iterations=3, noise=NoiseModel.clipped_gaussian(0.1))
        optimizers.run_trial(obj, NoiseModel.none(), cfg)
    after = _current_targets()
    assert all(a is b for a, b in zip(after, before))
    assert optimizers.lmo is lmo and optimizers.project is project

    names = [s.name for s in tracer.spans]
    assert names.count("analysis.approx_opt") == 1
    assert names.count("optimizers.trial") == 2
    assert names.count("geometry.lmo") == 6
    for i, s in enumerate(tracer.spans):
        if s.name in ("geometry.lmo", "oracles.grad", "objectives.value"):
            assert tracer.spans[s.parent].name == "optimizers.trial", (i, s.name)
        if s.name == "objectives.grad":
            assert tracer.spans[s.parent].name == "oracles.grad"
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrapper_restores_after_an_exception_and_marks_the_span():
    tracer = spans.Tracer()
    poly = Polytope([[1.0, 1.0]], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        with tracer:
            optimizers.lmo(poly, [1.0, 2.0, 3.0])
    assert optimizers.lmo is lmo
    assert [(s.name, s.error) for s in tracer.spans] == [("geometry.lmo", True)]


def test_lmo_check_accepts_the_oracle_and_rejects_a_wrong_vertex():
    obj = generate_nqp(5, 8, 4, -1.0, 0.0)
    poly = obj.polytope
    g = np.random.default_rng(0).standard_normal(poly.dim)
    v = lmo(poly, g)
    bad, gap = checks.check_lmo(poly, g, v)
    assert bad is None and abs(gap) < 1e-9
    assert "suboptimal" in checks.check_lmo(poly, g, np.zeros(poly.dim))[0]
    assert "violates" in checks.check_lmo(poly, g, poly.upper.copy())[0]


def test_projection_check_accepts_the_oracle_and_rejects_a_wrong_point():
    obj = generate_nqp(5, 8, 4, -1.0, 0.0)
    poly = obj.polytope
    y = np.full(poly.dim, 2.0)
    x = project(poly, y)
    assert checks.check_projection(poly, y, x)[0] is None
    assert checks.check_projection(poly, x, x) == (None, 0.0)
    # feasible but not the nearest point
    assert "VI certificate" in checks.check_projection(poly, y, 0.5 * x)[0]
    assert "violates" in checks.check_projection(poly, y, np.clip(y, 0.0, 1.0))[0]


def test_distinct_values_guard():
    assert checks.check_distinct([1.0, 1.0, 2.0], "b") is None
    assert "same value" in checks.check_distinct([1.5, 1.5], "b")


def test_pipeline_output_check(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "battery.csv").write_text(
        "run_id,algorithm,t,f_true,f_running_avg\n"
        "0,scg,1,1.0,1.0\n0,scg,2,2.0,1.5\n1,scg,1,1.0,1.0\n1,scg,2,3.0,2.0\n")
    (out / "report.txt").write_text("c1_shared: 0.8\nviolation theorem4: rate=0\n")
    assert checks.pipeline_outputs(str(out), runs=2, T=2) == ([2.0, 3.0], [])
    _, errors = checks.pipeline_outputs(str(out), runs=3, T=2)
    assert errors
    (out / "report.txt").write_text("c1_shared: 0.8\n")
    assert "violation" in checks.pipeline_outputs(str(out), runs=2, T=2)[1][0]


def test_workload_seed_changes_the_instances(tmp_path):
    assert workloads.instance_seeds(123, 3)[0] == 123
    assert workloads.instance_seeds(123, 3) == workloads.instance_seeds(123, 3)
    assert not set(workloads.instance_seeds(123, 4)) & set(workloads.instance_seeds(124, 4))

    scg = workloads.WORKLOADS["scg-100x50"]
    first = scg.setup(123, 2, str(tmp_path))
    again = scg.setup(123, 2, str(tmp_path))
    other = scg.setup(124, 2, str(tmp_path))
    for (obj, _, cfg), (obj_again, _, _), (obj_other, _, cfg_other) in zip(first, again, other):
        assert np.array_equal(obj.h_matrix, obj_again.h_matrix)
        assert not np.array_equal(obj.h_matrix, obj_other.h_matrix)
        assert cfg.master_seed != cfg_other.master_seed

    pipe = workloads.WORKLOADS["pipeline-10x5"]
    problems = []
    for seed in (11, 12):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for _, configs in pipe.setup(seed, 3, str(workdir)):
            for path, _ in configs:
                with open(path) as fh:
                    cfg = json.load(fh)
                assert cfg["workers"] == 1
                problems.append(cfg["problem"]["seed"])
    half = len(problems) // 2
    assert not set(problems[:half]) & set(problems[half:])


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run_bench.per_layer_names()
    assert all(m["unit"] == run_bench.per_layer_unit(m["name"]) for m in spec["per_layer"])
