"""Smoke test of the benchmark harness at tiny resolutions.

    python -m pytest perfbench/test_smoke.py -q

Kept outside ``tests/`` so the tier-1 suite does not run it.  It runs the
harness end to end on a tiny workload (about 20 s), in both trace modes,
and checks the reference comparison, the span arithmetic and that
``spec.py`` covers the workloads and metrics named in ``BENCHMARK.json``.
"""
import copy
import json
import re
import statistics
import subprocess
import sys

import pytest

import run
import spans
import spec

TINY = (("scenarios/power_pair_bounded.json", (16, 32, 64)),
        ("scenarios/log_pair_maximal.json", (16, 32, 64)),
        ("perfbench/scenarios/condition_sweep.json", (16, 32, 64)))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The tiny workload registered with the harness, with reference
    reports written at the reference seed and output kept in a temp dir."""
    tmp = tmp_path_factory.mktemp("bench")
    patch = pytest.MonkeyPatch()
    patch.setattr(run, "WORKLOADS", {**run.WORKLOADS, "tiny": TINY})
    patch.setattr(run, "REFERENCE", tmp / "reference")
    patch.setattr(run, "OUT", tmp / "out")
    for path, res in TINY:
        subprocess.run(
            [sys.executable, "-m", "vexleb.cli", "run", str(run.ROOT / path),
             "--resolutions", ",".join(map(str, res)), "--seed", str(spec.REFERENCE_SEED),
             "--format", "json", "--out-dir", str(tmp / "reference" / "tiny")],
            env={**run._child_env(), "PYTHONPATH": str(run.ROOT / "src")},
            check=True, capture_output=True)
    yield tmp
    patch.undo()


def test_untraced_run_reports_end_to_end_metrics(tiny):
    result = run.measure("tiny", seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == spec.MIN_PASSES * len(TINY)
    assert len(result["samples"]["setup_s"]) == spec.SETUP_SAMPLES + spec.MIN_PASSES
    assert len(result["samples"]["run_s"]) == spec.MIN_PASSES
    assert list(result["metrics"]) == [m["name"] for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    # two kernel timings per pass; times are scaled to the reference speed
    kernel_s = result["samples"]["kernel_s"]
    assert len(kernel_s) == 2 * spec.MIN_PASSES
    scale = spec.CAL_REF_S / statistics.mean(kernel_s)
    assert result["metrics"]["setup_s"]["value"] == \
        pytest.approx(min(result["samples"]["setup_s"]) * scale)
    assert result["metrics"]["run_s"]["value"] == \
        pytest.approx(statistics.median(result["samples"]["run_s"]) * scale)


def test_traced_run_reports_per_layer_metrics(tiny):
    result = run.measure("tiny", seed=spec.REFERENCE_SEED, seconds=0, trace=True)
    assert result["correct"] and result["attempted"] == 2 * len(TINY)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(values) == [m["name"] for m in spec.PER_LAYER]
    n_res = sum(len(res) for _, res in TINY)
    # the top resolution is materialized once more before the study
    assert values["scenario.materialize_calls"] == n_res + len(TINY)
    assert values["space.geometry_calls"] == n_res + len(TINY)
    assert values["space.build_calls"] == n_res + len(TINY)
    # names imported into other modules are traced too: empirical_ratio is
    # called through vexleb.scenario, luxemburg_norm through vexleb.verify
    assert values["verify.probes"] > 0
    assert values["norms.luxemburg_calls"] == 2 * values["verify.probes"] - values["verify.discarded"]
    # one operator call per kept probe: the power pair's ball potential, the
    # log pair's maximal function
    assert values["operators.ball_potential_calls"] > 0
    assert values["operators.maximal_function_calls"] > 0
    assert values["operators.ball_potential_calls"] + values["operators.maximal_function_calls"] \
        == values["verify.probes"] - values["verify.discarded"]
    # power pair: 2 tags from 3 halves; log pair 1 of 1; 17 tags of 25 on the sweep
    assert values["conditions.useful_frac"] == pytest.approx(4 * (2 + 1 + 17) / (4 * (3 + 1 + 25)))
    assert values["report.bytes"] > 0 and values["trace.spans"] > 0
    # about a microsecond per span, far below the pass time
    assert 0 < values["trace.overhead_s"] < 1e-4 * values["trace.spans"]
    trace_file = tiny / "out" / "trace-tiny-seed0.jsonl"
    first = json.loads(trace_file.read_text().splitlines()[0])
    assert first["name"] == "cli.run" and first["parent"] is None


def test_reference_check_uses_tolerance_and_seed(tiny):
    ref = json.loads((tiny / "reference" / "tiny" / "power_pair_bounded.json").read_text())
    assert run.compare_report(copy.deepcopy(ref), ref, check_ratios=True) == []

    near = copy.deepcopy(ref)
    near["conditions"][0]["value"] *= 1 + 1e-12
    assert run.compare_report(near, ref, check_ratios=True) == []

    off = copy.deepcopy(ref)
    off["study"]["condition_values"]["potential-ball"][1] *= 1 + 1e-6
    assert len(run.compare_report(off, ref, check_ratios=False)) == 1

    verdict = copy.deepcopy(ref)
    verdict["study"]["ratio_trend"] = "divergent" if ref["study"]["ratio_trend"] != "divergent" \
        else "bounded"
    assert len(run.compare_report(verdict, ref, check_ratios=False)) == 1

    ratio = copy.deepcopy(ref)
    ratio["study"]["ratios"][0] *= 2
    assert run.compare_report(ratio, ref, check_ratios=False) == []
    assert len(run.compare_report(ratio, ref, check_ratios=True)) == 1


def test_summarize_self_time_and_outermost_calls():
    # [id, parent, name, start_ns, end_ns, run_id, counts]
    trace = [
        [0, None, "cli.run", 0, 100, "r", None],
        [1, 0, "scenario.Materialized.evaluate_conditions", 10, 60, "r", {"scenario.tags": 1}],
        [2, 1, "conditions.potential_conditions", 20, 50, "r", {"conditions.halves": 2}],
        [3, 2, "exponents.local_exponents", 25, 35, "r", None],
        [4, 0, "space.space_from_spec", 70, 90, "r", None],
        [5, 4, "space.uniform_grid", 72, 88, "r", None],
    ]
    out = spans.summarize(trace)
    assert out["cli.self_s"] == pytest.approx(30e-9)
    assert out["scenario.self_s"] == pytest.approx(20e-9)
    assert out["conditions.self_s"] == pytest.approx(20e-9)
    assert out["exponents.self_s"] == pytest.approx(10e-9)
    assert out["space.self_s"] == pytest.approx(20e-9)
    assert out["conditions.potential_conditions_s"] == pytest.approx(30e-9)
    # uniform_grid nested in space_from_spec is one build, not two
    assert out["space.build_calls"] == 1 and out["space.build_s"] == pytest.approx(20e-9)
    assert out["conditions.useful_frac"] == 0.5


def test_spec_covers_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert list(spec.WORKLOADS) == [w["name"] for w in bench["workloads"]]
    assert list(spec.TARGETS) == [m["name"] for m in bench["per_layer"]]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in bench[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
