"""What the benchmark runs and what it reports.

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units, directions and bounds; this module reads them
from there and adds what that file cannot hold: each workload's scenario
files and resolutions, how per-layer metrics are gathered from spans, and
for each per-layer metric the end-to-end metric it should move and the
workloads where it should move it.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = _BENCH["run_seconds"]
END_TO_END = _BENCH["end_to_end"]   # [{"name", "unit", "better", "bound"}]
PER_LAYER = _BENCH["per_layer"]     # [{"name", "unit", "better"}]

# Ratios depend on the probe seed; the reference reports were written at
# this seed, so ratios are compared only on runs made with it.
REFERENCE_SEED = 0

# Condition values, ratios and geometry constants must match the reference
# reports to this relative tolerance.  It sits two orders above the
# Luxemburg bisection tolerance (1e-10), so a faster norm or a reordered sum
# passes and a changed result does not.  Verdicts must match exactly.
REL_TOL = 1e-8

# Each pass of a trace-0 run is timed on its own and ``run_s`` is their
# median.  The shared machine's speed drifts over minutes, and single passes
# of the same work differ by up to 50%, so a run holds many short passes:
# the resolutions below keep one pass at 4-5 s on a 2-CPU machine, and a run
# of ``RUN_SECONDS`` holds 5-7 of them.  At least this many run, and their
# report sets are compared byte for byte.  Cut into runs, long sequences of
# condition-sweep passes gave run spreads of 9-13% for the median of 5-8
# passes and 8-22% for their minimum; scaling by the calibration kernel
# (``calibrate.py``, ``CAL_REF_S`` below) takes out most of the drift.
MIN_PASSES = 3

# Set-up is timed in this many fresh processes, after one untimed warm-up
# process that compiles the bytecode and fills the file cache, and again in
# every pass process, so the samples span the whole run.  ``setup_s`` is
# their minimum: on a shared 2-CPU machine the median of 30 samples moved
# by 20% from one minute to the next while the minimum moved by 5%, and
# samples taken in one burst can all fall in a slow minute.
SETUP_SAMPLES = 5

# Mean time of ``calibrate.kernel()`` in a pass process on the machine of
# ``BENCH_baseline.json`` (the ``kernel_s`` samples that run.py prints).
# ``setup_s`` and ``run_s`` are scaled by it over the run's mean kernel
# time, so they read as seconds on that machine at its usual speed.
CAL_REF_S = 0.136

# ``baseline.py`` makes this many trace-0 runs per workload, seeds 0, 1, ...
BASELINE_RUNS = 10

# Scenario files (relative to the checkout root) and resolutions of each
# workload named in BENCHMARK.json.
WORKLOADS = {
    "probe-study": (("scenarios/power_pair_bounded.json", (64, 96, 128)),
                    ("scenarios/log_pair_maximal.json", (64, 96, 128))),
    "fine-grid": (("scenarios/hardy_unit.json", (256, 1024, 2048)),),
    "condition-sweep": (("perfbench/scenarios/condition_sweep.json", (256, 512, 1024)),),
}

CONDITION_FUNCTIONALS = (
    "hardy_condition", "hardy_tail_condition", "potential_conditions",
    "distance_potential_conditions", "radial_condition", "variable_order_conditions",
    "maximal_singular_conditions", "annulus_weight_comparison", "muckenhoupt_ar",
)

# Traced spans group into these timed entry points: ``<key>_s`` is the wall
# time inside their outermost calls and ``<key>_calls`` the number of those
# calls.  Each value names the wrapped functions as ``layer.function``.
TIMED = {
    "operators.ball_potential": ("operators.ball_potential",),
    "operators.maximal_function": ("operators.maximal_function",),
    "norms.luxemburg": ("norms.luxemburg_norm",),
    "space.geometry": ("space.geometry_constants",),
    "space.build": ("space.space_from_spec", "space.uniform_grid",
                    "space.cantor_space", "space.explicit_space"),
    "verify.empirical_ratio": ("verify.empirical_ratio",),
    "verify.refinement_study": ("verify.refinement_study",),
    "scenario.materialize": ("scenario.Scenario.materialize",),
    "scenario.evaluate_conditions": ("scenario.Materialized.evaluate_conditions",),
    "exponents.field": ("exponents.field_from_spec",),
    "report.write": ("report.write_json", "report.write_csv"),
    **{f"conditions.{fn}": (f"conditions.{fn}",) for fn in CONDITION_FUNCTIONALS},
}

# Layers in the order they are reported; ``cli`` is the root span.
LAYERS = ("space", "exponents", "norms", "operators", "conditions", "verify",
          "scenario", "report", "cli")

_P, _F, _C = "probe-study", "fine-grid", "condition-sweep"
_ALL = f"{_P},{_F},{_C}"
_RUN, _RUN_RSS = "run_s", "run_s,peak_rss_mb"

# For each per-layer metric: (the end-to-end metrics it should move, the
# workloads where it should move them).  The tracer's own cost should move
# nothing.
TARGETS = {
    **{f"{layer}.self_s": (_RUN, _ALL) for layer in LAYERS},
    **{f"operators.{name}": (_RUN, _P) for name in (
        "ball_potential_s", "ball_potential_calls", "maximal_function_s",
        "maximal_function_calls", "skipped")},
    **{f"norms.{name}": (_RUN, f"{_P},{_F}") for name in (
        "luxemburg_s", "luxemburg_calls", "bisection_iters", "unconverged")},
    **{f"space.{name}": (_RUN_RSS, f"{_F},{_C}") for name in (
        "geometry_s", "geometry_calls", "build_s", "build_calls")},
    **{f"conditions.{fn}_{suffix}": (_RUN, _C)
       for fn in CONDITION_FUNCTIONALS for suffix in ("s", "calls")},
    "conditions.useful_frac": (_RUN, _C),
    "verify.empirical_ratio_s": (_RUN, f"{_P},{_F}"),
    "verify.refinement_study_s": (_RUN, _ALL),
    "verify.probes": (_RUN, f"{_P},{_F}"),
    "verify.discarded": (_RUN, f"{_P},{_F}"),
    "scenario.materialize_calls": (_RUN, _ALL),
    "scenario.evaluate_conditions_s": (_RUN, _C),
    "exponents.field_s": (_RUN, _ALL),
    "report.write_s": (_RUN, _ALL),
    "report.bytes": (_RUN, _ALL),
    "run.cpu_s": (_RUN, _ALL),
    "trace.overhead_s": ("", ""),
    "trace.spans": ("", ""),
}
