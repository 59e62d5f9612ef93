import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.errors import ValidationError
from test_space import line_spaces, sweep_threads, tied_spaces
from vexleb import conditions
from vexleb import scenario as scenario_module
from vexleb import space as space_module
from vexleb.scenario import CONDITIONS, Materialized
from vexleb.space import _BLOCK_ROWS

PAIR_FUNCTIONALS = ("potential_conditions", "distance_potential_conditions",
                    "variable_order_conditions", "maximal_singular_conditions")


def sweep_scenario(tags):
    return vx.Scenario.from_dict({
        "name": "sweep",
        "space": {"generator": "cantor", "depth": 5},
        "exponents": {"p": {"kind": "exponent", "expr": "affine-in-dist(x0, 2, 0.5)"},
                      "alpha": {"kind": "alpha", "expr": "const 0.2"}},
        "weights": {"pair": {"family": "power-pair", "beta": 0.25}},
        "conditions": list(tags),
    })


def test_pair_tags_share_one_evaluation(monkeypatch):
    # each pair tag calls its functional once and asks only for its own half;
    # a half two tags read is shared through the space's memo
    halves = {name: [] for name in PAIR_FUNCTIONALS}
    for name in PAIR_FUNCTIONALS:
        def counted(*args, _fn=getattr(conditions, name), _name=name, **kwargs):
            halves[_name].append(tuple(kwargs["_halves"]))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conditions, name, counted)
    tags = list(CONDITIONS)
    with pytest.warns(UserWarning):  # the order field leaves the stated regime
        reports = sweep_scenario(tags).materialize().evaluate_conditions()
    assert list(reports) == tags
    # every pair's ball tag is listed before its tail tag
    assert halves == {name: [(0,), (1,)] for name in PAIR_FUNCTIONALS}


def test_local_exponents_computed_once_per_space():
    stored = []

    class Stores(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)
    sc = sweep_scenario(list(CONDITIONS))
    with pytest.warns(UserWarning):
        for n in (32, 64, 128):
            mat = sc.materialize(n)
            mat.space.__dict__["_local_memo"] = Stores()
            mat.evaluate_conditions()
    # once per space, though fifteen tags read them
    assert len(stored) == 3


def test_pair_halves_match_tags_listed_alone():
    tags = list(CONDITIONS)
    with pytest.warns(UserWarning):
        together = sweep_scenario(tags).materialize().evaluate_conditions()
        for tag in tags:
            alone = sweep_scenario([tag]).materialize().evaluate_conditions()[tag]
            rep = together[tag]
            assert (alone.name, alone.value, alone.argmax_t, alone.resolution) \
                == (rep.name, rep.value, rep.argmax_t, rep.resolution)
            assert np.array_equal(alone.ts, rep.ts) and np.array_equal(alone.curve, rep.curve)


@pytest.mark.parametrize("expr", ["const 1.5", "const(x0, 1.5)", "power-of-dist(x0, -0.5)",
                                  "log-power(x0, 0.5)"])
def test_radial_profile_is_the_field_at_radial_distances(expr):
    sc = vx.Scenario.from_dict({
        "name": "radial",
        "space": {"generator": "uniform-grid", "n": 64},
        "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
        "weights": {"v": {"kind": "weight", "expr": expr},
                    "w": {"kind": "weight", "expr": "const(x0, 1)"}},
        "operator": "maximal",
        "conditions": ["radial-maximal"],
    })
    mat = sc.materialize()
    t = mat.space.radial_distances()
    assert np.array_equal(mat.v_profile(t), mat.v.values)
    assert np.array_equal(mat.w_profile(t), mat.w.values)
    assert np.isfinite(mat.evaluate_conditions()["radial-maximal"].value)


def test_geometry_sweep_runs_once_per_resolution(monkeypatch):
    # the distance pair and the geometry report share one row sweep
    calls = []
    sweep = space_module._sweep_candidates

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(space_module, "_sweep_candidates", counted)
    mat = sweep_scenario(["distance-ball", "distance-tail"]).materialize()
    mat.evaluate_conditions()
    mat.geometry_summary()
    assert len(calls) == 1


@st.composite
def shared_pass_cases(draw):
    """A line space, a tied table or a grid whose size puts a row block edge
    just before or after a multiple of ``_BLOCK_ROWS``, with a scenario
    listing ``muckenhoupt`` over random weights on it."""
    sizes = st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
    sp = draw(st.one_of(line_spaces(sizes), tied_spaces(sizes), sizes.map(vx.uniform_grid)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.01, 10.0, sp.n) * draw(st.sampled_from([1.0, 1e-5]))
    sc = vx.Scenario.from_dict({
        "name": "shared", "space": {"generator": "uniform-grid", "n": 2},
        "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
        "weights": {"v": {"kind": "weight", "expr": "const 1"},
                    "w": {"kind": "weight", "values": w.tolist()}},
        "conditions": ["muckenhoupt", "annulus-comparison"],
        "params": {"r": draw(st.sampled_from([1.01, 1.5, 2.0, 3.7])),
                   "A": draw(st.sampled_from([1.5, 2.0, 3.0]))}})
    return sc, sp


def check_shared_pass(case, gate=None):
    # the geometry report and the Muckenhoupt value of one shared pass, its
    # geometry sweep gated at ``gate``, are those of separate
    # geometry_constants and muckenhoupt_ar calls, bit for bit, whichever
    # the materialization is asked for first
    sc, sp = case
    r, A = sc.params["r"], sc.params["A"]
    report = vx.geometry_constants(sp, A=A)
    for geometry_first in (True, False):
        mat = Materialized(sc, sp)
        with sweep_threads(gate):
            if geometry_first:
                geometry, reports = mat.geometry_summary(), mat.evaluate_conditions()
            else:
                reports = mat.evaluate_conditions()
                geometry = mat.geometry_summary()
        assert repr(mat._sorted_pass[0]) == repr(report)
        assert geometry["doubling_c"] == report.doubling_c
        assert repr(reports["muckenhoupt"].value) == repr(vx.muckenhoupt_ar(sp, mat.w, r))


@given(shared_pass_cases())
@settings(max_examples=40, deadline=None)
def test_shared_pass_equals_separate_calls(case):
    check_shared_pass(case)


@given(shared_pass_cases())
@settings(max_examples=40, deadline=None)
def test_threaded_shared_pass_equals_separate_calls(case):
    # the shared pass two threads wide, against separate calls on one
    check_shared_pass(case, gate=0)


@pytest.mark.parametrize("geometry_first", [True, False])
def test_muckenhoupt_reads_the_geometry_sweep_blocks(monkeypatch, geometry_first):
    # one full sorted-row pass serves the geometry report and the Muckenhoupt
    # value; the basepoint row is sorted on its own
    rows, sort = Counter(), space_module._sorted_rows

    def counted(space, start, stop):
        rows.update(range(start, stop))
        return sort(space, start, stop)

    monkeypatch.setattr(space_module, "_sorted_rows", counted)
    mat = sweep_scenario(["muckenhoupt", "annulus-comparison", "hardy"]).materialize()
    if geometry_first:
        mat.geometry_summary()
    mat.evaluate_conditions()
    mat.geometry_summary()
    assert rows == Counter(range(mat.space.n)) + Counter([mat.space.x0])


@pytest.mark.parametrize("field, space", [
    ("space.points[1].zz_unknown", {"points": [{"coord": 0.0}, {"coord": 1.0, "zz_unknown": 1}],
                                    "metric": "euclidean1d"}),
    ("space.points", {"points": [{"coord": 0.0}, {"coord": 0.0}], "metric": "euclidean1d"}),
    ("space.mu", {"points": [{"coord": 0.0}, {"coord": 1.0}], "metric": "euclidean1d",
                  "mu": [1.0, -1.0]}),
])
def test_explicit_space_checked_at_load(field, space):
    # a points space is checked by from_dict itself, as a generator space is,
    # not first when it is materialized
    data = {"name": "points", "space": space,
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": "const 1"}},
            "conditions": ["hardy"], "resolutions": [4]}
    with pytest.raises(ValidationError, match=rf"^scenario\.{re.escape(field)}"):
        vx.Scenario.from_dict(data)


def test_explicit_space_built_once(monkeypatch):
    # the points space from_dict checks is the one every materialization
    # reads: a run builds it once, not once more per resolution
    data = {"name": "points", "space": {"points": [{"coord": float(c)} for c in range(5)],
                                        "metric": "euclidean1d"},
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": "const 1"}},
            "conditions": ["hardy"], "resolutions": [4, 8]}
    sc = vx.Scenario.from_dict(data)
    monkeypatch.setattr(scenario_module, "space_from_spec", None)
    assert sc.materialize(4).space is sc.space
    assert sc.materialize(8).space is sc.space
