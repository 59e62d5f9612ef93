import numpy as np
import pytest

import vexleb as vx
from vexleb import conditions
from vexleb import space as space_module
from vexleb.scenario import CONDITIONS

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
    calls = dict.fromkeys(PAIR_FUNCTIONALS, 0)
    for name in PAIR_FUNCTIONALS:
        def counted(*args, _fn=getattr(conditions, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(conditions, name, counted)
    tags = list(CONDITIONS)
    with pytest.warns(UserWarning):  # the order field leaves the stated regime
        reports = sweep_scenario(tags).materialize().evaluate_conditions()
    assert list(reports) == tags
    assert calls == dict.fromkeys(PAIR_FUNCTIONALS, 1)


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
    sweep = space_module._geometry_sweep

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(space_module, "_geometry_sweep", counted)
    mat = sweep_scenario(["distance-ball", "distance-tail"]).materialize()
    mat.evaluate_conditions()
    mat.geometry_summary()
    assert len(calls) == 1
