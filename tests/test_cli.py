import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.cli import emit_report, load_scenario, main, run
from vexleb.errors import ValidationError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, data, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL = {
    "space": {"generator": "uniform-grid", "n": 32},
    "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
    "weights": {"v": {"kind": "weight", "expr": "const 1"},
                "w": {"kind": "weight", "expr": "const 1"}},
    "conditions": ["hardy"],
}


class TestLoadScenario:
    def test_minimal_gets_defaults(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert sc.seed == 0
        assert sc.resolutions == [64, 256, 1024]
        assert sc.name == "s"

    def test_missing_weight_names_field(self, tmp_path):
        bad = {k: v for k, v in MINIMAL.items()}
        bad["weights"] = {"v": {"kind": "weight", "expr": "const 1"}}
        with pytest.raises(ValidationError, match="weights.w"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"space": \n}')
        with pytest.raises(ValidationError, match="line"):
            load_scenario(path)

    def test_incompatible_pair_names_both_tags(self, tmp_path):
        bad = dict(MINIMAL)
        bad["operator"] = "maximal"
        with pytest.raises(ValidationError) as err:
            load_scenario(write_scenario(tmp_path, bad))
        assert "hardy" in str(err.value) and "maximal" in str(err.value)

    def test_unknown_condition(self, tmp_path):
        bad = dict(MINIMAL)
        bad["conditions"] = ["bogus"]
        with pytest.raises(ValidationError, match="bogus"):
            load_scenario(write_scenario(tmp_path, bad))

    @pytest.mark.parametrize("changes, named", [
        ({"condtions": ["hardy"], "seeed": 1}, ["scenario.condtions", "scenario.seeed"]),
        ({"params": {"A": 2.0, "AA": 3.0, "kernl": {}}},
         ["scenario.params.AA", "scenario.params.kernl"]),
    ])
    def test_unknown_keys_named(self, tmp_path, capsys, changes, named):
        path = write_scenario(tmp_path, dict(MINIMAL, **changes))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in named)

    def test_golden_log_pair_parses_to_profiles(self):
        sc = load_scenario(SCENARIOS / "log_pair_maximal.json")
        mat = sc.materialize(64)
        t = np.array([0.25])
        assert mat.v_profile(t)[0] == pytest.approx(0.5)
        assert mat.w_profile(t)[0] == pytest.approx(0.5 * np.log(8.0))

    def test_roundtrip(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, MINIMAL))
        again = vx.Scenario.from_dict(sc.to_dict())
        assert again.to_dict() == sc.to_dict()


class TestRun:
    def test_bounded_study_exit_zero(self, tmp_path):
        data = dict(MINIMAL)
        data["operator"] = "hardy"
        data["resolutions"] = [32, 64, 128]
        sc = load_scenario(write_scenario(tmp_path, data))
        code = run(sc, tmp_path / "out")
        assert code == 0
        rep = json.loads((tmp_path / "out" / "s.json").read_text())
        assert rep["study"]["condition_trends"]["hardy"] == "bounded"

    def test_inadmissible_pair_exit_two(self, tmp_path, capsys):
        # p = 2, alpha = 0.25: beta outside [0, 1/p') and gamma below its
        # minimum beta are refused, each naming the pair field
        for pair, refused in (({"beta": 0.6}, "beta=0.6 outside [0, 1/p') = [0, 0.5)"),
                              ({"beta": 0.25, "gamma": 0.1}, "gamma=0.1 below minimum 0.25")):
            data = {
                "space": {"generator": "uniform-grid", "n": 32},
                "exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                              "alpha": {"kind": "alpha", "expr": "const 0.25"}},
                "weights": {"pair": {"family": "power-pair", **pair}},
                "conditions": ["radial-potential"],
                "resolutions": [16, 32, 64],
            }
            sc = load_scenario(write_scenario(tmp_path, data))
            assert run(sc, tmp_path / "out") == 2
            assert capsys.readouterr().err \
                == f"error: scenario.weights.pair: weight pair inadmissible: {refused}\n"

    @pytest.mark.parametrize("operator, w", [("maximal", "power-of-dist(x0, 0.5)"),
                                             ("hardy", "power-of-dist(x0, -0.5)")])
    def test_conjugate_probes_near_p_one_exit_zero(self, tmp_path, operator, w):
        # at p = 1.001 the probe family's conjugate rows (the norm weight to
        # the power -p' = -1001) overflow near the basepoint
        data = dict(MINIMAL, operator=operator, conditions=[], resolutions=[32, 48, 64],
                    exponents={"p": {"kind": "exponent", "expr": "const 1.001"}},
                    weights={"v": {"kind": "weight", "expr": "const 1"},
                             "w": {"kind": "weight", "expr": w}})
        path = write_scenario(tmp_path, data)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        ratios = json.loads((tmp_path / "o" / "s.json").read_text())["study"]["ratios"]
        assert all(np.isfinite(r) and r > 0 for r in ratios)

    @pytest.mark.parametrize("p, v, w", [
        ("const 2", "const 8.98846567431158e307", "const 8.98846567431158e307"),
        ("affine-in-dist(x0, 2, 1)", "const 1", "const 1e308")], ids=["2^1023", "1e308"])
    def test_near_maximal_weights_exit_zero(self, tmp_path, p, v, w):
        # a weight near the float maximum times a probe above 1 overflows
        # unless the weighted block is scaled down by a power of four
        def ratios(v, w, out):
            data = dict(MINIMAL, operator="maximal", conditions=[], resolutions=[32, 48, 64],
                        exponents={"p": {"kind": "exponent", "expr": p}},
                        weights={"v": {"kind": "weight", "expr": v},
                                 "w": {"kind": "weight", "expr": w}})
            path = write_scenario(tmp_path, data)
            assert main(["run", str(path), "--out-dir", str(tmp_path / out)]) == 0
            return json.loads((tmp_path / out / "s.json").read_text())["study"]["ratios"]

        got = ratios(v, w, "o")
        assert all(np.isfinite(r) and r > 0 for r in got)
        if v == w:
            # v = w = 2**1023 scales both norms by the same power of four
            assert got == ratios("const 1", "const 1", "unit")

    def test_hardy_weight_whose_reciprocal_overflows_exit_two(self, tmp_path, capsys):
        # w = d0**150 falls below 1e-308 at the floored basepoint of 64 points;
        # a Hardy ratio reads 1/w as its norm weight, so the run names w
        data = dict(MINIMAL, operator="hardy", conditions=[], resolutions=[32, 48, 64],
                    weights={"v": {"kind": "weight", "expr": "const 1"},
                             "w": {"kind": "weight", "expr": "power-of-dist(x0, 150)"}})
        path = write_scenario(tmp_path, data)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: scenario.weights.w: 1/w overflows, and a "
                                           "Hardy ratio reads it as its norm weight\n")

    def test_point_beyond_finite_diameter(self, tmp_path):
        # the point at d0 = 2 > L lies outside every capped region: the run
        # succeeds and reads as the space without it
        def scenario(coords, name):
            return dict(MINIMAL, name=name, conditions=["hardy", "hardy-tail"], resolutions=[4],
                        space={"points": [{"id": i, "coord": c} for i, c in enumerate(coords)],
                               "metric": "euclidean1d", "mu": [0.25] * len(coords), "L": 1.0})

        for coords, name in (([0.0, 0.5, 1.0, 2.0], "beyond"), ([0.0, 0.5, 1.0], "inside")):
            path = write_scenario(tmp_path, scenario(coords, name), f"{name}.json")
            assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        beyond, inside = (json.loads((tmp_path / "o" / f"{name}.json").read_text())
                          for name in ("beyond", "inside"))
        values = [[c["value"] for c in rep["conditions"]] for rep in (beyond, inside)]
        assert values[0] == values[1] == pytest.approx([0.125, 0.125])
        for tag in ("hardy", "hardy-tail"):
            assert ((tmp_path / "o" / f"beyond_{tag}.csv").read_bytes()
                    == (tmp_path / "o" / f"inside_{tag}.csv").read_bytes())

    def test_explicit_space_without_L(self, tmp_path):
        # without L the space is a truncated infinite model whose cap radius
        # is its largest distance: it reads as the same space with L = 2
        coords = [0.0, 0.5, 1.0, 2.0]
        space = {"points": [{"id": i, "coord": c} for i, c in enumerate(coords)],
                 "metric": "euclidean1d", "mu": [0.25] * 4}
        for name, extra in (("capped", {}), ("finite", {"L": 2.0})):
            data = dict(MINIMAL, name=name, conditions=["hardy", "hardy-tail"], resolutions=[4],
                        space=dict(space, **extra))
            path = write_scenario(tmp_path, data, f"{name}.json")
            assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0

        def conditions(name):
            rep = json.loads((tmp_path / "o" / f"{name}.json").read_text())
            return [(c["name"], c["value"], c["argmax_t"]) for c in rep["conditions"]]

        assert conditions("capped") == conditions("finite")
        for tag in ("hardy", "hardy-tail"):
            assert ((tmp_path / "o" / f"capped_{tag}.csv").read_bytes()
                    == (tmp_path / "o" / f"finite_{tag}.csv").read_bytes())

    def test_geometry_only_exit_zero(self, tmp_path):
        data = {"space": {"generator": "uniform-grid", "n": 32},
                "conditions": [], "resolutions": [16, 32]}
        sc = load_scenario(write_scenario(tmp_path, data))
        assert run(sc, tmp_path / "out") == 0
        rep = json.loads((tmp_path / "out" / "s.json").read_text())
        assert rep["conditions"] == [] and rep["study"] is None
        assert rep["geometry"]["n"] == 32

    def test_main_entrypoint(self, tmp_path):
        path = write_scenario(tmp_path, dict(MINIMAL, resolutions=[16, 32, 64]))
        code = main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--resolutions", "16,32,64", "--seed", "7", "--format", "json"])
        assert code == 0
        rep = json.loads((tmp_path / "o" / "s.json").read_text())
        assert rep["meta"]["seed"] == 7

    @pytest.mark.parametrize("resolutions", ["1024,256,64", "64,64,128"])
    def test_bad_resolutions_option_named(self, tmp_path, capsys, resolutions):
        path = write_scenario(tmp_path, MINIMAL)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--resolutions", resolutions]) == 2
        assert "--resolutions: must be strictly increasing" in capsys.readouterr().err

    def test_non_integer_resolutions_option_exit_two(self, tmp_path, capsys):
        path = write_scenario(tmp_path, MINIMAL)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--resolutions", "64,abc"]) == 2
        assert capsys.readouterr().err \
            == "error: --resolutions expects comma-separated integers\n"

    def test_params_written_end_to_end(self, tmp_path):
        # eps and a power-dist kernel whose modulus is a table: the singular
        # operator reads them, and the report's scenario holds them as given
        params = {"eps": 0.02, "kernel": {
            "type": "power-dist", "exponent": -1.0,
            "omega": {"type": "table", "t": [0.0, 0.5, 1.0], "value": [0.0, 0.4, 1.0]}}}
        data = dict(json.loads((SCENARIOS / "hilbert_unit.json").read_text()),
                    params=params, resolutions=[32, 48, 64])
        assert data["operator"] == "singular" and data["space"]["generator"] == "uniform-grid"
        path = write_scenario(tmp_path, data)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--format", "json"]) == 0
        rep = json.loads((tmp_path / "o" / "hilbert_unit.json").read_text())
        assert rep["meta"]["scenario"]["params"] == params
        assert rep["study"]["resolutions"] == [32, 48, 64]

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("case", ["not-utf8", "directory"])
    def test_unreadable_scenario_exit_two(self, tmp_path, capsys, case):
        path = tmp_path / "s.json"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(dict(MINIMAL, name="café"), ensure_ascii=False)
                             .encode("latin-1"))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", ["file", "under-file"])
    def test_out_dir_not_a_directory_exit_two(self, tmp_path, capsys, case):
        path = write_scenario(tmp_path, dict(MINIMAL, resolutions=[16, 32, 64]))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker if case == "file" else blocker / "o"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("fmt, taken", [("json", "s.json"), ("csv", "s_hardy.csv"),
                                            ("csv", "s_study.csv")])
    def test_report_path_is_a_directory_exit_two(self, tmp_path, capsys, fmt, taken):
        path = write_scenario(tmp_path, dict(MINIMAL, resolutions=[16, 32, 64]))
        (tmp_path / "o" / taken).mkdir(parents=True)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "o" / taken) in err

    @pytest.mark.parametrize("field, changes", [
        ("exponents", {"exponents": [], "conditions": []}),
        ("weights", {"weights": "log-pair"}),
        ("resolutions", {"resolutions": ["x"]}),
        ("resolutions", {"resolutions": 64}),
        ("resolutions", {"resolutions": [16.5, 32, 64]}),
        ("seed", {"seed": "x"}),
        ("params", {"params": 5}),
        ("space", {"space": "grid"}),
        ("weights.v", {"weights": {"v": "x", "w": {"kind": "weight", "expr": "const 1"}},
                       "conditions": ["radial-maximal"]}),
        ("weights.w", {"weights": {"v": {"kind": "weight", "expr": "const 1"},
                                   "w": {"kind": "weight", "expr": "power-of-dist(x0, abc)"}}}),
        ("exponents.p", {"exponents": {"p": {"kind": "exponent",
                                             "expr": "affine-in-dist(x0, a, b)"}}}),
        ("exponents.p", {"exponents": {"p": {"kind": "exponent",
                                             "expr": "power-of-dist(x0, 1, 2)"}}}),
        ("conditions", {"conditions": 5}),
        ("resolutions", {"resolutions": []}),
        ("weights.v", {"weights": {"v": {"kind": "weight", "values": ["a"] * 32},
                                   "w": {"kind": "weight", "expr": "const 1"}}}),
        ("weights.v", {"weights": {"v": {"kind": "weight", "values": [1.0] * 5},
                                   "w": {"kind": "weight", "expr": "const 1"}}}),
        ("exponents.p", {"exponents": {"p": {"kind": "exponent", "values": 2.0}}}),
        ("weights.pair.beta", {"weights": {"pair": {"family": "power-pair", "beta": "x"}}}),
        ("weights.pair.gamma", {"weights": {"pair": {"family": "power-pair", "gamma": "x"}}}),
        ("weights.pair.L", {"weights": {"pair": {"family": "log-pair", "L": "x"}}}),
        ("compose_hardy", {"compose_hardy": "false"}),
        ("params.eps", {"params": {"eps": "x"}}),
        ("params.A", {"params": {"A": "x"}}),
        ("params.kernel", {"params": {"kernel": {"type": "power-dist", "exponent": "x"}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert", "omega": 5}}}),
        ("params.require_monotone", {"params": {"require_monotone": "false"}}),
        ("params.a1", {"params": {"a1": True}}),
        ("params.r", {"params": {"r": [2]}}),
        ("params.A", {"params": {"A": 0.5}}),
        ("params.r", {"params": {"r": 0}, "conditions": ["muckenhoupt"]}),
        ("params.eps", {"params": {"eps": -1}, "operator": "singular", "conditions": []}),
        ("params.a1", {"params": {"a1": 0}, "conditions": ["annulus-comparison"]}),
        ("params.a1", {"params": {"a1": -1}, "conditions": ["annulus-comparison"]}),
        ("params.kernel", {"params": {"kernel": {"type": "explicit-table",
                                                 "table": [[0.0, 1.0], [1.0, 0.0]]}},
                           "operator": "singular", "conditions": []}),
        ("space.points", {"space": {"points": 5}}),
        ("space.points", {"space": {"points": [{"coord": "a"}, {"coord": 1.0}],
                                    "metric": "euclidean1d"}}),
        ("space.dist", {"space": {"points": [{"id": 0}, {"id": 1}], "dist": [0.0, 1.0, 1.0]}}),
        ("space.L", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                               "metric": "euclidean1d", "L": "big"}}),
        ("space.trunc_radius", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                                          "metric": "euclidean1d", "trunc_radius": "x"}}),
        ("space.mu", {"space": {"points": [{"coord": 0.0}, {"coord": 0.5}, {"coord": 1.0}],
                                "metric": "euclidean1d", "mu": [-1, 1, 1]}}),
        ("space.points", {"space": {"points": [{"coord": -1e308}, {"coord": 1e308}],
                                    "metric": "euclidean1d"}}),
        ("space.L", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                               "metric": "euclidean1d", "L": -1}}),
        ("space.trunc_radius", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                                          "metric": "euclidean1d", "trunc_radius": -1}}),
        # resolutions replace a generator's size, which is checked all the same
        ("space.n", {"space": {"generator": "uniform-grid", "n": "abc"}}),
        ("space.n", {"space": {"generator": "uniform_grid", "n": 1}}),
        ("space.depth", {"space": {"generator": "cantor", "depth": "x"}}),
        # unknown kernel keys are refused, not ignored
        ("params.kernel", {"params": {"kernel": {"type": "hilbert", "size_c": 2.0}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert", "s": 2.0}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert",
                                                 "omega": {"type": "power", "b": 1.0}}}}),
        # so are the keys the named type never reads
        ("params.kernel", {"params": {"kernel": {"type": "hilbert", "exponent": 2}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert", "table": [[0]]}}}),
        ("params.kernel", {"params": {"kernel": {"type": "power-dist", "exponent": 1,
                                                 "table": [[0]]}}}),
        ("params.kernel", {"params": {"kernel": {"type": "explicit-table", "table": [[0]],
                                                 "exponent": 1}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert",
                                                 "omega": {"type": "power", "a": 1.0,
                                                           "t": [0.5]}}}}),
        ("params.kernel", {"params": {"kernel": {"type": "hilbert",
                                                 "omega": {"type": "table", "t": [1.0],
                                                           "value": [1.0], "a": 1.0}}}}),
        # an explicit space of one point has no geometry to report
        ("space.points", {"space": {"points": [{"id": 0, "coord": 0.0}],
                                    "metric": "euclidean1d", "mu": [1.0]},
                          "resolutions": [4]}),
        # the probe generator takes no negative seed
        ("seed", {"seed": -3}),
        # a field whose values leave its domain is named
        ("exponents.p", {"exponents": {"p": {"kind": "exponent", "expr": "const 0.5"}}}),
        ("weights.w", {"weights": {"v": {"kind": "weight", "expr": "const 1"},
                                   "w": {"kind": "weight", "expr": "const 0"}}}),
        ("weights.pair", {"weights": {"pair": {"family": "log-pair", "L": 0.1}}}),
        ("weights.pair", {"weights": {"pair": {"family": "log-pair", "L": -1}}}),
        ("exponents.alpha", {"exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                                           "alpha": {"kind": "alpha", "expr": "const 0.6"}}}),
        # so is one whose expression overflows
        ("weights.v", {"weights": {"v": {"kind": "weight", "expr": "power-of-dist(x0, -400)"},
                                   "w": {"kind": "weight", "expr": "const 1"}}}),
        ("weights.pair", {"space": {"points": [{"coord": float(c)} for c in range(5)],
                                    "metric": "euclidean1d"},
                          "exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                                        "alpha": {"kind": "alpha", "expr": "const 0.25"}},
                          "weights": {"pair": {"family": "power-pair", "gamma": 1000}},
                          "conditions": ["radial-potential"], "resolutions": [5]}),
        # every mapping refuses a key it does not read: a generator reads its
        # size, a metric its table, a point its id and coordinate
        ("space.nn", {"space": {"generator": "uniform-grid", "n": 32, "nn": 3}}),
        ("space.L", {"space": {"generator": "cantor", "depth": 5, "L": 1.0}}),
        ("space.dist", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                                  "metric": "euclidean1d", "dist": [0.0, 1.0, 1.0, 0.0]},
                        "resolutions": [4]}),
        ("space.points[1].idd", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0, "idd": 1}],
                                           "metric": "euclidean1d"}, "resolutions": [4]}),
        ("space.points[0]", {"space": {"points": [0.0, {"coord": 1.0}],
                                       "metric": "euclidean1d"}, "resolutions": [4]}),
        ("weights.w: exprr", {"weights": {"v": {"kind": "weight", "expr": "const 1"},
                                          "w": {"kind": "weight", "expr": "const 1",
                                                "exprr": "const 2"}}}),
        ("exponents.p: knd", {"exponents": {"p": {"knd": "exponent", "expr": "const 2"}}}),
        ("weights.pair.betta", {"exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                                              "alpha": {"kind": "alpha", "expr": "const 0.25"}},
                                "weights": {"pair": {"family": "power-pair", "betta": 0.25}}}),
        ("weights.pair.beta", {"weights": {"pair": {"family": "log-pair", "beta": 0.25}}}),
        ("exponents.q", {"exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                                       "q": {"kind": "exponent", "expr": "const 2"}}}),
        ("weights.u", {"weights": {"v": {"kind": "weight", "expr": "const 1"},
                                   "w": {"kind": "weight", "expr": "const 1"},
                                   "u": {"kind": "weight", "expr": "const 1"}}}),
        # a pair family sets v and w, which were dropped when given beside it
        ("weights: give a pair or v and w", {"weights": {"pair": {"family": "log-pair"},
                                       "v": {"kind": "weight", "expr": "const 5"},
                                       "w": {"kind": "weight", "expr": "const 7"}}}),
        # an unhashable family is named, not a traceback
        ("weights.pair.family", {"weights": {"pair": {"family": [1]}}}),
        # a field's kind is its slot's: a kind-less zero weight is a weight
        ("weights.w", {"weights": {"v": {"expr": "const 1"}, "w": {"expr": "const 0"}}}),
        ("weights.w.kind", {"weights": {"v": {"kind": "weight", "expr": "const 1"},
                                        "w": {"kind": "exponent", "expr": "const 2"}}}),
        ("exponents.p.kind", {"exponents": {"p": {"kind": "weight", "expr": "const 2"}}}),
        # resolutions are positive, also where the space ignores them
        ("resolutions", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                                   "metric": "euclidean1d"}, "resolutions": [0]}),
        ("resolutions", {"space": {"points": [{"coord": 0.0}, {"coord": 1.0}],
                                   "metric": "euclidean1d"}, "resolutions": [-4]}),
        # a field spec reads its values or its expression, never both: the
        # expression was dropped without a word
        ("weights.w", {"space": {"points": [{"coord": float(c)} for c in range(3)],
                                 "metric": "euclidean1d"},
                       "weights": {"v": {"kind": "weight", "expr": "const 1"},
                                   "w": {"kind": "weight", "values": [1, 1, 1],
                                         "expr": "const 7"}},
                       "resolutions": [4]}),
        # every weight finite, their total not
        ("space.mu", {"space": {"points": [{"coord": float(c)} for c in range(1100)],
                                "metric": "euclidean1d", "mu": [1e306] * 1100}}),
        # a repeated id makes x0 ambiguous, and True == 1 would pick id 1
        ("space.points[2].id", {"space": {"points": [{"id": i, "coord": float(c)}
                                                     for c, i in enumerate((0, 1, 1))],
                                          "metric": "euclidean1d", "x0": 1},
                                "resolutions": [4]}),
        ("space.x0", {"space": {"points": [{"id": i, "coord": float(i)} for i in range(3)],
                                "metric": "euclidean1d", "x0": True}, "resolutions": [4]}),
        ("space.points[0].id", {"space": {"points": [{"id": [0], "coord": 0.0},
                                                     {"id": 1, "coord": 1.0}],
                                          "metric": "euclidean1d", "x0": 1},
                                "resolutions": [4]}),
    ])
    def test_malformed_field_type_exit_two(self, tmp_path, capsys, field, changes):
        path = write_scenario(tmp_path, dict(MINIMAL, **changes))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"scenario.{field}" in capsys.readouterr().err

    def test_negative_seed_option_exit_two(self, tmp_path, capsys):
        args = ["run", str(SCENARIOS / "hardy_unit.json"), "--seed", "-1",
                "--resolutions", "16,32,64", "--out-dir", str(tmp_path / "o")]
        assert main(args) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o" / "hardy_unit.json").exists()

    @pytest.mark.parametrize("resolutions", ["0", "-4", "2,0,4"])
    def test_nonpositive_resolution_option_named(self, tmp_path, capsys, resolutions):
        # an explicit point list ignores the resolution, which is refused all the same
        space = {"points": [{"coord": 0.0}, {"coord": 1.0}], "metric": "euclidean1d"}
        path = write_scenario(tmp_path, dict(MINIMAL, space=space, resolutions=[4]))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"),
                     "--resolutions", resolutions]) == 2
        assert "--resolutions: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["hardy_divergent", "power_pair_bounded"])
    def test_kindless_fields_take_their_slots_kind(self, tmp_path, name):
        # p is an exponent, alpha an order, v and w weights, written or not
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        for group in ("exponents", "weights"):
            for spec in data[group].values():
                if isinstance(spec, dict):
                    spec.pop("kind", None)
        bare = load_scenario(write_scenario(tmp_path, data, f"{name}.json"))
        for sc, out in ((load_scenario(SCENARIOS / f"{name}.json"), "a"), (bare, "b")):
            assert run(sc, tmp_path / out, fmt="csv", resolutions=[32, 48, 64]) == 0
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
        for fname in written:
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    @pytest.mark.parametrize("option", [False, True], ids=["file", "option"])
    def test_operator_with_two_resolutions_exit_two(self, tmp_path, capsys, option):
        # a ratio needs a refinement study of 3 resolutions; with fewer the
        # report was written with no ratio at all
        args = ["run", str(SCENARIOS / "hardy_unit.json"), "--out-dir", str(tmp_path / "o")]
        if option:
            args += ["--resolutions", "64,128"]
        else:
            data = json.loads((SCENARIOS / "hardy_unit.json").read_text())
            args[1] = str(write_scenario(tmp_path, dict(data, resolutions=[64, 128]),
                                         "hardy_unit.json"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert ("--resolutions" in err) == option
        assert ("scenario.resolutions" in err) != option
        assert list((tmp_path / "o").iterdir()) == []
        # only the runner refuses: the library still evaluates the ratio
        sc = load_scenario(SCENARIOS / "hardy_unit.json")
        assert sc.materialize(64).evaluate_ratio().ratio > 0

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "..\\escaped", "",
                                      "escaped\0"])
    def test_name_leaving_out_dir_exit_two(self, tmp_path, capsys, name):
        path = write_scenario(tmp_path, dict(MINIMAL, name=name, resolutions=[16, 32, 64]))
        out = tmp_path / "reports" / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        assert "scenario.name" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "escaped.json").exists()
        assert not list(tmp_path.rglob("*.csv"))


class TestEmitReport:
    def test_byte_identical_reruns(self, tmp_path):
        data = dict(MINIMAL, resolutions=[16, 32, 64], operator="hardy")
        sc = load_scenario(write_scenario(tmp_path, data))
        run(sc, tmp_path / "a")
        run(sc, tmp_path / "b")
        for name in ("s.json", "s_hardy.csv", "s_study.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_structure(self, tmp_path):
        data = dict(MINIMAL, resolutions=[16, 32, 64], operator="hardy")
        sc = load_scenario(write_scenario(tmp_path, data))
        run(sc, tmp_path / "out")
        lines = (tmp_path / "out" / "s_hardy.csv").read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) > 10
        study = (tmp_path / "out" / "s_study.csv").read_text().strip().splitlines()
        assert study[0] == "resolution,metric,value"
        # one condition row and one ratio row per resolution
        assert len(study) == 1 + 3 * 2

    def test_emitted_scenario_reloads(self, tmp_path):
        data = dict(MINIMAL, resolutions=[16, 32, 64], operator="hardy")
        sc = load_scenario(write_scenario(tmp_path, data))
        run(sc, tmp_path / "out", fmt="json")
        rep = json.loads((tmp_path / "out" / "s.json").read_text())
        again = vx.Scenario.from_dict(rep["meta"]["scenario"])
        assert again.to_dict() == sc.to_dict()

    def test_float_formatting(self, tmp_path):
        from vexleb.report import fmt_float, to_json_text
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(0.25) == "0.25"
        text = to_json_text({"x": 0.25, "y": [1, 2.5]})
        assert '"x": 0.25' in text

    def test_each_condition_csv_is_its_own_curve(self, tmp_path):
        # several tags of this scenario share one evaluation's curve, which
        # is formatted once and copied to each of their files
        from vexleb.report import write_csv
        sc = load_scenario(SCENARIOS.parent / "perfbench" / "scenarios" / "condition_sweep.json")
        with pytest.warns(UserWarning):
            assert run(sc, tmp_path / "out", resolutions=[128]) == 0
            reports = sc.materialize(128).evaluate_conditions()
        assert len({id(rep.curve) for rep in reports.values()}) < len(reports)
        for tag, rep in reports.items():
            want = write_csv(tmp_path / "want.csv", ["t", "value"],
                             zip(rep.ts.tolist(), rep.curve.tolist()))
            assert (tmp_path / "out" / f"condition_sweep_{tag}.csv").read_bytes() == want, tag

    def test_shared_t_column_keeps_float_bytes(self, tmp_path):
        # the t column of a shared sweep grid is formatted once, as text; each
        # file still reads as if its floats were written, inf and NaN included
        from vexleb.report import write_csv
        ts = np.array([0.0, 0.1, 1 / 3, np.inf, np.nan])
        curves = {f"c{i}": vx.ConditionReport(f"c{i}", 0.0, 0.0, ts, curve, 8) for i, curve in
                  enumerate([np.array([1.0, 0.2, np.inf, 5e-324, np.nan]),
                             np.array([-np.inf, 2.5, 1e300, 0.0, 7.0])])}
        emit_report({"meta": {"name": "r"}}, "csv", tmp_path / "out", curves=curves)
        for cname, rep in curves.items():
            want = write_csv(tmp_path / "want.csv", ["t", "value"],
                             zip(rep.ts.tolist(), rep.curve.tolist()))
            assert (tmp_path / "out" / f"r_{cname}.csv").read_bytes() == want, cname

    def test_empty_results_rejected(self, tmp_path):
        from vexleb.errors import DomainError
        with pytest.raises(DomainError):
            emit_report({}, "json", tmp_path)


def per_cell_csv(header, rows):
    """write_csv's bytes as one formatter call per cell gave them."""
    from vexleb.report import fmt_float
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(float(c)) if isinstance(c, (float, np.floating))
                              else str(c) for c in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


CSV_CELLS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308]),
    st.floats(-1e-307, 1e-307), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-5, 5).map(np.int64), st.booleans(), st.none(),
    st.sampled_from(["inf", "nan", "-Infinity", "a%s", "%.17g", "condition:hardy"]), st.text())


class TestWriteCsv:
    @given(st.lists(st.lists(CSV_CELLS, max_size=4), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_per_cell_formatting(self, tmp_path_factory, rows):
        from vexleb.report import write_csv
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        write_csv(path, ["a", "b"], iter(rows))
        assert path.read_bytes() == per_cell_csv(["a", "b"], rows)


JSON_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308]),
    st.floats(-1e-307, 1e-307))
JSON_LEAVES = st.one_of(
    JSON_FLOATS, JSON_FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
    st.booleans().map(np.bool_), st.none(),
    st.text(st.one_of(st.characters(), st.sampled_from('"\\\0\b\t\n\x1f\x7f é∞'))),
    st.lists(JSON_FLOATS, max_size=5).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


def json_equal(loaded, obj) -> bool:
    """Whether ``loaded`` is what JSON reads back for ``obj``: numpy values
    as their Python values, tuples as lists, NaN equal to NaN and the sign
    of a zero kept."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return (type(loaded) is dict and list(loaded) == list(obj)
                and all(json_equal(loaded[k], v) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(loaded) is list and len(loaded) == len(obj)
                and all(map(json_equal, loaded, obj)))
    if type(obj) is float:
        # repr tells -0.0 from 0.0 and spells every NaN "nan"
        return type(loaded) is float and repr(loaded) == repr(obj)
    return type(loaded) is type(obj) and loaded == obj


class TestToJsonText:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_loads_back_equal(self, obj):
        from vexleb.report import to_json_text
        assert json_equal(json.loads(to_json_text(obj)), obj)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, 1j, np.complex128(1j),
                                     np.datetime64("2020-01-01")])
    def test_unsupported_object_raises(self, bad):
        from vexleb.report import to_json_text
        with pytest.raises(TypeError):
            to_json_text({"x": [bad]})


class TestGoldenScenarios:
    @pytest.mark.parametrize("name", ["hardy_unit", "hardy_divergent",
                                      "power_pair_bounded", "log_pair_maximal",
                                      "geometry_only", "hilbert_unit"])
    def test_golden_files_load(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        assert sc.name == name

    @pytest.mark.parametrize("name", ["hardy_unit", "hardy_divergent",
                                      "power_pair_bounded", "log_pair_maximal",
                                      "geometry_only", "hilbert_unit"])
    def test_run_imports_no_masked_arrays(self, name, tmp_path):
        # np.unique imports numpy.ma on its first call, 15-35 ms per process
        code = ("import sys, warnings; warnings.simplefilter('ignore');"
                "from vexleb.cli import load_scenario, run;"
                f"code = run(load_scenario({str(SCENARIOS / (name + '.json'))!r}), "
                f"{str(tmp_path)!r}, resolutions=[32, 48, 64], seed=0);"
                "print(code, 'numpy.ma' in sys.modules)")
        src = str(Path(vx.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout.split() == ["0", "False"]

    @pytest.mark.parametrize("name, changes", [
        *((name, {}) for name in ("hardy_unit", "hardy_divergent", "power_pair_bounded",
                                  "log_pair_maximal", "geometry_only", "hilbert_unit")),
        ("../perfbench/scenarios/condition_sweep", {}),
        # the mappings no golden file holds: points, params, a kernel and its modulus
        ("geometry_only", {"space": {"points": [{"id": i, "coord": i / 4} for i in range(5)],
                                     "metric": "euclidean1d", "L": 1.0}}),
        ("hilbert_unit", {"params": {"eps": 0.01, "kernel": {
            "type": "hilbert", "omega": {"type": "power", "a": 1.0}}}}),
    ], ids=["hardy_unit", "hardy_divergent", "power_pair_bounded", "log_pair_maximal",
            "geometry_only", "hilbert_unit", "condition_sweep", "points", "kernel"])
    def test_unknown_key_in_every_mapping_named(self, tmp_path, capsys, name, changes):
        base = dict(json.loads((SCENARIOS / f"{name}.json").read_text()), **changes)
        vx.Scenario.from_dict(base)

        def mappings(value, path):
            if isinstance(value, dict):
                yield path, value
            items = value.items() if isinstance(value, dict) \
                else enumerate(value) if isinstance(value, list) else ()
            for key, item in items:
                yield from mappings(item, path + (f"[{key}]" if isinstance(key, int)
                                                  else f".{key}",))

        paths = [path for path, _ in mappings(base, ())]
        assert len(paths) >= 2
        for path in paths:
            data = json.loads(json.dumps(base))
            target = next(m for p, m in mappings(data, ()) if p == path)
            target["zz_unknown"] = 1
            scenario = write_scenario(tmp_path, data)
            assert main(["run", str(scenario), "--out-dir", str(tmp_path / "o")]) == 2, path
            # a field or kernel spec names its keys after its slot and a colon
            err = capsys.readouterr().err.replace(": ", ".")
            assert f"scenario{''.join(path)}.zz_unknown" in err, (path, err)

    def test_hilbert_unit_ratios_below_exact_norms(self, tmp_path):
        # each probe ratio is a lower bound of the operator norm, here the
        # dense exact L2(mu) norm of the same truncated operator
        sc = load_scenario(SCENARIOS / "hilbert_unit.json")
        assert run(sc, tmp_path) == 0
        study = json.loads((tmp_path / "hilbert_unit.json").read_text())["study"]
        assert study["resolutions"] == [128, 256, 512]
        for n, ratio in zip(study["resolutions"], study["ratios"]):
            m = sc.materialize(n)
            T = vx.scenario.OPERATORS["singular"].apply(m, np.eye(n)).T
            root = np.sqrt(m.space.mu)
            exact = np.linalg.norm(root[:, None] * T / root, 2)
            assert 0 < ratio <= exact
