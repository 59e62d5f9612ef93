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

    def test_inadmissible_pair_exit_two(self, tmp_path):
        data = {
            "space": {"generator": "uniform-grid", "n": 32},
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"},
                          "alpha": {"kind": "alpha", "expr": "const 0.25"}},
            "weights": {"pair": {"family": "power-pair", "beta": 0.6}},
            "conditions": ["radial-potential"],
            "resolutions": [16, 32, 64],
        }
        sc = load_scenario(write_scenario(tmp_path, data))
        assert run(sc, tmp_path / "out") == 2

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

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

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
    ])
    def test_malformed_field_type_exit_two(self, tmp_path, capsys, field, changes):
        path = write_scenario(tmp_path, dict(MINIMAL, **changes))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"scenario.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "..\\escaped", ""])
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


class TestGoldenScenarios:
    @pytest.mark.parametrize("name", ["hardy_unit", "hardy_divergent",
                                      "power_pair_bounded", "log_pair_maximal",
                                      "geometry_only"])
    def test_golden_files_load(self, name):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        assert sc.name == name

    @pytest.mark.parametrize("name", ["hardy_unit", "hardy_divergent",
                                      "power_pair_bounded", "log_pair_maximal",
                                      "geometry_only"])
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
