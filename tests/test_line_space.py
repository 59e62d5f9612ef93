"""Line spaces keep coordinates, not a distance table: every result on one
equals, bit for bit, the result on a table-backed copy of it."""
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.cli import load_scenario
from vexleb.report import to_json_text
from vexleb.scenario import CONDITIONS, OPERATORS, Materialized
from vexleb.space import _BLOCK_ROWS, EXHAUSTIVE_TRIPLE_LIMIT

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def as_table(sp):
    """The same space backed by its full distance table, built here."""
    dist = np.abs(sp.coords[:, None] - sp.coords[None, :])
    return vx.explicit_space(dist, sp.mu, sp.x0, sp.L, coords=sp.coords)


def scenario(**entries):
    return vx.Scenario.from_dict({
        "name": "line",
        "space": {"generator": "uniform-grid", "n": 2},
        "exponents": {"p": {"kind": "exponent", "expr": "affine-in-dist(x0, 2, 0.5)"},
                      "alpha": {"kind": "alpha", "expr": "const 0.2"}},
        "weights": {"pair": {"family": "power-pair", "beta": 0.25}},
        **entries,
    })


def results(sp) -> dict:
    """The geometry report, every condition functional and the empirical
    ratio of every operator at seed 0 on ``sp``, each rendered with every
    float at 17 significant digits."""
    with warnings.catch_warnings():
        # the order field leaves the variable-order regime
        warnings.simplefilter("ignore", UserWarning)
        reports = Materialized(scenario(conditions=list(CONDITIONS)), sp).evaluate_conditions()
    out = {"geometry": vars(vx.geometry_constants(sp))}
    for tag, rep in reports.items():
        out[tag] = [rep.value, rep.log_value, rep.argmax_t, rep.curve, rep.meta]
    for tag in OPERATORS:
        est = dict(vars(Materialized(scenario(operator=tag), sp).evaluate_ratio()))
        est["best_f"] = getattr(est["best_f"], "values", None)
        out[f"ratio:{tag}"] = est
    return {key: to_json_text(value) for key, value in out.items()}


# grids at and around the row-block edges, and Cantor sets, whose distances tie
line_spaces = st.one_of(
    st.builds(vx.uniform_grid, st.one_of(
        st.integers(2, 24),
        st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]))),
    st.builds(vx.cantor_space, st.integers(1, 7)))


class TestLineSpace:
    @given(line_spaces)
    @settings(max_examples=20, deadline=None)
    def test_equals_table_backed_copy(self, sp):
        assert sp.dist is None
        line, table = results(sp), results(as_table(sp))
        assert [key for key in line if line[key] != table[key]] == []

    def test_unsorted_coordinates(self):
        # past the exhaustive limit a1 is read from sampled pairs
        n = EXHAUSTIVE_TRIPLE_LIMIT + 9
        coords = np.random.default_rng(0).permutation(np.linspace(0.0, 1.0, n))
        sp = vx.space_from_spec({"points": [{"coord": c} for c in coords],
                                 "metric": "euclidean1d", "x0": 70, "L": 1.0})
        table = as_table(sp)
        for start in range(0, n, _BLOCK_ROWS + 7):
            stop = min(start + _BLOCK_ROWS + 7, n)
            assert np.array_equal(sp.rows(start, stop), table.rows(start, stop))
            assert np.array_equal(sp.cols(start, stop), table.cols(start, stop))
        assert vars(vx.geometry_constants(sp)) == vars(vx.geometry_constants(table))

    def test_holds_no_square_table(self):
        # neither the geometry report nor a Hardy ratio study at 2048 points
        # allocates an n x n float array at any point
        n = 2048
        hardy = load_scenario(SCENARIOS / "hardy_unit.json")
        tracemalloc.start()
        try:
            vx.geometry_constants(vx.uniform_grid(n))
            _, geometry_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            hardy.materialize(n).evaluate_ratio()
            _, ratio_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert geometry_peak < n * n * 8
        assert ratio_peak < n * n * 8
