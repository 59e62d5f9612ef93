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


# a line space reports a0 = a1 = 1 exactly, where a table is searched: the
# searched a1 may exceed 1 by rounding
EXACT_QUASI = {"a0": 1.0, "a0_pair": (0, 1), "a1": 1.0, "a1_triple": (0, 1, 0)}
A1_ROUNDING = 4 * 2.0**-52


def results(sp) -> dict:
    """The geometry report without a1 and its triple, every condition
    functional and the empirical ratio of every operator at seed 0 on
    ``sp``, each rendered as JSON text, whose floats read back exactly."""
    with warnings.catch_warnings():
        # the order field leaves the variable-order regime
        warnings.simplefilter("ignore", UserWarning)
        reports = Materialized(scenario(conditions=list(CONDITIONS)), sp).evaluate_conditions()
    geometry = vars(vx.geometry_constants(sp))
    out = {"geometry": {k: v for k, v in geometry.items() if k not in ("a1", "a1_triple")}}
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


def permuted_line(n, seed):
    """An ``euclidean1d`` space on n shuffled, unevenly spaced coordinates
    with uneven weights."""
    rng = np.random.default_rng(seed)
    coords = rng.permutation(np.cumsum(rng.uniform(0.01, 1.0, n)))
    return vx.space_from_spec({"points": [{"coord": c} for c in coords],
                               "metric": "euclidean1d",
                               "mu": rng.uniform(0.1, 1.0, n).tolist(), "L": "inf"})


class TestLineSpace:
    @given(line_spaces)
    @settings(max_examples=20, deadline=None)
    def test_equals_table_backed_copy(self, sp):
        # every value but a1 bit for bit; a1 is exact on the line
        assert sp.dist is None
        line, table = results(sp), results(as_table(sp))
        assert [key for key in line if line[key] != table[key]] == []
        g = vars(vx.geometry_constants(sp))
        assert {key: g[key] for key in EXACT_QUASI} == EXACT_QUASI

    def test_unsorted_coordinates(self):
        # past the exhaustive limit the table's a1 is read from sampled triples
        n = EXHAUSTIVE_TRIPLE_LIMIT + 9
        coords = np.random.default_rng(0).permutation(np.linspace(0.0, 1.0, n))
        sp = vx.space_from_spec({"points": [{"coord": c} for c in coords],
                                 "metric": "euclidean1d", "x0": 70, "L": 1.0})
        table, ids = as_table(sp), np.arange(n)
        for start in range(0, n, _BLOCK_ROWS + 7):
            stop = min(start + _BLOCK_ROWS + 7, n)
            assert np.array_equal(sp.rows(start, stop), table.rows(start, stop))
            transposed = (ids, ids[start:stop, None])
            assert np.array_equal(sp.pairs(*transposed), table.pairs(*transposed))
        line, searched = vars(vx.geometry_constants(sp)), vars(vx.geometry_constants(table))
        assert {key: line[key] for key in EXACT_QUASI} == EXACT_QUASI
        assert searched["a1"] <= 1.0 + A1_ROUNDING
        for key in ("a1", "a1_triple"):
            del line[key], searched[key]
        assert line == searched

    @given(st.one_of(
        line_spaces,
        st.builds(vx.uniform_grid, st.sampled_from([EXHAUSTIVE_TRIPLE_LIMIT - 1,
                                                    EXHAUSTIVE_TRIPLE_LIMIT])),
        st.builds(vx.cantor_space, st.sampled_from([8, 9])),
        st.tuples(st.integers(2, EXHAUSTIVE_TRIPLE_LIMIT), st.integers(0, 2**32 - 1)).map(
            lambda args: permuted_line(*args))))
    @settings(max_examples=12, deadline=None)
    def test_exact_quasi_constants_are_the_searched_supremum(self, sp):
        # the table-backed copy's exhaustive search finds a0 = 1 and a1 = 1 up
        # to rounding, so the exact values a line space reports are the suprema
        assert sp.n <= EXHAUSTIVE_TRIPLE_LIMIT
        g = vx.geometry_constants(as_table(sp))
        assert (g.a0, g.a0_pair) == (1.0, (0, 1))
        assert 1.0 <= g.a1 <= 1.0 + A1_ROUNDING

    def test_kernel_check_takes_the_exact_a1(self):
        sp = vx.uniform_grid(96)
        assert vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 200) \
            == vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 200, a1=1.0)

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
