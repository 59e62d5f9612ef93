from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.errors import DomainError, PreconditionError
from test_space import line_spaces, tied_spaces


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def const(n, v, kind="exponent"):
    return vx.PointFunction.constant(n, v, kind)


def hardy_op(sp, v=None, w=None):
    n = sp.n
    v = v or const(n, 1.0, "weight")
    w = w or const(n, 1.0, "weight")
    return lambda rows: vx.hardy_transforms(sp, v, w, rows)


class TestEmpiricalRatio:
    def test_identity_operator(self):
        n = 128
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        est = vx.empirical_ratio(sp, lambda f: f, const(n, 2.0), const(n, 2.0),
                                 one, one, seed=0)
        assert est.ratio == pytest.approx(1.0, rel=1e-9)

    def test_zero_operator(self):
        n = 64
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        est = vx.empirical_ratio(sp, lambda f: np.zeros_like(f), const(n, 2.0),
                                 const(n, 2.0), one, one, seed=0)
        assert est.ratio == 0.0

    def test_hardy_lower_bound_from_unit_probe(self):
        # f = 1 maps to the coordinate, so the ratio reaches 3^(-1/2)
        n = 256
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        est = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                                 one, one, seed=0)
        assert est.ratio >= 1.0 / np.sqrt(3.0) - 0.01

    def test_seed_determinism_bitwise(self):
        n = 96
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        a = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                               one, one, seed=123)
        b = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                               one, one, seed=123)
        assert a.ratio == b.ratio
        assert np.array_equal(a.best_f.values, b.best_f.values)

    def test_best_f_reproduces_ratio(self):
        n = 128
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        p = const(n, 2.0)
        est = vx.empirical_ratio(sp, hardy_op(sp), p, p, one, one, seed=1)
        f = est.best_f
        num = vx.luxemburg_norm(sp, p, vx.PointFunction(hardy_op(sp)(f.values[None])[0],
                                                         "test")).value
        den = vx.luxemburg_norm(sp, p, f).value
        assert est.ratio == pytest.approx(num / den, rel=1e-12)

    def test_discards_zero_denominator(self):
        # weight vanishing off the basepoint cannot produce usable probes there
        n = 32
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        w = vx.PointFunction((sp.d0 == 0).astype(float), "test")
        est = vx.empirical_ratio(sp, lambda f: f, const(n, 2.0), const(n, 2.0),
                                 one, w, seed=0)
        assert est.discarded == 0  # every probe touches the basepoint
        assert est.ratio > 0

    def test_converged_reports_norm_bisections(self, monkeypatch):
        # a variable exponent (affine-in-dist(x0, 2, 1)): constant p takes
        # its closed form and no Newton step that MAX_ITERS could cut short
        from vexleb import norms
        n = 64
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        args = (sp, hardy_op(sp), p, p, one, one)
        assert vx.empirical_ratio(*args, seed=0).converged is True
        monkeypatch.setattr(norms, "MAX_ITERS", 1)
        assert vx.empirical_ratio(*args, seed=0).converged is False

    def test_op_called_once_per_kept_probe(self, monkeypatch):
        from vexleb import verify
        n = 32
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        w = vx.PointFunction(np.where(sp.coords > 0.5, 1.0, 0.0), "test")
        seen, normed = [], []

        def op(rows):
            seen.append(rows.copy())
            return rows

        def recording_norms(space, p, rows):
            normed.append(rows.copy())
            return luxemburg_norms(space, p, rows)

        luxemburg_norms = verify.luxemburg_norms
        monkeypatch.setattr(verify, "luxemburg_norms", recording_norms)
        est = vx.empirical_ratio(sp, op, const(n, 2.0), const(n, 2.0), one, w, seed=0)
        assert len(seen) == 1
        assert est.discarded > 0
        assert seen[0].shape == (est.trials - est.discarded, n)
        # the first norm batch holds every weighted probe; op gets the ones
        # with a nonzero weighted norm, in probe order
        kept = np.any(normed[0] != 0, axis=1)
        assert np.array_equal(w.values * seen[0], normed[0][kept])

    def test_conjugate_rows_near_p_one_are_scaled(self):
        # at p = 1.001, w**(-p') = d0**(-500.5) overflows near the basepoint:
        # each conjugate row is w**(-p') on its ball scaled to peak 1
        n = 64
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        p = const(n, 1.001)
        w = vx.PointFunction(sp.radial_distances() ** 0.5, "weight")
        seen = []

        def op(rows):
            seen.append(rows)
            return vx.maximal_functions(sp, rows)

        est = vx.empirical_ratio(sp, op, p, p, one, w, seed=0)
        assert np.isfinite(est.ratio) and est.ratio > 0
        assert est.discarded == 0
        conj = seen[0][n + len(vx.verify._PROBE_POWERS):][:n]
        radii = np.unique(sp.d0)
        pc = vx.conjugate(p).values[0]
        for row, r in zip(conj, radii):
            ball = sp.d0 <= r
            assert row.max() == 1.0 and np.all(row[~ball] == 0.0)
            want = -pc * np.log(w.values[ball])
            assert np.allclose(row[ball], np.exp(want - want.max()), rtol=1e-9, atol=1e-300)

    def test_op_block_of_the_wrong_shape_is_refused(self):
        n = 16
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        with pytest.raises(DomainError, match="block"):
            vx.empirical_ratio(sp, lambda rows: rows[:1], const(n, 2.0), const(n, 2.0),
                               one, one, seed=0)


def hand_sum(sp, variant, p, q, v, w, t):
    """The condition value at cut t as the former hand-written sums; equal
    to the functional's curve for 0 <= t <= L."""
    mu, d0, L = sp.mu, sp.d0, sp.L_eff
    pp = p / (p - 1.0)
    head = d0 <= t
    tail = ~head
    inner_ball = float((w ** (-pp) * mu)[head].sum())
    if variant == "hardy":
        return float((v ** q * mu)[tail & (d0 <= L)].sum() * inner_ball ** (q / pp))
    alpha = 1.0 / p - 1.0 / q
    muB0 = sp.muB0
    outer = tail & (d0 <= L) & (muB0 > 0)
    if variant == "potential-ball":
        return float(((v[outer] * muB0[outer] ** (alpha - 1.0)) ** q * mu[outer]).sum()
                     * inner_ball ** (q / pp))
    if variant == "potential-tail":
        inner = float(((w[outer] * muB0[outer] ** (1.0 - alpha)) ** (-pp) * mu[outer]).sum())
        return float((v ** q * mu)[head].sum() * inner ** (q / pp))
    return float(((v[outer] / muB0[outer]) ** p * mu[outer]).sum() * inner_ball ** (p / pp))


def functional_curve(sp, variant, p, q, v, w):
    """The report of the functional whose curve ``hand_sum`` gives at a cut."""
    n, a = sp.n, sp.L_eff
    P, Q = const(n, p), const(n, q)
    vf = vx.PointFunction(v, "weight")
    if variant == "hardy":
        return vx.hardy_condition(sp, P, Q, vf, vx.PointFunction(1.0 / w, "weight"), a=a)
    wf = vx.PointFunction(w, "weight")
    if variant == "maximal":
        return vx.maximal_singular_conditions(sp, P, vf, wf, a=a)[0]
    half = 0 if variant == "potential-ball" else 1
    return vx.potential_conditions(sp, P, Q, vf, wf, 1.0 / p - 1.0 / q, a=a)[half]


def line_beyond_L():
    # a euclidean1d line whose points run past its nominal diameter L = 1
    return vx.space_from_spec({"points": [{"coord": c} for c in np.linspace(0.0, 2.0, 41)],
                               "metric": "euclidean1d", "L": 1.0})


# the four condition halves whose curve a cut reads
CUT_FUNCTIONALS = ("hardy", "potential-ball", "potential-tail", "maximal")


class TestNecessityProbeReadsTheCurve:
    """A cut {d0 <= t} reads its condition at the curve's last sweep knot
    <= t, which is the hand-written sum there."""

    @pytest.mark.parametrize("make", [lambda: vx.uniform_grid(48), lambda: vx.cantor_space(5),
                                      line_beyond_L], ids=["grid", "cantor", "line-beyond-L"])
    @pytest.mark.parametrize("variant", CUT_FUNCTIONALS)
    def test_condition_is_the_curve_value_at_t(self, make, variant):
        sp = make()
        n, L = sp.n, sp.L_eff
        rng = np.random.default_rng(3)
        v, w = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
        p, q = 2.0, 3.0
        rep = functional_curve(sp, variant, p, q, v, w)
        d = np.unique(sp.d0[sp.d0 <= L])
        between = 0.25 * d[3] + 0.75 * d[4]
        for t in (0.0, between, 0.37, L, 1.5 * L):
            # the curve's value at the last sweep knot <= t; past L it holds
            # the value at L
            got = rep.curve[np.searchsorted(rep.ts, t, side="right") - 1]
            want = hand_sum(sp, variant, p, q, v, w, min(t, L))
            assert got == pytest.approx(want, rel=1e-12)


@st.composite
def hardy_cases(draw):
    """A Hardy row at constant p <= q on a space of at most 64 points, so
    every distinct basepoint distance is a probe radius, with random v, w."""
    sizes = st.integers(2, 64)
    sp = draw(st.one_of(line_spaces(sizes), tied_spaces(sizes), sizes.map(vx.uniform_grid),
                        st.integers(1, 6).map(vx.cantor_space)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.floats(1.1, 4.0))
    exps = {"p": {"kind": "exponent", "expr": f"const {p!r}"}}
    frac = draw(st.sampled_from([None, 0.1, 0.5, 0.8]))
    if frac is not None:
        exps["alpha"] = {"kind": "alpha", "expr": f"const {frac / p!r}"}
    v, w = (np.exp(rng.uniform(-3.0, 3.0, sp.n)) for _ in range(2))
    sc = vx.Scenario.from_dict({
        "name": "hardy", "space": {"generator": "uniform-grid", "n": 2}, "exponents": exps,
        "weights": {"v": {"kind": "weight", "values": v.tolist()},
                    "w": {"kind": "weight", "values": w.tolist()}},
        "operator": "hardy", "conditions": ["hardy"]})
    return vx.Materialized(sc, sp)


class TestHardyProbesReachTheCondition:
    # Muckenhoupt (1972): the Hardy condition B = value**(1/q) bounds the
    # norm from below.  For x beyond a cut {d0 <= t}, H f(x) >= v(x) times the
    # sum of w**p' mu over the cut when f = w**(p' - 1) on the cut, and the
    # transform's open ball matches the condition's closed cut

    @given(hardy_cases())
    @settings(max_examples=60, deadline=None)
    def test_ratio_reaches_the_necessary_bound(self, mat):
        q = float(mat.q.values[0])
        value = mat.evaluate_conditions()["hardy"].value
        assert mat.evaluate_ratio().ratio >= value ** (1.0 / q) * (1.0 - 1e-9)

    def test_hardy_divergent_at_64(self):
        # before the extremal rows the probes read 16.501 against B = 17.655
        from vexleb.cli import load_scenario
        mat = load_scenario(SCENARIOS / "hardy_divergent.json").materialize(64)
        bound = mat.evaluate_conditions()["hardy"].value ** 0.5
        assert bound == pytest.approx(17.655, abs=1e-3)
        assert mat.evaluate_ratio().ratio == pytest.approx(18.3147, abs=1e-4)


SMALL_SPACES = st.integers(2, 64).flatmap(lambda n: st.one_of(
    line_spaces(st.just(n)), tied_spaces(st.just(n)), st.just(n).map(vx.uniform_grid),
    st.integers(1, 6).map(vx.cantor_space)))


@st.composite
def probe_cases(draw, zeros=True):
    """A space of at most 64 points, so every distinct basepoint distance
    cuts a ball; a constant or a variable p; random v and w, w zero at a
    few points when ``zeros`` draws so."""
    sp = draw(SMALL_SPACES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.floats(1.05, 4.0))
    slope = draw(st.sampled_from([0.0, 0.5]))
    p = vx.PointFunction(p + slope * np.minimum(sp.d0, 1.0), "exponent")
    v, w = (np.exp(rng.uniform(-3.0, 3.0, sp.n)) for _ in range(2))
    if zeros and draw(st.booleans()):
        w[rng.integers(0, sp.n, 2)] = 0.0
    # a weight field is positive; a norm weight with zeros is a plain field
    return sp, p, vx.PointFunction(v, "weight"), vx.PointFunction(w, "test")


def recorded_ratio(sp, p, v, w):
    """``empirical_ratio`` of the maximal operator, with the probe block it
    was handed."""
    seen = []

    def op(rows):
        seen.append(rows)
        return vx.maximal_functions(sp, rows)

    return vx.empirical_ratio(sp, op, p, p, v, w, seed=0), seen[0]


class TestProbeTable:
    """The probe family is one fixed table: R ball indicators, 14 radial
    powers, R conjugate rows when w > 0, and 8 seeded mixtures."""

    @given(probe_cases())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_cuts_powers_conjugates_and_mixtures(self, case):
        sp, p, v, w = case
        est, block = recorded_ratio(sp, p, v, w)
        radii = np.unique(sp.d0)
        R, powers = radii.size, len(vx.verify._PROBE_POWERS)
        positive = bool(np.all(w.values > 0))
        assert est.trials == (2 * R if positive else R) + powers + 8
        if not positive:
            return
        assert est.discarded == 0 and block.shape == (est.trials, sp.n)
        balls = sp.d0 <= radii[:, None]
        assert np.array_equal(block[:R], balls.astype(float))
        for row, ball in zip(block[R + powers:2 * R + powers], balls):
            assert row[ball].max() == 1.0
            assert np.all(row[~ball] == 0.0)

    @given(probe_cases(zeros=False), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_weights_leave_every_bit(self, case, k):
        # at constant p, v and w scaled by the same 2**k read the same ratio
        sp, p, v, w = case
        p = vx.PointFunction.constant(sp.n, float(p.values[0]), "exponent")
        base = recorded_ratio(sp, p, v, w)[0].ratio
        scaled = [vx.PointFunction(np.ldexp(f.values, k), "weight") for f in (v, w)]
        assert recorded_ratio(sp, p, *scaled)[0].ratio == base

    def test_library_and_scenario_count_the_same_probes(self):
        from vexleb.cli import load_scenario
        mat = load_scenario(SCENARIOS / "power_pair_bounded.json").materialize(64)
        est = vx.empirical_ratio(mat.space, lambda rows: rows, mat.p, mat.q, mat.v, mat.w)
        assert mat.evaluate_ratio().trials == est.trials == 2 * np.unique(mat.space.d0).size + 22


class TestRefinementStudy:
    def _scenario(self, w_expr, p_expr="const 2"):
        return vx.Scenario.from_dict({
            "name": "t",
            "space": {"generator": "uniform-grid", "n": 256},
            "exponents": {"p": {"kind": "exponent", "expr": p_expr}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": w_expr}},
            "operator": "hardy",
            "conditions": ["hardy"],
            "resolutions": [64, 128, 256],
        })

    def test_bounded_scenario(self):
        study = vx.refinement_study(self._scenario("const 1"), [64, 128, 256])
        assert study.condition_trends["hardy"] == "bounded"
        assert study.ratio_trend == "bounded"

    def test_unconverged_ratio_gives_no_trend(self, monkeypatch):
        # a variable exponent, whose norms take Newton steps (constant p has
        # a closed form)
        from vexleb import norms
        sc = self._scenario("const 1", "affine-in-dist(x0, 2, 1)")
        assert vx.refinement_study(sc, [64, 128, 256]).ratio_trend == "bounded"
        monkeypatch.setattr(norms, "MAX_ITERS", 1)
        est = sc.materialize(64).evaluate_ratio()
        assert isinstance(est, vx.NormEstimate) and not est.converged
        study = vx.refinement_study(sc, [64, 128, 256])
        assert all(r is not None for r in study.ratios)
        assert study.ratio_trend == "undecided"

    def test_divergent_scenario(self):
        study = vx.refinement_study(self._scenario("power-of-dist(x0, -1)"),
                                    [64, 256, 1024])
        assert study.condition_trends["hardy"] == "divergent"
        vals = study.condition_values["hardy"]
        assert vals[-1] / vals[0] >= 4.0

    def test_flat_history_for_identity_like_setup(self):
        sc = vx.Scenario.from_dict({
            "name": "flat",
            "space": {"generator": "uniform-grid", "n": 256},
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": "const 1"}},
            "conditions": ["hardy"],
        })
        study = vx.refinement_study(sc, [64, 128, 256])
        vals = study.condition_values["hardy"]
        assert max(vals) / min(vals) <= 1.01
        assert study.ratios == [None, None, None]

    def test_needs_three_resolutions(self):
        with pytest.raises(PreconditionError):
            vx.refinement_study(self._scenario("const 1"), [64, 128])
        with pytest.raises(PreconditionError):
            vx.refinement_study(self._scenario("const 1"), [64, 64, 128])

    @pytest.mark.parametrize("space, resolutions", [
        ({"points": [{"id": i, "coord": i / 3} for i in range(4)],
          "metric": "euclidean1d", "mu": "lebesgue-grid", "x0": 0, "L": 1.0},
         [16, 32, 64]),
        ({"generator": "cantor", "depth": 6}, [32, 64, 96]),
    ])
    def test_refuses_resolutions_that_do_not_refine(self, space, resolutions):
        # an explicit table ignores the resolution and Cantor depths 64 and
        # 96 round alike: a flat series from one space must not read "bounded"
        sc = vx.Scenario.from_dict({
            "name": "flat", "space": space,
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": "power-of-dist(x0, -1)"}},
            "conditions": ["hardy"], "resolutions": resolutions,
        })
        with pytest.raises(PreconditionError, match="scenario.resolutions"):
            vx.refinement_study(sc, resolutions)
