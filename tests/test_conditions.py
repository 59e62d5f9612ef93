import json
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vexleb as vx
from vexleb import conditions
from vexleb.conditions import t_sweep
from vexleb.errors import DomainError, PreconditionError
from vexleb.scenario import Materialized
from test_space import sweep_threads

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def const(n, v, kind="exponent"):
    return vx.PointFunction.constant(n, v, kind)


def brute_hardy(space, p, q, v, w):
    """Nested-loop evaluation of the forward Hardy functional over the same
    sweep, as an independent oracle."""
    d0, mu, L = space.d0, space.mu, space.L_eff
    le = vx.local_exponents(space, p)
    e = vx.conjugate(le.ball_min_capped).values
    best = 0.0
    for t in t_sweep(space):
        total = 0.0
        for x in range(space.n):
            if not (t < d0[x] <= L):
                continue
            inner = ((w.values ** e[x]) * mu)[d0 <= t].sum()
            total += v.values[x] ** q.values[x] * inner ** (q.values[x] / e[x]) * mu[x]
        best = max(best, total)
    return best


class TestHardyCondition:
    def test_unit_weights_quarter(self):
        for n in (64, 256):
            sp = vx.uniform_grid(n)
            p = const(n, 2.0)
            one = const(n, 1.0, "weight")
            rep = vx.hardy_condition(sp, p, p, one, one)
            assert abs(rep.value - 0.25) <= 2.0 / n
            assert rep.argmax_t == pytest.approx(0.5, abs=2.0 / n)

    def test_zero_v(self):
        n = 64
        sp = vx.uniform_grid(n)
        rep = vx.hardy_condition(sp, const(n, 2.0), const(n, 2.0),
                                 const(n, 0.0, "test"), const(n, 1.0, "weight"))
        assert rep.value == 0.0

    def test_linear_weight_closed_form(self):
        # inner integral of w^2 is t^3/3; sup of (1-t) t^3/3 is 9/256 at t = 3/4
        n = 1024
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        one = const(n, 1.0, "weight")
        wlin = vx.PointFunction(sp.d0.copy(), "test")
        rep = vx.hardy_condition(sp, p, p, one, wlin)
        assert rep.value == pytest.approx(9.0 / 256.0, abs=3.0 / n)
        assert rep.argmax_t == pytest.approx(0.75, abs=3.0 / n)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        n = 36
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(rng.uniform(1.4, 2.4, n), "exponent")
        q = vx.PointFunction(p.values + rng.uniform(0.0, 1.0, n), "exponent")
        v = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        rep = vx.hardy_condition(sp, p, q, v, w)
        assert rep.value == pytest.approx(brute_hardy(sp, p, q, v, w), rel=1e-12)

    def test_ordering_precondition(self):
        n = 32
        sp = vx.uniform_grid(n)
        p = const(n, 3.0)
        q = const(n, 2.0)  # below the ball minimum of p
        with pytest.raises(PreconditionError):
            vx.hardy_condition(sp, p, q, const(n, 1.0, "weight"), const(n, 1.0, "weight"))

    def test_curve_max_is_value(self):
        n = 128
        sp = vx.uniform_grid(n)
        rep = vx.hardy_condition(sp, const(n, 2.0), const(n, 2.0),
                                 const(n, 1.0, "weight"), const(n, 1.0, "weight"))
        assert rep.value == rep.curve.max()
        assert rep.ts[int(rep.curve.argmax())] == rep.argmax_t


class TestHardyTailCondition:
    def test_unit_weights(self):
        n = 256
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        one = const(n, 1.0, "weight")
        rep = vx.hardy_tail_condition(sp, p, p, one, one)
        assert abs(rep.value - 0.25) <= 2.0 / n

    def test_zero_w(self):
        n = 64
        sp = vx.uniform_grid(n)
        rep = vx.hardy_tail_condition(sp, const(n, 2.0), const(n, 2.0),
                                      const(n, 1.0, "weight"), const(n, 0.0, "test"))
        assert rep.value == 0.0

    def test_mirror_symmetry(self):
        # the tail functional equals the forward one seen from the far end
        n = 512
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        rng = np.random.default_rng(1)
        v = vx.PointFunction(rng.uniform(0.3, 1.2, n), "weight")
        w = vx.PointFunction(rng.uniform(0.3, 1.2, n), "weight")
        tail = vx.hardy_tail_condition(sp, p, p, v, w)
        spR = vx.DiscreteSpace(dist=None, mu=sp.mu, x0=n - 1, L=1.0, coords=sp.coords)
        fwd = vx.hardy_condition(spR, p, p, v, w)
        assert tail.value == pytest.approx(fwd.value, rel=1e-9)


class TestPotentialConditions:
    def test_zero_v(self):
        n = 64
        sp = vx.uniform_grid(n)
        b, t = vx.potential_conditions(sp, const(n, 2.0), const(n, 4.0),
                                       const(n, 0.0, "test"), const(n, 1.0, "weight"), 0.25)
        assert b.value == 0.0 and t.value == 0.0

    def test_alpha_gate(self):
        n = 16
        sp = vx.uniform_grid(n)
        with pytest.raises(DomainError):
            vx.potential_conditions(sp, const(n, 2.0), const(n, 4.0),
                                    const(n, 1.0, "weight"), const(n, 1.0, "weight"), 0.5)

    def test_power_pair_stable(self):
        pair = vx.power_weight_pair(2.0, 0.25, 0.25)
        assert pair.gamma_min == pytest.approx(0.25)
        vals = []
        for n in (256, 512):
            sp = vx.uniform_grid(n)
            dre = sp.radial_distances()
            v = vx.PointFunction(pair.v_profile(dre), "weight")
            w = vx.PointFunction(pair.w_profile(dre), "weight")
            b, _ = vx.potential_conditions(sp, const(n, 2.0), const(n, 4.0), v, w, 0.25)
            vals.append(b.value)
        assert abs(vals[1] / vals[0] - 1.0) <= 0.05

    def test_linear_weight_tail_diverges(self):
        # w(y) = y makes the tail integrand w^{-2} ~ y^{-2}: value doubles
        # with each resolution doubling
        vals = []
        for n in (128, 256, 512):
            sp = vx.uniform_grid(n)
            w = vx.PointFunction(sp.radial_distances(), "weight")
            _, tail = vx.potential_conditions(sp, const(n, 2.0), const(n, 4.0),
                                              const(n, 1.0, "weight"), w, 0.25)
            vals.append(tail.value)
        assert vals[1] / vals[0] >= 2.0 and vals[2] / vals[1] >= 2.0

    def test_brute_force_ball_part(self):
        rng = np.random.default_rng(2)
        n = 32
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 4.0)
        v = vx.PointFunction(rng.uniform(0.2, 1.0, n), "weight")
        w = vx.PointFunction(rng.uniform(0.5, 1.5, n), "weight")
        alpha = 0.25
        ball_rep, _ = vx.potential_conditions(sp, p, q, v, w, alpha)
        d0, mu = sp.d0, sp.mu
        muB0 = np.array([vx.ball(sp, 0, d).measure for d in d0])
        best = 0.0
        for t in t_sweep(sp):
            total = 0.0
            for x in range(n):
                if not (t < d0[x] <= 1.0):
                    continue
                inner = ((w.values ** -2.0) * mu)[d0 <= t].sum()
                total += (v.values[x] * muB0[x] ** (alpha - 1)) ** 4 * inner**2 * mu[x]
            best = max(best, total)
        assert ball_rep.value == pytest.approx(best, rel=1e-12)


class TestDistancePotentialConditions:
    def test_constant_weights_finite_stable(self):
        # the tail part converges like n^(-1/4), so the stability window
        # needs the larger resolutions
        vals = []
        for n in (1024, 2048):
            sp = vx.uniform_grid(n)
            p = const(n, 3.0)
            q = const(n, 6.0)
            al = const(n, 1 / 6, "alpha")
            one = const(n, 1.0, "weight")
            b, t = vx.distance_potential_conditions(sp, p, q, one, one, al)
            assert np.isfinite(b.value) and np.isfinite(t.value)
            vals.append((b.value, t.value))
        assert vals[1][0] / vals[0][0] <= 1.25
        assert vals[1][1] / vals[0][1] <= 1.25

    def test_comparable_to_ball_version(self):
        # mu B(x0, t) is within [t/2, 2t] on the grid, so the two conditions
        # agree within the factor 2^{(1-alpha) q_max}
        n = 256
        sp = vx.uniform_grid(n)
        p = const(n, 3.0)
        q = const(n, 6.0)
        alpha = 1 / 6
        one = const(n, 1.0, "weight")
        d_rep, _ = vx.distance_potential_conditions(sp, p, q, one, one,
                                                    const(n, alpha, "alpha"))
        b_rep, _ = vx.potential_conditions(sp, p, q, one, one, alpha)
        factor = 2 ** ((1 - alpha) * 6)
        ratio = d_rep.value / b_rep.value
        assert 1.0 / factor <= ratio <= factor

    def test_reports_ahlfors_constant(self):
        # the upper Ahlfors constant the pair assumes is the geometry
        # report's, at the same resolution
        sc = vx.Scenario.from_dict({
            "space": {"generator": "uniform-grid", "n": 64},
            "exponents": {"p": {"kind": "exponent", "expr": "const 3"},
                          "alpha": {"kind": "alpha", "expr": "const 0.16666666666666666"}},
            "weights": {"v": {"kind": "weight", "expr": "const 1"},
                        "w": {"kind": "weight", "expr": "const 1"}},
            "conditions": ["distance-ball", "distance-tail"],
        })
        mat = sc.materialize()
        assert np.isfinite(mat.evaluate_conditions()["distance-ball"].value)
        assert mat.geometry_summary()["ahlfors_c1"] == pytest.approx(2.0, abs=0.1)


class TestRadialCondition:
    def test_power_pair_finite_stable(self):
        pair = vx.power_weight_pair(2.0, 0.25, 0.25)
        vals = []
        for n in (256, 512):
            sp = vx.uniform_grid(n)
            rep = vx.radial_condition(sp, const(n, 2.0), pair.v_profile, pair.w_profile,
                                      "potential", alpha=0.25, q=const(n, 4.0))
            vals.append(rep.value)
        assert abs(vals[1] / vals[0] - 1.0) <= 0.05

    def test_zero_profile(self):
        n = 64
        sp = vx.uniform_grid(n)
        rep = vx.radial_condition(sp, const(n, 2.0), lambda t: 0.0 * np.asarray(t),
                                  lambda t: np.ones_like(np.asarray(t)), "maximal")
        assert rep.value == 0.0

    def test_log_pair_value_finite(self):
        pair = vx.log_adjusted_weight_pair(2.0, 1.0)
        n = 256
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")  # min at the basepoint
        rep = vx.radial_condition(sp, p, pair.v_profile, pair.w_profile,
                                  "maximal-basepoint", require_monotone=False)
        assert 0 < rep.value < 10

    def test_log_pair_trips_monotone_gate(self):
        pair = vx.log_adjusted_weight_pair(2.0, 1.0)
        n = 128
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        with pytest.raises(PreconditionError) as err:
            vx.radial_condition(sp, p, pair.v_profile, pair.w_profile, "maximal-basepoint")
        assert err.value.witness is not None  # the offending t-pair

    def test_basepoint_exponent_variant_matches_brute(self):
        n = 40
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        vprof = lambda t: np.asarray(t) ** 0.5
        wprof = lambda t: np.asarray(t) ** 0.25
        rep = vx.radial_condition(sp, p, vprof, wprof, "maximal-basepoint")
        d0, mu = sp.d0, sp.mu
        dre = sp.radial_distances()
        muB0 = np.array([vx.ball(sp, 0, d).measure for d in d0])
        pp0 = 2.0  # conjugate of p at the basepoint
        best = 0.0
        for t in t_sweep(sp):
            total = 0.0
            for x in range(n):
                if not (t < d0[x] <= 1.0) or muB0[x] == 0:
                    continue
                inner = (wprof(dre) ** -pp0 * mu)[d0 <= t].sum()
                total += (vprof(dre[x]) / muB0[x]) ** p.values[x] \
                    * inner ** (p.values[x] / pp0) * mu[x]
            best = max(best, total)
        assert rep.value == pytest.approx(best, rel=1e-12)

    def test_unknown_variant(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(DomainError):
            vx.radial_condition(sp, const(8, 2.0), lambda t: t, lambda t: t, "nope")


class TestVariableOrderConditions:
    def test_matches_constant_order_exactly(self):
        pair = vx.power_weight_pair(2.0, 0.25, 0.25)
        n = 256
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 4.0)
        dre = sp.radial_distances()
        v = vx.PointFunction(pair.v_profile(dre), "weight")
        w = vx.PointFunction(pair.w_profile(dre), "weight")
        P1, P2 = vx.potential_conditions(sp, p, q, v, w, 0.25)
        with pytest.warns(UserWarning):
            I1, I2 = vx.variable_order_conditions(sp, p, q, v, pair.w_profile,
                                                  const(n, 0.25, "alpha"))
        assert I1.value == pytest.approx(P1.value, rel=1e-9)
        assert I2.value == pytest.approx(P2.value, rel=1e-9)

    def test_truncated_model_reads_the_capped_exponent(self):
        # beyond the cap radius both ball halves take e0 from the constant
        # tail value of p; the uncapped ball minimum gave 1.0556340 against
        # the potential ball half's 1.0551022
        n = 41
        sp = vx.space_from_spec({
            "points": [{"id": i, "coord": c} for i, c in enumerate(np.linspace(0, 2, n))],
            "metric": "euclidean1d", "trunc_radius": 2.0})
        p = vx.PointFunction(np.where(sp.d0 <= 1.0, 3.0 - sp.d0, 2.5), "exponent")
        alpha = const(n, 1.0 / 6.0, "alpha")
        q = vx.sobolev_exponent(p, alpha)
        one = const(n, 1.0, "weight")
        potential, _ = vx.potential_conditions(sp, p, q, one, one, 1.0 / 6.0, a=1.0)
        with pytest.warns(UserWarning):
            order, _ = vx.variable_order_conditions(sp, p, q, one, np.ones_like, alpha, a=1.0)
        assert potential.value == pytest.approx(1.0551022, abs=1e-7)
        assert order.value == potential.value

    def test_zero_v(self):
        n = 64
        sp = vx.uniform_grid(n)
        with pytest.warns(UserWarning):
            I1, I2 = vx.variable_order_conditions(
                sp, const(n, 2.0), const(n, 4.0), const(n, 0.0, "test"),
                lambda t: np.ones_like(np.asarray(t)), const(n, 0.25, "alpha"))
        assert I1.value == 0.0 and I2.value == 0.0

    def test_stated_regime_emits_no_warning(self):
        import warnings
        n = 64
        sp = vx.uniform_grid(n)
        p = const(n, 1.5)
        q = const(n, 15.0)
        al = const(n, 0.8, "alpha")  # 0.8 > 1/1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vx.variable_order_conditions(sp, p, q, const(n, 1.0, "weight"),
                                         lambda t: np.ones_like(np.asarray(t)), al)

    def test_variable_order_brute_force(self):
        rng = np.random.default_rng(3)
        n = 28
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 4.0)
        v = vx.PointFunction(rng.uniform(0.2, 1.0, n), "weight")
        al = vx.PointFunction(rng.uniform(0.55, 0.9, n), "alpha")
        wprof = lambda t: np.asarray(t) ** 0.3 + 0.1
        I1, I2 = vx.variable_order_conditions(sp, p, q, v, wprof, al)
        d0, mu = sp.d0, sp.mu
        dre = sp.radial_distances()
        muB0 = np.array([vx.ball(sp, 0, d).measure for d in d0])
        best1 = best2 = 0.0
        for t in t_sweep(sp):
            tot1 = tot2 = 0.0
            for x in range(n):
                ax, qx = al.values[x], q.values[x]
                if t < d0[x] <= 1.0 and muB0[x] > 0:
                    inner = (wprof(dre) ** -2.0 * mu)[d0 <= t].sum()
                    tot1 += (v.values[x] * muB0[x] ** (ax - 1)) ** qx * inner ** (qx / 2) * mu[x]
                if d0[x] <= t:
                    sel = (d0 > t) & (d0 <= 1.0) & (muB0 > 0)
                    inner = ((wprof(dre[sel]) * muB0[sel] ** (1 - ax)) ** -2.0 * mu[sel]).sum()
                    tot2 += v.values[x] ** qx * inner ** (qx / 2) * mu[x]
            best1, best2 = max(best1, tot1), max(best2, tot2)
        assert I1.value == pytest.approx(best1, rel=1e-12)
        assert I2.value == pytest.approx(best2, rel=1e-12)


class TestMaximalSingularConditions:
    def test_unit_weights_stable(self):
        vals = []
        for n in (256, 512):
            sp = vx.uniform_grid(n)
            one = const(n, 1.0, "weight")
            ball, tail = vx.maximal_singular_conditions(sp, const(n, 2.0), one, one)
            vals.append(ball.value)
            assert np.isfinite(tail.value)
        # the sup sits at small t where the running integral of muB0^-2
        # approaches its series limit; it stays put under refinement
        assert 1.0 <= vals[0] <= 1.8
        assert abs(vals[1] / vals[0] - 1.0) <= 0.05

    def test_zero_v(self):
        n = 64
        sp = vx.uniform_grid(n)
        ball, tail = vx.maximal_singular_conditions(sp, const(n, 2.0),
                                                    const(n, 0.0, "test"),
                                                    const(n, 1.0, "weight"))
        assert ball.value == 0.0 and tail.value == 0.0

    def test_log_pair_specialization_finite(self):
        pair = vx.log_adjusted_weight_pair(2.0, 1.0)
        n = 256
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        dre = sp.radial_distances()
        v = vx.PointFunction(pair.v_profile(dre), "weight")
        w = vx.PointFunction(pair.w_profile(dre), "weight")
        ball, _ = vx.maximal_singular_conditions(sp, p, v, w)
        assert 0 < ball.value < 10


class TestWeightComparison:
    def test_equal_weights(self):
        n = 64
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        b1, b2, skipped = vx.annulus_weight_comparison(sp, one, one, 2.0)
        assert b1 == 1.0 and b2 == 1.0 and skipped == 0

    def test_radial_power_ratio(self):
        n = 512
        sp = vx.uniform_grid(n)
        w = vx.PointFunction(sp.radial_distances() ** 0.5, "weight")
        b1, _, _ = vx.annulus_weight_comparison(sp, w, w, 2.0)
        # monotone profile: the sup ratio is (A^2 a1)^0.5 = 2
        assert b1 == pytest.approx(2.0, abs=0.05)

    def test_degenerate_weight_rejected(self):
        n = 16
        sp = vx.uniform_grid(n)
        with pytest.raises(DomainError):
            vx.annulus_weight_comparison(sp, const(n, 1.0, "test"),
                                         const(n, 0.0, "test"), 2.0)


def reference_muckenhoupt(space, w, r):
    """The Muckenhoupt constant as a per-center loop: one stable sort of each
    row, tie-group ends from np.unique and searchsorted."""
    rp = r / (r - 1.0)
    best = 0.0
    mu = space.mu
    for x in range(space.n):
        d = space.d_from(x)
        order = np.argsort(d, kind="stable")
        ds = d[order]
        cmu = np.cumsum(mu[order])
        cw = np.cumsum((w * mu)[order])
        cwr = np.cumsum((w ** (1.0 - rp) * mu)[order])
        ends = np.searchsorted(ds, np.unique(ds), side="right") - 1
        vals = (cw[ends] / cmu[ends]) * (cwr[ends] / cmu[ends]) ** (r - 1.0)
        best = max(best, float(vals.max()))
    return best


def log_domain_muckenhoupt(space, w, r):
    """The Muckenhoupt constant as a plain loop over centers and their
    distinct radii, every average taken in logs."""
    rp = r / (r - 1.0)
    log_w, log_mu = np.log(w), np.log(space.mu)
    best = -np.inf
    for x in range(space.n):
        d = space.d_from(x)
        for rad in np.unique(d):
            ball = d <= rad
            log_m = np.logaddexp.reduce(log_mu[ball])
            avg_w = np.logaddexp.reduce(log_w[ball] + log_mu[ball]) - log_m
            avg_wr = np.logaddexp.reduce((1.0 - rp) * log_w[ball] + log_mu[ball]) - log_m
            best = max(best, avg_w + (r - 1.0) * avg_wr)
    return float(np.exp(best))


@st.composite
def tied_spaces(draw):
    """A uniform grid, a Cantor set or an asymmetric table with tied distances,
    up to a few blocks of rows."""
    kind = draw(st.sampled_from(["grid", "cantor", "explicit"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 150)))
    if kind == "cantor":
        return vx.cantor_space(draw(st.integers(1, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    dist = rng.integers(1, 6, (n, n)) / 4.0
    np.fill_diagonal(dist, 0.0)
    return vx.explicit_space(dist, rng.uniform(0.1, 1.0, n))


def check_equals_per_center_loop(sp, seed, r):
    w = np.random.default_rng(seed).uniform(0.01, 10.0, sp.n)
    got = vx.muckenhoupt_ar(sp, vx.PointFunction(w, "weight"), r)
    assert got == reference_muckenhoupt(sp, w, r)


class TestMuckenhoupt:
    @given(tied_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([1.5, 2.0, 3.7]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_center_loop_exactly(self, sp, seed, r):
        check_equals_per_center_loop(sp, seed, r)

    @given(tied_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([1.5, 2.0, 3.7]))
    @settings(max_examples=60, deadline=None)
    def test_threaded_equals_per_center_loop_exactly(self, sp, seed, r):
        # every space two threads wide, in 16-row slices, so that the helper
        # reads slices of these small spaces too
        with sweep_threads(gate=0, entries=16 * sp.n):
            check_equals_per_center_loop(sp, seed, r)

    def test_unit_weight(self):
        sp = vx.uniform_grid(128)
        assert vx.muckenhoupt_ar(sp, const(128, 1.0, "weight"), 2.0) == pytest.approx(1.0)

    def test_dichotomy(self):
        stable, blowing = [], []
        for n in (64, 256, 1024):
            sp = vx.uniform_grid(n)
            dre = sp.radial_distances()
            stable.append(vx.muckenhoupt_ar(sp, vx.PointFunction(dre**0.5, "weight"), 2.0))
            blowing.append(vx.muckenhoupt_ar(sp, vx.PointFunction(dre**1.5, "weight"), 2.0))
        assert stable[2] / stable[1] <= 1.25
        assert blowing[1] / blowing[0] >= 2.0 and blowing[2] / blowing[1] >= 2.0

    def test_needs_r_above_one(self):
        sp = vx.uniform_grid(16)
        with pytest.raises(DomainError):
            vx.muckenhoupt_ar(sp, const(16, 1.0, "weight"), 1.0)

    def test_overflowing_weight_power_is_evaluated_in_logs(self):
        # w = d0^3 at r = 1.01: w**(1 - r') = d0^-300 overflows near the basepoint
        sc = vx.Scenario.from_dict({
            "name": "overflow", "space": {"generator": "uniform-grid", "n": 256},
            "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
            "weights": {"v": {"kind": "weight", "expr": "power-of-dist(x0, 3)"},
                        "w": {"kind": "weight", "expr": "power-of-dist(x0, 3)"}},
            "conditions": ["muckenhoupt"], "params": {"r": 1.01}})
        mat = sc.materialize(256)
        got = mat.evaluate_conditions()["muckenhoupt"].value
        assert np.isfinite(got) and got > 1.0
        assert got == vx.muckenhoupt_ar(mat.space, mat.w, 1.01)
        assert got == pytest.approx(log_domain_muckenhoupt(mat.space, mat.w.values, 1.01),
                                    rel=1e-12)

    @given(tied_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([1.01, 1.2, 3.0]),
           st.sampled_from([1e-200, 1e-5, 1e5, 1e200]))
    @settings(max_examples=40, deadline=None)
    def test_scaled_weight_out_of_range_equals_log_loop(self, sp, seed, r, scale):
        # the constant does not change when w is scaled, since
        # (r' - 1)(r - 1) = 1; a scale that takes w**(1 - r') or w mu out
        # of the normal floats sends every row to logs
        w = np.random.default_rng(seed).uniform(0.5, 2.0, sp.n)
        got = vx.muckenhoupt_ar(sp, vx.PointFunction(scale * w, "weight"), r)
        assert got == pytest.approx(log_domain_muckenhoupt(sp, scale * w, r), rel=1e-12)
        assert got == pytest.approx(vx.muckenhoupt_ar(sp, vx.PointFunction(w, "weight"), r),
                                    rel=1e-12)

    def test_overflowing_ball_sum_is_evaluated_in_logs(self):
        # every term is a normal float, but the ball sums of w mu overflow
        rng = np.random.default_rng(7)
        sp = vx.explicit_space(rng.integers(1, 6, (40, 40)) / 4.0 * (1 - np.eye(40)),
                               rng.uniform(0.5, 1.0, 40))
        w = rng.uniform(0.2, 1.0, 40) * 1e308
        got = vx.muckenhoupt_ar(sp, vx.PointFunction(w, "weight"), 3.0)
        assert np.isfinite(got)
        assert got == pytest.approx(log_domain_muckenhoupt(sp, w, 3.0), rel=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        n = 40
        sp = vx.uniform_grid(n)
        w = vx.PointFunction(rng.uniform(0.2, 3.0, n), "weight")
        r = 2.5
        got = vx.muckenhoupt_ar(sp, w, r)
        rp = r / (r - 1)
        best = 0.0
        for x in range(n):
            for rad in np.unique(sp.d_from(x)):
                b = vx.ball(sp, x, rad, closed=True)
                m = b.measure
                a1 = (w.values[b.members] * sp.mu[b.members]).sum() / m
                a2 = (w.values[b.members] ** (1 - rp) * sp.mu[b.members]).sum() / m
                best = max(best, a1 * a2 ** (r - 1))
        assert got == pytest.approx(best, rel=1e-12)


class TestHardyAdjoint:
    @given(tied_spaces(), st.integers(0, 2**32 - 1))
    # the tail at x0 is 1e-8 of the total: a tail taken as the total less
    # the closed ball lost 1e-10 of it
    @example(vx.uniform_grid(2), 827815)
    @settings(max_examples=200, deadline=None)
    def test_tail_transform_is_the_adjoint(self, sp, seed):
        # sum (H_{v,w} F) G mu = sum F (H*_{w,v} G) mu: the forward sum over
        # {d0(y) < d0(x)} is the tail sum over {d0(x) > d0(y)} read from y
        rng = np.random.default_rng(seed)
        v, w = (vx.PointFunction(rng.uniform(0.1, 10.0, sp.n), "weight") for _ in range(2))
        F, G = rng.uniform(0.0, 1.0, (2, 3, sp.n)) * (rng.uniform(size=(2, 3, sp.n)) < 0.8)
        lhs = (vx.hardy_transforms(sp, v, w, F) * G * sp.mu).sum(axis=1)
        rhs = (F * vx.hardy_tail_transforms(sp, w, v, G) * sp.mu).sum(axis=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=0.0)


class TestHardyClosedForm:
    def test_power_weight_converges_from_below_at_first_order(self):
        # p = q = 2, v = 1, w = d0**(1/4) on [0, 1]: the continuum functional
        # is sup_t (1 - t) (2/3) t**(3/2), attained at t = 3/5; w is read at
        # the unfloored d0, so the basepoint's w is 0
        want = 0.4 * (2.0 / 3.0) * 0.6**1.5
        assert want == pytest.approx(0.12393547, abs=5e-9)
        errs = []
        for n in (64, 256, 1024):
            sp = vx.uniform_grid(n)
            p = const(n, 2.0)
            rep = vx.hardy_condition(sp, p, p, const(n, 1.0, "weight"),
                                     vx.PointFunction(sp.d0**0.25, "test"))
            errs.append(want - rep.value)
            assert 0.09 <= n * errs[-1] <= 0.11, n
        assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


class TestWeightFamilies:
    def test_power_pair_gamma_formula(self):
        pair = vx.power_weight_pair(2.0, 0.25, 0.25)
        assert pair.gamma_min == pytest.approx(
            max(0.0, 1 - 0.25 - 0.25 - (-0.25 + 0.5)))

    @pytest.mark.parametrize("p_value, alpha, beta", [
        (3.0, 0.1, 0.0), (2.0, 0.25, 0.25), (3.0, 0.2, 0.5), (1.5, 0.6, 0.3)])
    def test_power_pair_gamma_min_is_beta(self, p_value, alpha, beta):
        # 1 - alpha - 1/q - (-beta + 1/p') is beta exactly, not up to rounding
        pair = vx.power_weight_pair(p_value, alpha, beta)
        assert repr(pair.gamma_min) == repr(beta)
        t = np.array([0.5, 1.0, 2.0])
        assert pair.v_profile(t).tobytes() == (t**beta).tobytes()

    def test_power_pair_beta_gate(self):
        with pytest.raises(PreconditionError, match="inadmissible: beta=0.6"):
            vx.power_weight_pair(2.0, 0.25, 0.6)

    def test_power_pair_gamma_gate(self):
        # the smallest admissible gamma is 0.25; the gate allows 1e-12 below it
        for gamma in (0.25 - 1e-13, 0.3):
            pair = vx.power_weight_pair(2.0, 0.25, 0.25, gamma=gamma)
            assert pair.v_profile(np.array([0.5]))[0] == pytest.approx(0.5**gamma)
        with pytest.raises(PreconditionError, match="inadmissible: gamma=0.2 below minimum 0.25"):
            vx.power_weight_pair(2.0, 0.25, 0.25, gamma=0.2)

    def test_log_pair_profiles(self):
        pair = vx.log_adjusted_weight_pair(2.0, 1.0)
        t = np.array([0.25])
        assert pair.v_profile(t)[0] == pytest.approx(0.5)
        assert pair.w_profile(t)[0] == pytest.approx(0.5 * np.log(8.0))



class TestFunctionalInvariants:
    def test_scaling_in_v(self):
        n = 128
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 2.0)
        one = const(n, 1.0, "weight")
        base = vx.hardy_condition(sp, p, q, one, one).value
        for lam in (2.0, 10.0):
            scaled = vx.hardy_condition(sp, p, q, const(n, lam, "weight"), one).value
            assert scaled == pytest.approx(lam**2 * base, rel=1e-9)

    def test_monotone_in_weights(self):
        rng = np.random.default_rng(5)
        n = 96
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 3.0)
        v = vx.PointFunction(rng.uniform(0.2, 1.0, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 1.0, n), "weight")
        bigger_v = vx.PointFunction(v.values * rng.uniform(1.0, 2.0, n), "weight")
        bigger_w = vx.PointFunction(w.values * rng.uniform(1.0, 2.0, n), "weight")
        base = vx.hardy_condition(sp, p, q, v, w).value
        assert vx.hardy_condition(sp, p, q, bigger_v, w).value >= base
        assert vx.hardy_condition(sp, p, q, v, bigger_w).value >= base


class TestTrendRule:
    def test_stable(self):
        assert vx.finite_hint([1.0, 1.1, 1.15]) is True

    def test_divergent(self):
        assert vx.finite_hint([1.0, 2.5, 6.0]) is False

    def test_undecided(self):
        assert vx.finite_hint([1.0, 1.6, 1.7]) is None
        assert vx.finite_hint([3.0]) is None

    def test_classify(self):
        assert vx.classify_trend([1, 1, 1]) == "bounded"
        assert vx.classify_trend([1, 2, 4.5]) == "divergent"
        assert vx.classify_trend([1, 1.9]) == "undecided"

    @pytest.mark.parametrize("series", [[1.0, 2.0, np.inf], [np.inf, np.inf, np.inf],
                                        [1.0, np.nan, 1.0], [0.0, 0.0, np.inf]])
    def test_no_verdict_from_values_that_are_not_finite(self, series):
        assert vx.finite_hint(series) is None
        assert vx.classify_trend(series) == "undecided"


class TestVariableOrderExtras:
    def test_constant_fields_high_order_finite(self):
        # p = 1.5 with order 0.6 sits inside the stated regime (0.6 < 1/1.5
        # fails: 1/p_min = 2/3 > 0.6, so a warning fires) and the target
        # q = p/(1 - alpha p) = 15 stays legal; values must come out finite
        n = 128
        sp = vx.uniform_grid(n)
        p = const(n, 1.5)
        q = const(n, 15.0)
        one = const(n, 1.0, "weight")
        with pytest.warns(UserWarning):
            I1, I2 = vx.variable_order_conditions(
                sp, p, q, one, lambda t: np.ones_like(np.asarray(t)),
                const(n, 0.6, "alpha"))
        assert np.isfinite(I1.value) and np.isfinite(I2.value)

    def test_matches_radial_variant_at_constant_order(self):
        # order 0.6 with p = 2 leaves the sufficient regime of the radial
        # functional, which must still evaluate (warned) and agree exactly
        n = 128
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 4.0)
        wprof = lambda t: np.asarray(t) ** 0.3
        v = vx.PointFunction(np.ones(n), "weight")
        # order 0.6 > 1/p_min = 0.5: inside the variable-order regime
        I1, _ = vx.variable_order_conditions(sp, p, q, v, wprof,
                                             const(n, 0.6, "alpha"))
        with pytest.warns(UserWarning):
            radial = vx.radial_condition(sp, p, lambda t: np.ones_like(np.asarray(t)),
                                         wprof, "potential", alpha=0.6, q=q)
        assert I1.value == pytest.approx(radial.value, rel=1e-9)


class TestHardyCompositionRoutes:
    def test_maximal_pair_via_hardy_machinery(self):
        # composing (v/muB0, 1/w) and (v, 1/(w muB0)) into the Hardy
        # functionals reproduces the directly evaluated pair exactly
        rng = np.random.default_rng(6)
        n = 96
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        v = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        direct_ball, direct_tail = vx.maximal_singular_conditions(sp, p, v, w)
        # the basepoint's zero ball measure, floored to half its own
        # weight, never enters the regions
        muB0 = np.maximum(sp.muB0, 0.5 * sp.mu[sp.x0])
        vf = vx.PointFunction(v.values / muB0, "test")
        wf = vx.PointFunction(1.0 / w.values, "weight")
        wt = vx.PointFunction(1.0 / (w.values * muB0), "weight")
        via_ball = vx.hardy_condition(sp, p, p, vf, wf)
        via_tail = vx.hardy_tail_condition(sp, p, p, v, wt)
        assert via_ball.value == pytest.approx(direct_ball.value, rel=1e-12)
        assert via_tail.value == pytest.approx(direct_tail.value, rel=1e-12)

    def test_potential_pair_via_hardy_machinery(self):
        # same consistency for the potential composition at constant order
        rng = np.random.default_rng(7)
        n = 96
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        q = const(n, 4.0)
        alpha = 0.25
        v = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 1.5, n), "weight")
        direct_ball, _ = vx.potential_conditions(sp, p, q, v, w, alpha)
        muB0 = np.maximum(sp.muB0, 0.5 * sp.mu[sp.x0])
        v1 = vx.PointFunction(v.values * muB0 ** (alpha - 1.0), "weight")
        w1 = vx.PointFunction(1.0 / w.values, "weight")
        via_ball = vx.hardy_condition(sp, p, q, v1, w1)
        assert via_ball.value == pytest.approx(direct_ball.value, rel=1e-12)


class TestLogDomain:
    def test_hardy_near_one_is_scale_free(self):
        # p = q = 1 + 1e-7 puts the conjugate near 1e7, where w**e over- or
        # underflows; the functional is invariant under (v, w) -> (s v, w / s)
        n = 64
        sp = vx.uniform_grid(n)
        p = const(n, 1.0000001)
        reps = [vx.hardy_condition(sp, p, p, const(n, v, "weight"), const(n, w, "weight"))
                for v, w in [(1.0, 1.0), (1e200, 1e-200), (1e-200, 1e200)]]
        for rep in reps:
            assert rep.value == pytest.approx(0.98437, rel=1e-5)
            assert rep.value == pytest.approx(reps[0].value, rel=1e-12)

    @pytest.mark.parametrize("p_expr", ["const 1.01", "const 1.001", "const 1.0000001"])
    def test_hardy_divergent_stays_divergent_near_one(self, p_expr):
        # the singular weight w = 1/d0 diverges faster as p nears 1; no inner
        # sum may be dropped or collapse to 0 on the way
        data = json.loads((SCENARIOS / "hardy_divergent.json").read_text())
        del data["operator"]
        data["exponents"] = {"p": {"kind": "exponent", "expr": p_expr}}
        study = vx.refinement_study(vx.Scenario.from_dict(data), data["resolutions"])
        vals = study.condition_values["hardy"]
        assert study.condition_trends["hardy"] == "divergent"
        assert vals[0] > 120 and vals[1] / vals[0] > 3.9 and vals[2] / vals[1] > 3.9

    @given(st.integers(2, 40), st.floats(1.0000001, 20.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    # here q = 20 and s = 10**14.5: s**q times the base is above the float maximum
    @example(n=23, p_lo=1.5, spread=1.0, q_frac=0.0, s_frac=1.0, seed=0)
    def test_homogeneity_in_v(self, n, p_lo, spread, q_frac, s_frac, seed):
        # for constant q every outer base scales by s**q; s spans 1e-200..1e200
        # as far as s**q stays a float
        rng = np.random.default_rng(seed)
        sp = vx.uniform_grid(n)
        p_hi = p_lo + spread * (20.0 - p_lo)
        p = vx.PointFunction(rng.uniform(p_lo, p_hi, n), "exponent")
        q_val = p_hi + q_frac * (20.0 - p_hi)
        q = const(n, q_val)
        log_s = s_frac * min(200.0, 290.0 / q_val) * np.log(10.0)
        v = rng.uniform(0.5, 2.0, n)
        w = vx.PointFunction(rng.uniform(0.5, 2.0, n), "weight")

        def reports(scale):
            vs = vx.PointFunction(scale * v, "weight")
            return [vx.hardy_condition(sp, p, q, vs, w),
                    vx.hardy_tail_condition(sp, p, q, vs, w),
                    *vx.potential_conditions(sp, p, q, vs, w, 0.5 / p_hi)]

        # compared in logs: s**q times the base may exceed the float range,
        # where the value is inf and its log is kept
        for got, base in zip(reports(np.exp(log_s)), reports(1.0)):
            assert base.value > 0
            assert got.log_value == pytest.approx(q_val * log_s + np.log(base.value), abs=1e-9)


def accumulated_partial_sums(r, at, head):
    """``conditions._log_partial_sums`` by ``np.logaddexp.accumulate``, one
    row at a time."""
    b, n = r.shape
    lsum = np.full((b, n + 1), -np.inf)
    for i in range(b):
        if head:
            lsum[i, 1:] = np.logaddexp.accumulate(r[i])
        else:
            lsum[i, :-1] = np.logaddexp.accumulate(r[i, ::-1])[::-1]
    return lsum[:, at]


class TestLogPartialSums:
    @given(st.integers(1, 5), st.integers(0, 12), st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([1.0, 30.0, 400.0, 2000.0]), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=300, deadline=None)
    # the head entry -744 underflows to a subnormal once its row is scaled by
    # its maximum 0
    @example(b=1, n=2, head=True, seed=0, spread=0.0, holes=0.0)
    def test_equals_logaddexp_accumulate(self, b, n, head, seed, spread, holes):
        # spreads of 400 and 2000 put entries more than 745 below their row's
        # maximum, where the scaled terms underflow; holes are -inf entries
        # (all of a row at 1.0), and n = 0 is a block with no columns
        rng = np.random.default_rng(seed)
        r = rng.uniform(-spread, spread, (b, n))
        r[rng.uniform(size=(b, n)) < holes] = -np.inf
        if spread == 0.0 and n == 2:
            r[0] = [-744.0, 0.0]
        at = np.sort(rng.integers(0, n + 1, rng.integers(0, 2 * n + 3)))
        want = accumulated_partial_sums(r, at, head)
        got = conditions._log_partial_sums(r.copy(), at, head)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def plain_curve(space, O, inner, gamma, forward):
    """The sweep curve by a per-t, per-x loop in the direct domain; inner(x)
    is the integrand times mu at every point, and its infinite entries (the
    atoms) are left out of the inner sum."""
    d0, L = space.d0, space.L_eff
    cap = d0 <= L * (1 + 1e-12)
    curve = []
    for t in t_sweep(space):
        total = 0.0
        for x in range(space.n):
            if not cap[x] or O[x] == 0 or (t < d0[x]) != forward:
                continue
            with np.errstate(divide="ignore", over="ignore"):
                f = inner(x)
            region = ((d0 <= t) if forward else (d0 > t)) & cap & np.isfinite(f)
            W = f[region].sum()
            if W > 0:
                total += O[x] * W ** gamma[x]
        curve.append(total)
    return np.array(curve)


def every_functional(sp, p, q, v, w, al, a, b):
    """(report, outer base, inner integrand, gamma, forward) of each
    sweep functional, the last four written out from the docstrings."""
    mu, d0, x0 = sp.mu, sp.d0, sp.x0
    P, Q, V, Wv, A = p.values, q.values, v.values, w.values, al.values
    alpha = 0.5 / P.max()
    muB0 = np.array([vx.ball(sp, x0, d).measure for d in d0])
    safe = np.where(muB0 > 0, muB0, 1.0)
    dsafe = np.where(d0 > 0, d0, 1.0)
    le = vx.local_exponents(sp, p)
    eb, et = vx.conjugate(le.ball_min_capped).values, vx.conjugate(le.tail_min).values
    eB, eT = vx.conjugate(le.ball_min).values, vx.conjugate(le.tail_min).values
    pc0 = np.full(sp.n, P[x0] / (P[x0] - 1.0))
    vprof, wprof = (lambda t: np.asarray(t) ** a), (lambda t: np.asarray(t) ** b)
    dre = sp.radial_distances()
    vr, wr = vprof(dre), wprof(dre)
    with np.errstate(divide="ignore"):
        ball_base = np.where(muB0 > 0, (V * safe ** (alpha - 1)) ** Q * mu, 0.0)
        dist_base = np.where(d0 > 0, (V * dsafe ** (A - 1)) ** Q * mu, 0.0)
        order_base = np.where(muB0 > 0, (V * safe ** (A - 1)) ** Q * mu, 0.0)
        max_base = np.where(muB0 > 0, (V / safe) ** P * mu, 0.0)
        rad_pot = np.where(muB0 > 0, (vr / safe ** (1 - alpha)) ** Q * mu, 0.0)
        rad_dist = np.where(d0 > 0, (vr / dsafe ** (1 - alpha)) ** Q * mu, 0.0)
        rad_max = np.where(muB0 > 0, (vr / safe) ** P * mu, 0.0)
    cases = [
        (vx.hardy_condition(sp, p, q, v, w), V ** Q * mu,
         lambda x: Wv ** eb[x] * mu, Q / eb, True),
        (vx.hardy_tail_condition(sp, p, q, v, w), V ** Q * mu,
         lambda x: Wv ** et[x] * mu, Q / et, False),
    ]
    ball, tail = vx.potential_conditions(sp, p, q, v, w, alpha)
    cases += [(ball, ball_base, lambda x: Wv ** -eb[x] * mu, Q / eb, True),
              (tail, V ** Q * mu, lambda x: (Wv * muB0 ** (1 - alpha)) ** -et[x] * mu,
               Q / et, False)]
    ball, tail = vx.distance_potential_conditions(sp, p, q, v, w, al)
    cases += [(ball, dist_base, lambda x: Wv ** -eB[x] * mu, Q / eB, True),
              (tail, V ** Q * mu,
               lambda x: np.where(d0 > 0, (Wv * dsafe ** (1 - A)) ** -eT[x], 0.0) * mu,
               Q / eT, False)]
    for variant, base, e, power in [("potential", rad_pot, eb, Q),
                                    ("potential-basepoint", rad_pot, pc0, Q),
                                    ("distance-potential", rad_dist, eB, Q),
                                    ("maximal", rad_max, eb, P),
                                    ("maximal-basepoint", rad_max, pc0, P)]:
        rep = vx.radial_condition(sp, p, vprof, wprof, variant, alpha=alpha, q=q)
        cases.append((rep, base, lambda x, e=e: wr ** -e[x] * mu, power / e, True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ball, tail = vx.variable_order_conditions(sp, p, q, v, wprof, al)
    cases += [(ball, order_base, lambda x: wr ** -eB[x] * mu, Q / eB, True),
              (tail, V ** Q * mu,
               lambda x: np.where(muB0 > 0, (wr * safe ** (1 - A[x])) ** -eT[x], 0.0) * mu,
               Q / eT, False)]
    ball, tail = vx.maximal_singular_conditions(sp, p, v, w)
    cases += [(ball, max_base, lambda x: Wv ** -eb[x] * mu, P / eb, True),
              (tail, V ** P * mu, lambda x: (Wv * muB0) ** -et[x] * mu, P / et, False)]
    return cases


@st.composite
def small_spaces(draw):
    """Grids, Cantor sets and tied tables of at most 24 points; a table's
    diameter L may lie past its largest distance."""
    kind = draw(st.sampled_from(["grid", "cantor", "explicit"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 24)))
    if kind == "cantor":
        return vx.cantor_space(draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 24))
    dist = rng.integers(1, 6, (n, n)) / 4.0
    np.fill_diagonal(dist, 0.0)
    return vx.explicit_space(dist, rng.uniform(0.1, 1.0, n), x0=draw(st.integers(0, n - 1)),
                             L=draw(st.sampled_from([1.25, 1.5])))


def check_every_functional(sp, seed, p_varies, q_varies, a, b):
    """Every sweep functional on random fields equals its plain loop."""
    rng = np.random.default_rng(seed)
    n = sp.n
    p = vx.PointFunction(rng.uniform(1.3, 3.0, n) if p_varies else np.full(n, 2.2),
                         "exponent")
    q = vx.PointFunction(p.values + (rng.uniform(0.0, 1.0, n) if q_varies else 0.5),
                         "exponent")
    v = vx.PointFunction(rng.uniform(0.2, 5.0, n), "weight")
    w = vx.PointFunction(rng.uniform(0.2, 5.0, n), "weight")
    al = vx.PointFunction(rng.uniform(0.05, 0.95, n) / p.values.max(), "alpha")
    ts = t_sweep(sp)
    L = sp.L_eff
    knots = np.isin(ts, np.concatenate([[0.0], sp.d0[sp.d0 <= L], [L]]))
    for rep, O, inner, gamma, forward in every_functional(sp, p, q, v, w, al, a, b):
        assert np.array_equal(rep.ts, ts)
        np.testing.assert_allclose(rep.curve, plain_curve(sp, O, inner, gamma, forward),
                                   rtol=1e-12, atol=0, err_msg=rep.name)
        # a midpoint lies in the same half-open regions as the knot below it
        mids = np.flatnonzero(~knots)
        assert np.array_equal(rep.curve[mids], rep.curve[mids - 1]), rep.name
        j = int(rep.curve.argmax())
        assert rep.value == rep.curve[j] and rep.argmax_t == ts[j] and knots[j]


class TestBlockPathAgainstLoops:
    @given(small_spaces(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_every_functional_equals_plain_loop(self, sp, seed, p_varies, q_varies, a, b):
        check_every_functional(sp, seed, p_varies, q_varies, a, b)

    @given(small_spaces(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.3]), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_small_blocks_equal_plain_loop(self, sp, seed, p_varies, q_varies, a, b, per_block):
        # every space above fits one block; here each block holds 1-3 outer
        # points, so a block's knots and mask bounds fall inside the sweep
        L = sp.L_eff
        knots = np.unique(np.concatenate([[0.0], sp.d0[sp.d0 <= L], [L]]))
        with mock.patch.object(conditions, "_BLOCK_ELEMS", per_block * max(sp.n, knots.size)):
            check_every_functional(sp, seed, p_varies, q_varies, a, b)


class TestRadialPointwiseAgreement:
    @given(small_spaces(), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([0.0, 0.5]), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_radial_equals_composed_pointwise(self, sp, seed, p_varies, a, b):
        # each radial variant is the ball half of its pair on the composed
        # fields v(d0), w(d0), and the variable-order ball half at constant
        # order is the potential ball half: their curves agree exactly
        rng = np.random.default_rng(seed)
        n = sp.n
        p = vx.PointFunction(rng.uniform(1.3, 3.0, n) if p_varies else np.full(n, 2.2),
                             "exponent")
        alpha = 0.5 / p.values.max()
        al = vx.PointFunction(np.full(n, alpha), "alpha")
        q = vx.sobolev_exponent(p, al)
        vprof, wprof = (lambda t: np.asarray(t) ** a), (lambda t: np.asarray(t) ** b)
        dre = sp.radial_distances()
        v = vx.PointFunction(vprof(dre), "weight")
        w = vx.PointFunction(wprof(dre), "weight")
        balls = {"potential": vx.potential_conditions(sp, p, q, v, w, alpha)[0],
                 "distance-potential": vx.distance_potential_conditions(sp, p, q, v, w, al)[0],
                 "maximal": vx.maximal_singular_conditions(sp, p, v, w)[0]}
        for variant, ball in balls.items():
            radial = vx.radial_condition(sp, p, vprof, wprof, variant, alpha=alpha, q=q)
            assert np.array_equal(radial.curve, ball.curve), variant
        with warnings.catch_warnings():
            # a constant order may leave the stated regime 1/p_min < alpha
            warnings.simplefilter("ignore")
            order_ball, _ = vx.variable_order_conditions(sp, p, q, v, wprof, al)
        assert np.array_equal(order_ball.curve, balls["potential"].curve)


class TestAnnulusAgainstLoop:
    @given(tied_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([1.01, 1.2, 2.0, 3.0]),
           st.sampled_from([0.3, 1.0, 2.5]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_point_annulus_loop(self, sp, seed, A, a1, zeros):
        rng = np.random.default_rng(seed)
        vv = rng.uniform(0.0, 5.0, sp.n)
        if zeros:
            vv[rng.uniform(size=sp.n) < 0.5] = 0.0
        wv = rng.uniform(0.01, 5.0, sp.n)
        b1 = b2 = 0.0
        skipped = 0
        for x in range(sp.n):
            members, _ = vx.comparison_annulus(sp, x, A, a1=a1)
            if members.size == 0:
                skipped += 1
                continue
            b1 = max(b1, float(vv[members].max() / wv[x]))
            b2 = max(b2, float(vv[x] / wv[members].min()))
        got = vx.annulus_weight_comparison(sp, vx.PointFunction(vv, "test"),
                                           vx.PointFunction(wv, "weight"), A, a1)
        assert repr(got) == repr((b1, b2, skipped))

    @pytest.mark.parametrize("A, a1", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0)])
    def test_bad_scale_rejected(self, A, a1):
        sp = vx.uniform_grid(8)
        one = const(8, 1.0, "weight")
        with pytest.raises(DomainError):
            vx.annulus_weight_comparison(sp, one, one, A, a1)


CONDITION_SWEEP = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios" \
    / "condition_sweep.json"
SUP_TAGS = [t for t in json.loads(CONDITION_SWEEP.read_text())["conditions"]
            if t not in ("annulus-comparison", "muckenhoupt")]
# the (ball, tail) pairs: each names the tags <pair>-ball and <pair>-tail
PAIRS = ("potential", "distance", "variable-order", "maximal")
# each coinciding tag and the tag first evaluated with the same bytes
COINCIDING = {"radial-potential": "potential-ball",
              "radial-potential-basepoint": "potential-ball",
              "variable-order-ball": "potential-ball",
              "radial-maximal": "maximal-ball",
              "radial-maximal-basepoint": "maximal-ball",
              "radial-distance-potential": "distance-ball",
              "variable-order-tail": "potential-tail"}


def sweep_reports(tags, n=256):
    """The condition-sweep scenario's reports of ``tags`` on a new space,
    with that space."""
    data = json.loads(CONDITION_SWEEP.read_text())
    data["conditions"] = list(tags)
    mat = vx.Scenario.from_dict(data).materialize(n)
    with warnings.catch_warnings():
        # the scenario's variable-order regime warning is expected
        warnings.simplefilter("ignore")
        return mat.evaluate_conditions(), mat.space


def assert_same_report(got, want):
    assert got.name == want.name and got.resolution == want.resolution
    assert repr((got.value, got.argmax_t, got.log_value)) \
        == repr((want.value, want.argmax_t, want.log_value))
    assert got.ts.tobytes() == want.ts.tobytes()
    assert got.curve.tobytes() == want.curve.tobytes()
    assert got.meta == want.meta


class TestSupMemo:
    def test_coinciding_tags_equal_fresh_evaluations(self):
        reports, _ = sweep_reports(SUP_TAGS)
        for tag, first in COINCIDING.items():
            rep = reports[tag]
            # a memo hit: the first report's arrays under its own name
            assert rep.curve is reports[first].curve and rep.ts is reports[first].ts
            assert rep.meta is not reports[first].meta
            fresh, _ = sweep_reports([tag])
            assert_same_report(rep, fresh[tag])

    def test_sweep_evaluates_each_distinct_functional_once(self):
        reports, space = sweep_reports(SUP_TAGS)
        assert len(space._sup_memo) == 8
        assert len({id(reports[t].curve) for t in SUP_TAGS}) == 8

    def test_power_pair_tags_share_one_evaluation(self):
        sc = vx.Scenario.from_dict(json.loads((SCENARIOS / "power_pair_bounded.json").read_text()))
        mat = sc.materialize(128)
        reports = mat.evaluate_conditions()
        assert reports["radial-potential"].curve is reports["potential-ball"].curve
        # the potential pair evaluates only the ball half its tags read
        assert len(mat.space._sup_memo) == 1

    @pytest.mark.parametrize("tag", [f"{pair}-{half}" for pair in PAIRS
                                     for half in ("ball", "tail")])
    def test_one_listed_half_is_evaluated_alone(self, tag):
        # the pair's other half is not evaluated, and the listed one is the
        # report it is when both are listed
        reports, space = sweep_reports([tag], n=64)
        assert len(space._sup_memo) == 1
        other = tag[:-4] + {"ball": "tail", "tail": "ball"}[tag[-4:]]
        both, _ = sweep_reports([tag, other], n=64)
        assert_same_report(reports[tag], both[tag])

    def test_shared_arrays_are_read_only(self):
        reports, _ = sweep_reports(["potential-ball", "radial-potential"])
        for rep in reports.values():
            for arr in (rep.ts, rep.curve):
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        # a memo partner's meta is its own copy
        reports["radial-potential"].meta["mark"] = -1
        assert reports["potential-ball"].meta == {}

    def test_one_ulp_change_is_evaluated_afresh(self):
        space = lambda: vx.cantor_space(6)
        sp, x = space(), 40
        rng = np.random.default_rng(7)
        p = vx.PointFunction(rng.uniform(2.0, 3.0, sp.n), "exponent")
        q = vx.PointFunction(p.values + 1.0, "exponent")
        v = vx.PointFunction(rng.uniform(0.5, 2.0, sp.n), "weight")
        w = vx.PointFunction(rng.uniform(0.5, 2.0, sp.n), "weight")

        def nudged(f, at):
            vals = f.values.copy()
            vals[at] = np.nextafter(vals[at], 0.0)
            return vx.PointFunction(vals, f.kind)

        vx.potential_conditions(sp, p, q, v, w, 0.1)
        p_down = vx.PointFunction(np.nextafter(p.values, 0.0), "exponent")
        cases = [(p, q, nudged(v, x), w, 0.1), (p, q, v, nudged(w, x), 0.1),
                 (p_down, q, v, w, 0.1), (p, q, v, w, 0.12)]
        for args in cases:
            seen = len(sp._sup_memo)
            got = vx.potential_conditions(sp, *args)
            # a half whose logs round to the same bytes is a hit, and equal
            # to its evaluation on a new space as every half is
            assert len(sp._sup_memo) > seen
            fresh = vx.potential_conditions(space(), *args)
            for half in (0, 1):
                assert_same_report(got[half], fresh[half])

    def test_non_constant_order_field_keeps_its_values(self):
        sp = vx.uniform_grid(48)
        d0 = sp.d0
        p = vx.PointFunction(2.0 + 0.5 * d0, "exponent")
        q = vx.PointFunction(p.values + 1.0, "exponent")
        v = vx.PointFunction(sp.radial_distances() ** 0.3, "weight")
        wprof = lambda t: np.asarray(t) ** 0.25
        al = vx.PointFunction(0.55 + 0.1 * d0, "alpha")
        ball, tail = vx.variable_order_conditions(sp, p, q, v, wprof, al)
        # the values before the inner integrands became data
        assert repr((ball.value, ball.argmax_t, ball.log_value, float(ball.curve.sum()))) \
            == repr((0.9817581158147337, 0.40425531914893614, -0.018410318876512566,
                     64.90717828737843))
        assert repr((tail.value, tail.argmax_t, tail.log_value, float(tail.curve.sum()))) \
            == repr((0.09420633528175176, 0.3404255319148936, -2.3622678461394555,
                     5.098407089957363))
        # an order constant everywhere but at one point is not folded, and
        # differs from the constant order
        vals = np.full(sp.n, 0.6)
        const_tail = vx.variable_order_conditions(sp, p, q, v, wprof,
                                                  vx.PointFunction(vals, "alpha"))[1]
        vals[30] = 0.65
        varied = vx.variable_order_conditions(sp, p, q, v, wprof,
                                              vx.PointFunction(vals, "alpha"))[1]
        assert varied.curve.tobytes() != const_tail.curve.tobytes()


@st.composite
def line_and_table_spaces(draw):
    """Grids, line spaces on distinct coordinates of a 0.1 lattice (ties on
    both sides of an inner basepoint), and tables with tied distances; a
    line or table may be a truncated infinite model (L = inf)."""
    kind = draw(st.sampled_from(["grid", "line", "table"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    mu = rng.uniform(0.1, 1.0, n)
    x0 = draw(st.integers(0, n - 1))
    if kind == "line":
        coords = rng.choice(40, n, replace=False) * 0.1
        return vx.space_from_spec({"points": [{"coord": c} for c in coords],
                                   "metric": "euclidean1d", "mu": mu.tolist(), "x0": x0,
                                   "L": draw(st.sampled_from([1.0, 2.5, "inf"]))})
    dist = rng.integers(1, 6, (n, n)) / 4.0
    np.fill_diagonal(dist, 0.0)
    return vx.explicit_space(dist, mu, x0=x0, L=draw(st.sampled_from([0.75, 1.25, np.inf])))


def finite_inner_entries(calls):
    """A stand-in for ``conditions._sup_functional`` that requires every
    inner log-integrand entry on the columns the call sums, in each outer
    point's row, to be below +inf and not NaN, then evaluates; ``calls``
    gets each report's name."""
    evaluate = conditions._sup_functional

    def checked(space, name, log_outer, forward, gamma, e, base, term):
        d0, L = space.d0, space.L_eff
        capped = d0 <= L * (1 + 1e-12)
        # a forward sum reads {d0 <= t} up to t = L, a tail {t < d0} from t = 0
        cols = d0 <= L if forward else capped & (d0 > 0)
        xs = np.flatnonzero(capped & (log_outer > -np.inf))
        inner = base[cols] if term is None else base[cols] + term[0][xs, None] * term[1][cols]
        with np.errstate(invalid="ignore", over="ignore"):
            rows = e[xs, None] * inner + np.log(space.mu[cols])
        assert not np.any(np.isposinf(rows) | np.isnan(rows)), name
        calls.append(name)
        return evaluate(space, name, log_outer, forward, gamma, e, base, term)

    return checked


class TestInnerEntriesFinite:
    @given(line_and_table_spaces(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_no_inner_entry_is_inf_or_nan(self, sp, seed, zeros):
        # every sweep tag on the condition-sweep fields, and the Hardy pair
        # with zeros in v and w (a fraction ``zeros`` of the points, 1.0 all)
        calls = []
        rng = np.random.default_rng(seed)
        n = sp.n
        p = vx.PointFunction(rng.uniform(1.3, 3.0, n), "exponent")
        q = vx.PointFunction(p.values + 0.5, "exponent")
        v, w = (np.where(rng.uniform(size=n) < zeros, 0.0, rng.uniform(0.2, 5.0, n))
                for _ in range(2))
        data = json.loads(CONDITION_SWEEP.read_text())
        data["conditions"] = SUP_TAGS
        with mock.patch.object(conditions, "_sup_functional", finite_inner_entries(calls)):
            with warnings.catch_warnings():
                # the scenario's variable-order regime warning is expected
                warnings.simplefilter("ignore")
                Materialized(vx.Scenario.from_dict(data), sp).evaluate_conditions()
            assert sorted(calls) == sorted(SUP_TAGS)
            vf, wf = vx.PointFunction(v, "test"), vx.PointFunction(w, "test")
            vx.hardy_condition(sp, p, q, vf, wf)
            vx.hardy_tail_condition(sp, p, q, vf, wf)
        assert calls[-2:] == ["hardy", "hardy-tail"]
