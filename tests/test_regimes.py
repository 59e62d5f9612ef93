"""Regimes beyond the unit grid: asymmetric quasimetrics, truncated
infinite-diameter models, and spaces with heavy distance ties."""
import numpy as np
import pytest

import vexleb as vx


def asymmetric_space(n=64, skew=1.3):
    c = np.linspace(0, 1, n)
    base = np.abs(c[:, None] - c[None, :])
    dist = base * np.where(c[:, None] > c[None, :], skew, 1.0)
    return vx.explicit_space(dist, np.full(n, 1 / n), 0, float(dist.max()), coords=c)


def truncated_infinite_model(m=129, reach=4.0, cap=1.0):
    c = np.linspace(0, reach, m)
    sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]), np.full(m, reach / m),
                           0, np.inf, trunc_radius=reach, coords=c)
    pv = np.where(c <= cap, 2.0 + c, 3.0)
    return sp, vx.PointFunction(pv, "exponent"), cap


class TestAsymmetricQuasimetric:
    def test_detects_asymmetry_constant(self):
        g = vx.geometry_constants(asymmetric_space(skew=1.3))
        assert g.a0 == pytest.approx(1.3)
        assert g.a1 <= 1.0 + 1e-9

    def test_operators_and_conditions_run(self):
        sp = asymmetric_space()
        n = sp.n
        p = vx.PointFunction.constant(n, 2.0, "exponent")
        one = vx.PointFunction.constant(n, 1.0, "weight")
        f = np.ones((1, n))
        rep = vx.hardy_condition(sp, p, p, one, one)
        assert np.isfinite(rep.value) and rep.value > 0
        assert np.allclose(vx.maximal_functions(sp, f), 1.0)
        pot = vx.ball_potentials(sp, vx.PointFunction.constant(n, 0.5, "alpha"), f)
        assert np.all(np.isfinite(pot))

    def test_hardy_condition_brute_force(self):
        from vexleb.conditions import t_sweep
        rng = np.random.default_rng(17)
        sp = asymmetric_space(n=30)
        n = sp.n
        p = vx.PointFunction(rng.uniform(1.3, 2.2, n), "exponent")
        q = vx.PointFunction(p.values + 0.5, "exponent")
        v = vx.PointFunction(rng.uniform(0.2, 1.3, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 1.3, n), "weight")
        rep = vx.hardy_condition(sp, p, q, v, w)
        le = vx.local_exponents(sp, p)
        e = vx.conjugate(le.ball_min_capped).values
        d0, mu, L = sp.d0, sp.mu, sp.L_eff
        best = 0.0
        for t in t_sweep(sp):
            total = 0.0
            for x in range(n):
                if not (t < d0[x] <= L):
                    continue
                inner = ((w.values ** e[x]) * mu)[d0 <= t].sum()
                total += v.values[x] ** q.values[x] * inner ** (q.values[x] / e[x]) * mu[x]
            best = max(best, total)
        assert rep.value == pytest.approx(best, rel=1e-12)


class TestTruncatedInfiniteModel:
    def test_constant_tail_splice(self):
        sp, p, cap = truncated_infinite_model()
        le = vx.local_exponents(sp, p, a=cap)
        beyond = sp.d0 > cap
        assert np.all(le.ball_min_capped.values[beyond] == 3.0)
        assert np.all(le.tail_min.values[beyond] == 3.0)

    def test_hardy_condition_uses_cap(self):
        sp, p, cap = truncated_infinite_model()
        one = vx.PointFunction.constant(sp.n, 1.0, "weight")
        q = vx.PointFunction.constant(sp.n, 3.5, "exponent")
        rep = vx.hardy_condition(sp, p, q, one, one, a=cap)
        assert np.isfinite(rep.value) and rep.value > 0



class TestTieHeavySpaces:
    def test_cantor_hardy_condition(self):
        sp = vx.cantor_space(6)
        p = vx.PointFunction.constant(sp.n, 2.0, "exponent")
        one = vx.PointFunction.constant(sp.n, 1.0, "weight")
        rep = vx.hardy_condition(sp, p, p, one, one)
        assert rep.value == pytest.approx(0.25, abs=0.05)

    def test_cantor_maximal_and_ratio(self):
        sp = vx.cantor_space(6)
        assert np.allclose(vx.maximal_functions(sp, np.ones((1, sp.n))), 1.0)
        p = vx.PointFunction.constant(sp.n, 2.0, "exponent")
        one = vx.PointFunction.constant(sp.n, 1.0, "weight")
        est = vx.empirical_ratio(sp, lambda fv: fv, p, p, one, one, seed=0)
        assert est.ratio == pytest.approx(1.0, rel=1e-9)

    def test_two_point_ties_in_hardy(self):
        # three points at equal basepoint distance share one shell
        dist = np.array([[0.0, 1.0, 1.0, 2.0],
                         [1.0, 0.0, 2.0, 1.0],
                         [1.0, 2.0, 0.0, 1.0],
                         [2.0, 1.0, 1.0, 0.0]])
        sp = vx.explicit_space(dist, np.full(4, 0.25), 0, 2.0)
        one_w = vx.PointFunction.constant(4, 1.0, "weight")
        out = vx.hardy_transforms(sp, one_w, one_w, np.ones((1, 4)))[0]
        # points 1 and 2 are equidistant: neither sees the other
        assert out[1] == out[2] == pytest.approx(0.25)
        assert out[3] == pytest.approx(0.75)
