import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vexleb as vx
from vexleb.norms import _modular_arrays


def const(n, v, kind="exponent"):
    return vx.PointFunction.constant(n, v, kind)


def random_space(rng, n):
    coords = np.sort(rng.uniform(0.0, 1.0, n))
    coords[0] = 0.0
    dist = np.abs(coords[:, None] - coords[None, :])
    # perturb weights so ties in coords cannot make distances vanish
    bad = np.any(dist + np.eye(n) <= 0)
    if bad:
        coords = np.linspace(0, 1, n)
        dist = np.abs(coords[:, None] - coords[None, :])
    mu = rng.uniform(0.3, 1.7, n)
    mu /= mu.sum()
    return vx.explicit_space(dist, mu, 0, 1.0, coords=coords)


def holder_sides(space, p, f, g, subset=None):
    """Both sides of the variable-exponent Hoelder inequality on a set E,
    the ``subset`` of point ids (all points by default):

        sum_E |f g| mu  <=  (1/p_min(E) + 1/p'_min(E)) ||f||_{p,E} ||g||_{p',E}

    where a norm over E is that of the function set to 0 outside it."""
    E = np.zeros(space.n, dtype=bool)
    E[slice(None) if subset is None else subset] = True
    pc = vx.conjugate(p)
    lhs = float((np.abs(f.values * g.values) * space.mu)[E].sum())
    fE = vx.PointFunction(np.where(E, f.values, 0.0), "test")
    gE = vx.PointFunction(np.where(E, g.values, 0.0), "test")
    rhs = (1.0 / p.values[E].min() + 1.0 / pc.values[E].min()) \
        * vx.luxemburg_norm(space, p, fE).value * vx.luxemburg_norm(space, pc, gE).value
    return lhs, float(rhs)


def lambda_scan_norm(space, p, f, lo=1e-6, hi=1e3, steps=200_000):
    """Independent oracle: geometric scan for the smallest lambda with
    modular <= 1, refined once around the crossing."""
    lams = np.geomspace(lo, hi, steps)
    vals = np.array([vx.modular(space, p, vx.PointFunction(f.values / lam, "test"))
                     for lam in lams])
    k = int(np.argmax(vals <= 1.0))
    if k == 0:
        return lams[0]
    fine = np.linspace(lams[k - 1], lams[k], 2000)
    for lam in fine:
        if vx.modular(space, p, vx.PointFunction(f.values / lam, "test")) <= 1.0:
            return float(lam)
    return float(lams[k])


class TestModular:
    def test_zero(self):
        sp = vx.uniform_grid(16)
        assert vx.modular(sp, const(16, 2.0), const(16, 0.0, "test")) == 0.0

    def test_unit_function_unit_mass(self):
        sp = vx.uniform_grid(16)
        for pv in (1.5, 2.0, 7.0):
            assert vx.modular(sp, const(16, pv), const(16, 1.0, "test")) == pytest.approx(1.0)

    def test_constant_exponent_homogeneity(self):
        rng = np.random.default_rng(0)
        sp = random_space(rng, 32)
        g = vx.PointFunction(rng.uniform(0, 3, 32), "test")
        f = vx.PointFunction(2.0 * g.values, "test")
        p = const(32, 2.0)
        assert vx.modular(sp, p, f) == pytest.approx(4.0 * vx.modular(sp, p, g), rel=1e-12)

    def test_subset(self):
        # the modular over a set is that of f set to 0 outside it
        sp = vx.uniform_grid(10)
        f = vx.PointFunction(np.arange(10) < 5, "test")
        assert vx.modular(sp, const(10, 3.0), f) == pytest.approx(0.5)


    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_block_modular_equals_gather_scatter(self, seed, rows, variable_p):
        # the former form: power only at the gathered nonzero entries
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        fv = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        fv[rng.uniform(size=(rows, n)) < 0.3] = 0.0
        pv = rng.uniform(1.01, 6.0, n) if variable_p else np.full(n, rng.uniform(1.01, 6.0))
        mu = rng.uniform(0.1, 1.0, n)
        absf = np.abs(fv)
        pos = absf > 0
        powered = np.zeros_like(absf)
        powered[pos] = absf[pos] ** np.broadcast_to(pv, absf.shape)[pos]
        assert np.array_equal(_modular_arrays(fv, pv, mu), (powered * mu).sum(axis=-1))


class TestLuxemburgNorm:
    def test_zero_function(self):
        sp = vx.uniform_grid(16)
        res = vx.luxemburg_norm(sp, const(16, 2.0), const(16, 0.0, "test"))
        assert res.value == 0.0 and res.bisection_iters == 0

    @pytest.mark.parametrize("pval", [1.5, 2.0, 3.0])
    def test_constant_exponent_closed_form(self, pval):
        rng = np.random.default_rng(int(pval * 10))
        for _ in range(20):
            n = int(rng.integers(64, 300))
            sp = random_space(rng, n)
            f = vx.PointFunction(rng.uniform(0, 5, n) * rng.integers(0, 2, n), "test")
            if not f.values.any():
                continue
            res = vx.luxemburg_norm(sp, const(n, pval), f)
            closed = math.fsum(np.abs(f.values) ** pval * sp.mu) ** (1 / pval)
            assert res.value == pytest.approx(closed, rel=1e-13)

    def test_constant_exponent_norm_below_the_floats(self):
        # the norm, about 1.6e-400, underflows: the closed form would read 0
        # with the bracket closed, so the row takes the Newton steps, which
        # leave it unconverged
        sp = vx.explicit_space([[0.0, 1.0], [1.0, 0.0]], [1e-300, 1e-300], 0, 1.0)
        with np.errstate(divide="ignore"):
            res, = vx.luxemburg_norms(sp, const(2, 1.5), np.full((1, 2), 1e-200))
        assert res.value > 0.0 and not res.converged

    @pytest.mark.parametrize("pv", [[1.5, 1.5], [1.5, 1.6]], ids=["constant", "variable"])
    def test_norm_below_the_normal_floats_ends_unconverged(self, pv):
        # the norm, about 1.6e-400, lies below the normal floats, and the
        # first lower end, max |f| (mu / 2)**(1 / p), underflows to 0: the
        # row ends within a few evaluations and without a warning, its
        # bracket (0, hi) with hi at most the smallest normal float
        sp = vx.DiscreteSpace(None, mu=[1e-300, 1e-300], x0=0, L=1.0, coords=[0.0, 1.0])
        p, f = vx.PointFunction(pv, "exponent"), np.full(2, 1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = vx.luxemburg_norm(sp, p, vx.PointFunction(f, "test"))
        lo, hi = res.bracket
        assert lo == 0.0 and 0.0 < hi <= np.finfo(float).tiny and res.value == hi
        assert not res.converged and res.bisection_iters <= 4
        assert res.modular_at_value == vx.modular(sp, p, vx.PointFunction(f / hi, "test")) <= 1.0

    def test_two_point_variable_exponent(self):
        sp = vx.explicit_space([[0, 1], [1, 0]], [0.5, 0.5], 0, 1.0)
        p = vx.PointFunction([2.0, 4.0], "exponent")
        f = vx.PointFunction([2.0, 2.0], "test")
        res = vx.luxemburg_norm(sp, p, f)
        # with u = (2/lam)^2 the modular is u/2 + u^2/2 = 1 at u = 1, lam = 2
        assert res.value == pytest.approx(2.0, rel=1e-9)
        assert lambda_scan_norm(sp, p, f) == pytest.approx(2.0, rel=1e-3)

    def test_against_lambda_scan(self):
        rng = np.random.default_rng(5)
        sp = random_space(rng, 24)
        p = vx.PointFunction(rng.uniform(1.2, 4.0, 24), "exponent")
        f = vx.PointFunction(rng.uniform(0, 2, 24), "test")
        res = vx.luxemburg_norm(sp, p, f)
        assert res.value == pytest.approx(lambda_scan_norm(sp, p, f), rel=1e-3)

    def test_unit_ball_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(8, 64))
            sp = random_space(rng, n)
            p = vx.PointFunction(rng.uniform(1.1, 6.0, n), "exponent")
            f = vx.PointFunction(rng.uniform(0, 4, n), "test")
            res = vx.luxemburg_norm(sp, p, f)
            if res.value == 0:
                continue
            assert 1 - 1e-8 <= res.modular_at_value <= 1.0
            squeezed = vx.modular(
                sp, p, vx.PointFunction(f.values / (res.value * (1 - 1e-8)), "test"))
            assert squeezed > 1.0

    @given(st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        n = 16
        sp = random_space(rng, n)
        p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
        f = vx.PointFunction(rng.uniform(0, 2, n), "test")
        base = vx.luxemburg_norm(sp, p, f).value
        scaled = vx.luxemburg_norm(sp, p, vx.PointFunction(c * f.values, "test")).value
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        sp = random_space(rng, n)
        p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
        f = rng.uniform(0, 2, n)
        g = rng.uniform(0, 2, n)
        nf = vx.luxemburg_norm(sp, p, vx.PointFunction(f, "test")).value
        ng = vx.luxemburg_norm(sp, p, vx.PointFunction(g, "test")).value
        nfg = vx.luxemburg_norm(sp, p, vx.PointFunction(f + g, "test")).value
        assert nfg <= nf + ng + 1e-9 * max(nf + ng, 1.0)
        smaller = vx.luxemburg_norm(sp, p, vx.PointFunction(np.minimum(f, g), "test")).value
        assert smaller <= min(nf, ng) * (1 + 1e-9)


class TestBatchedNorms:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_single_norms(self, seed, rows, variable_p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        sp = random_space(rng, n)
        p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent") if variable_p \
            else const(n, float(rng.uniform(1.1, 5.0)))
        block = rng.uniform(0, 1, (rows, n)) * 10.0 ** rng.uniform(-6, 6, (rows, 1))
        block[rng.uniform(size=(rows, n)) < 0.4] = 0.0
        block[rng.uniform(size=rows) < 0.3] = 0.0
        batched = vx.luxemburg_norms(sp, p, block)
        assert len(batched) == rows
        for row, res in zip(block, batched):
            assert res == vx.luxemburg_norm(sp, p, vx.PointFunction(row, "test"))

    def test_all_zero_rows(self):
        sp = vx.uniform_grid(8)
        res = vx.luxemburg_norms(sp, const(8, 2.0), np.zeros((3, 8)))
        assert res == [vx.NormResult(0.0, 0.0, 0, (0.0, 0.0))] * 3
        assert vx.luxemburg_norms(sp, const(8, 2.0), np.zeros((0, 8))) == []

    def test_rejects_non_finite_or_misshapen_rows(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(vx.DomainError):
            vx.luxemburg_norms(sp, const(8, 2.0), np.full((2, 8), np.inf))
        with pytest.raises(vx.DomainError):
            vx.luxemburg_norms(sp, const(8, 2.0), np.ones(8))


class TestNewtonBracket:
    @given(st.integers(0, 2**32 - 1), st.booleans(),
           st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=6),
           st.sampled_from([0.0, 100.0]))
    @example(seed=5101, variable_p=True, scales=[0.0], mu_decades=100.0)
    @settings(max_examples=150, deadline=None)
    def test_bracket_tolerance_and_homogeneity(self, seed, variable_p, scales, mu_decades):
        # weights spread over mu_decades orders of magnitude and entries
        # over up to 30 push Newton targets out of the bracket
        from vexleb.norms import MAX_ITERS
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 48))
        sp = random_space(rng, n)
        if mu_decades:
            sp = vx.explicit_space(sp.dist, 10.0 ** rng.uniform(-mu_decades, 0.0, n), 0, 1.0)
        p = vx.PointFunction(rng.uniform(1.0000001, 20.0, n), "exponent") if variable_p \
            else const(n, float(rng.uniform(1.0000001, 20.0)))
        rows = len(scales)
        block = rng.uniform(0, 1, (rows, n)) ** rng.uniform(1, 30) \
            * 10.0 ** np.array(scales)[:, None]
        block[rng.uniform(size=(rows, n)) < 0.4] = 0.0
        c = 10.0 ** rng.uniform(-3, 3)
        results = vx.luxemburg_norms(sp, p, block)
        scaled = vx.luxemburg_norms(sp, p, c * block)
        for row, res, res_c in zip(block, results, scaled):
            if res.value == 0.0:
                continue
            lo, hi = res.bracket
            assert res.value == hi
            at_hi = vx.modular(sp, p, vx.PointFunction(row / hi, "test"))
            assert at_hi == res.modular_at_value
            assert at_hi <= 1.0 < vx.modular(sp, p, vx.PointFunction(row / lo, "test"))
            assert hi - lo <= 1e-10 * hi and res.converged
            assert res_c.value == pytest.approx(c * res.value, rel=1e-9)
            assert res.bisection_iters < MAX_ITERS
            if not variable_p:
                # the closed form, and the one evaluation that checks it
                assert res.bisection_iters == 1


class TestNormModularBracket:
    def test_bracket_on_random_instances(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(8, 48))
            sp = random_space(rng, n)
            p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
            scale = 10.0 ** rng.uniform(-2, 2)
            f = vx.PointFunction(scale * rng.uniform(0, 1, n), "test")
            norm = vx.luxemburg_norm(sp, p, f).value
            if norm == 0:
                continue
            s = vx.modular(sp, p, f)
            p_lo, p_hi = float(p.values.min()), float(p.values.max())
            slack = 1e-9
            if norm <= 1:
                assert norm**p_hi * (1 - slack) <= s <= norm**p_lo * (1 + slack)
            else:
                assert norm**p_lo * (1 - slack) <= s <= norm**p_hi * (1 + slack)
            checked += 1
        assert checked > 250


class TestHolder:
    def test_extremal_pair(self):
        sp = vx.uniform_grid(32)
        one = const(32, 1.0, "test")
        lhs, rhs = holder_sides(sp, const(32, 2.0), one, one)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_zero_partner(self):
        sp = vx.uniform_grid(32)
        f = vx.PointFunction(np.arange(32, dtype=float), "test")
        lhs, rhs = holder_sides(sp, const(32, 3.0), f, const(32, 0.0, "test"))
        assert lhs == 0.0 and lhs <= rhs

    def test_random_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = 64
            sp = random_space(rng, n)
            p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
            f = vx.PointFunction(rng.uniform(-2, 2, n), "test")
            g = vx.PointFunction(rng.uniform(-2, 2, n), "test")
            lhs, rhs = holder_sides(sp, p, f, g)
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_subset(self):
        sp = vx.uniform_grid(20)
        members = vx.ball(sp, 0, 0.5).members
        f = vx.PointFunction(np.ones(20), "test")
        lhs, rhs = holder_sides(sp, const(20, 2.0), f, f, members)
        assert lhs <= rhs
