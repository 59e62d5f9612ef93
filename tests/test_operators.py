import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.errors import DomainError


def const(n, v, kind="test"):
    return vx.PointFunction.constant(n, v, kind)


def grid_setup(n):
    sp = vx.uniform_grid(n)
    return sp, const(n, 1.0, "weight"), const(n, 1.0, "test")


def reference_maximal(space, f):
    """The centered maximal function as a per-center loop: one stable sort of
    each distance row, ball averages at the last index of each tie group."""
    out = np.empty(space.n)
    absf_mu = np.abs(f) * space.mu
    for x in range(space.n):
        d = space.dist[x]
        order = np.argsort(d, kind="stable")
        ds = d[order]
        num = np.cumsum(absf_mu[order])
        den = np.cumsum(space.mu[order])
        ends = np.searchsorted(ds, np.unique(ds), side="right") - 1
        out[x] = float(np.max(num[ends] / den[ends]))
    return out


def reference_ball_potential(space, alpha, f):
    """The ball potential as a per-center loop over open-ball measures of one
    sorted row; returns (values, skipped pairs)."""
    out = np.zeros(space.n)
    skipped = 0
    fmu = f * space.mu
    for x in range(space.n):
        d = space.dist[x]
        order = np.argsort(d, kind="stable")
        prefix = np.concatenate([[0.0], np.cumsum(space.mu[order])])
        m = prefix[np.searchsorted(d[order], d, side="left")]
        sel = np.arange(space.n) != x
        ok = sel & (m > 0)
        skipped += int((sel & ~ok).sum())
        out[x] = float((fmu[ok] * m[ok] ** (alpha[x] - 1.0)).sum())
    return out, skipped


def reference_kernel_constants(space, kernel, pairs, seed, a1):
    """size_c and smooth_c of ``kernel_regularity_check`` as per-pair loops
    over the same seeded draws, each ball measured on its own."""
    rng = np.random.default_rng(seed)
    xs, ys, x1s, x2s = (rng.integers(0, space.n, pairs) for _ in range(4))
    k = np.array([kernel.row(space, x) for x in range(space.n)])
    d = space.dist

    def open_ball(x, r):
        return vx.ball(space, x, r, closed=False).measure

    size_c = max([abs(k[x, y]) * open_ball(x, d[x, y]) for x, y in zip(xs, ys) if d[x, y] > 0],
                 default=0.0)
    smooth_c = 0.0
    for x1, x2 in zip(x1s, x2s):
        dx = d[x2, x1]
        for y in range(space.n):
            if dx > 0 and d[x2, y] > 0 and d[x2, y] >= 2.0 * a1 * dx:
                quot = ((abs(k[x1, y] - k[x2, y]) + abs(k[y, x1] - k[y, x2]))
                        * open_ball(x2, d[x2, y]) / kernel.omega(dx / d[x2, y]))
                if np.isfinite(quot):
                    smooth_c = max(smooth_c, float(quot))
    return size_c, smooth_c


@st.composite
def spaces(draw):
    """A uniform grid, a Cantor set (tied distances) or an asymmetric explicit
    table with tied distances and uneven weights."""
    kind = draw(st.sampled_from(["grid", "cantor", "explicit"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 70)))
    if kind == "cantor":
        return vx.cantor_space(draw(st.integers(1, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    dist = rng.integers(1, 6, (n, n)) / 4.0
    np.fill_diagonal(dist, 0.0)
    return vx.explicit_space(dist, rng.uniform(0.1, 1.0, n))


class TestAgainstPerCenterLoops:
    @given(spaces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_maximal_equals_loop_exactly(self, sp, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-2, 2, sp.n) * (rng.uniform(size=sp.n) < 0.7)
        out = vx.maximal_function(sp, vx.PointFunction(f, "test")).values.values
        assert np.array_equal(out, reference_maximal(sp, f))

    @given(spaces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ball_potential_matches_loop(self, sp, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.05, 0.95, sp.n)
        f = rng.uniform(-2, 2, sp.n)
        out = vx.ball_potential(sp, vx.PointFunction(alpha, "alpha"),
                                vx.PointFunction(f, "test"))
        expect, skipped = reference_ball_potential(sp, alpha, f)
        # the kernel product sums in another order than the loop
        scale = np.abs(expect) + vx.ball_potential(
            sp, vx.PointFunction(alpha, "alpha"),
            vx.PointFunction(np.abs(f), "test")).values.values
        assert np.all(np.abs(out.values.values - expect) <= 1e-12 * scale)
        assert out.skipped == skipped

    @given(spaces(), st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_ball_potential_linear_and_positive(self, sp, seed, a, b):
        rng = np.random.default_rng(seed)
        alpha = vx.PointFunction(rng.uniform(0.05, 0.95, sp.n), "alpha")
        f, g = rng.uniform(0, 2, sp.n), rng.uniform(0, 2, sp.n)

        def T(vals):
            return vx.ball_potential(sp, alpha, vx.PointFunction(vals, "test")).values.values

        Tf, Tg = T(f), T(g)
        assert np.all(Tf >= 0.0) and np.all(Tg >= 0.0)
        scale = abs(a) * Tf + abs(b) * Tg + 1e-300
        assert np.all(np.abs(T(a * f + b * g) - (a * Tf + b * Tg)) <= 1e-12 * scale)


def block_operators(sp, rng):
    """Each block operator on ``sp`` as (name, block form, one-vector form,
    block form with the kernel's absolute value).  The singular integral runs
    on a signed random table truncated at a quarter of the median distance."""
    v = vx.PointFunction(rng.uniform(0.2, 2.0, sp.n), "weight")
    w = vx.PointFunction(rng.uniform(0.2, 2.0, sp.n), "weight")
    alpha = vx.PointFunction(rng.uniform(0.05, 0.95, sp.n), "alpha")
    table = rng.uniform(-1.0, 1.0, (sp.n, sp.n))
    kernel, abs_kernel = vx.explicit_kernel(table), vx.explicit_kernel(np.abs(table))
    eps = 0.25 * float(np.median(sp.dist[sp.dist > 0]))

    def one(f):
        return vx.PointFunction(f, "test")

    return [
        ("hardy", lambda F: vx.hardy_transforms(sp, v, w, F),
         lambda f: vx.hardy_transform(sp, v, w, one(f)), None),
        ("hardy-tail", lambda F: vx.hardy_tail_transforms(sp, v, w, F),
         lambda f: vx.hardy_tail_transform(sp, v, w, one(f)), None),
        ("maximal", lambda F: vx.maximal_functions(sp, F),
         lambda f: vx.maximal_function(sp, one(f)), None),
        ("ball", lambda F: vx.ball_potentials(sp, alpha, F),
         lambda f: vx.ball_potential(sp, alpha, one(f)), None),
        ("distance", lambda F: vx.distance_potentials(sp, alpha, F),
         lambda f: vx.distance_potential(sp, alpha, one(f)), None),
        ("singular", lambda F: vx.singular_integrals(sp, kernel, F, eps),
         lambda f: vx.singular_integral(sp, kernel, one(f), eps),
         lambda F: vx.singular_integrals(sp, abs_kernel, F, eps)),
    ]


EXACT = ("hardy", "hardy-tail", "maximal")
LINEAR = ("hardy", "hardy-tail", "ball", "distance", "singular")


def abs_bound(T, T_abs, F):
    """The operator with its kernel's absolute value applied to |F|: a bound
    on the size of every term T sums."""
    return (T_abs or T)(np.abs(F))


class TestBlockOperators:
    @given(spaces(), st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_one_vector_form(self, sp, seed, rows):
        rng = np.random.default_rng(seed)
        F = rng.uniform(-2, 2, (rows, sp.n)) * (rng.uniform(size=(rows, sp.n)) < 0.7)
        for name, T, single, T_abs in block_operators(sp, rng):
            block = T(F)
            assert block.shape == F.shape
            each = np.array([single(f).values.values for f in F])
            if name in EXACT:
                assert np.array_equal(block, each), name
            else:
                scale = abs_bound(T, T_abs, F)
                assert np.all(np.abs(block - each) <= 1e-12 * scale), name

    @given(spaces(), st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_linear(self, sp, seed, a, b):
        rng = np.random.default_rng(seed)
        F, G = rng.uniform(-2, 2, (2, 3, sp.n))
        for name, T, _, T_abs in block_operators(sp, rng):
            if name not in LINEAR:
                continue
            lhs, rhs = T(a * F + b * G), a * T(F) + b * T(G)
            scale = abs(a) * abs_bound(T, T_abs, F) + abs(b) * abs_bound(T, T_abs, G)
            assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale + 1e-300), name

    @given(spaces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_positive(self, sp, seed):
        rng = np.random.default_rng(seed)
        F = rng.uniform(0, 2, (3, sp.n)) * (rng.uniform(size=(3, sp.n)) < 0.7)
        for name, T, _, T_abs in block_operators(sp, rng):
            # the signed singular kernel is not positive; its absolute value is
            assert np.all((T_abs or T)(F) >= 0.0), name

    @given(spaces(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 0.5, 3.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_maximal_homogeneous_and_sublinear(self, sp, seed, c):
        rng = np.random.default_rng(seed)
        F, G = rng.uniform(-2, 2, (2, 3, sp.n))
        M = lambda rows: vx.maximal_functions(sp, rows)
        MF, MG = M(F), M(G)
        # the ball {x} and the whole space are among the averages
        top = np.abs(F).max(axis=1, keepdims=True)
        assert np.all(np.abs(F) * (1 - 1e-12) <= MF) and np.all(MF <= top * (1 + 1e-12))
        assert np.array_equal(M(-F), MF)
        assert np.all(np.abs(M(c * F) - c * MF) <= 1e-12 * c * MF)
        assert np.all(M(F + G) <= (MF + MG) * (1 + 1e-12))

    def test_rows_must_form_a_block(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(DomainError, match="block"):
            vx.maximal_functions(sp, np.ones(8))
        with pytest.raises(DomainError, match="finite"):
            vx.hardy_transforms(sp, const(8, 1.0, "weight"), const(8, 1.0, "weight"),
                                np.full((2, 8), np.nan))


class TestHardyTransforms:
    def test_zero_input(self):
        sp, one_w, _ = grid_setup(64)
        out = vx.hardy_transform(sp, one_w, one_w, const(64, 0.0))
        assert np.all(out.values.values == 0.0)

    def test_forward_is_running_integral(self):
        sp, one_w, one_f = grid_setup(1024)
        out = vx.hardy_transform(sp, one_w, one_w, one_f).values.values
        assert np.max(np.abs(out - sp.coords)) <= 1.0 / 1024

    def test_vanishes_at_basepoint(self):
        sp, one_w, one_f = grid_setup(64)
        rng = np.random.default_rng(0)
        f = vx.PointFunction(rng.uniform(-1, 1, 64), "test")
        assert vx.hardy_transform(sp, one_w, one_w, f).values.values[0] == 0.0

    def test_tail_is_remaining_integral(self):
        sp, one_w, one_f = grid_setup(1024)
        out = vx.hardy_tail_transform(sp, one_w, one_w, one_f).values.values
        assert np.max(np.abs(out - (1 - sp.coords))) <= 1.0 / 1024

    def test_partition_identity_exact(self):
        # forward + tail + same-distance shell recovers the full weighted sum
        rng = np.random.default_rng(1)
        n = 97
        sp = vx.uniform_grid(n)
        v = vx.PointFunction(rng.uniform(0.2, 2.0, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 2.0, n), "weight")
        f = vx.PointFunction(rng.uniform(-1, 1, n), "test")
        fw = f.values * w.values * sp.mu
        fwd = vx.hardy_transform(sp, v, w, f).values.values
        tail = vx.hardy_tail_transform(sp, v, w, f).values.values
        shell = np.array([fw[np.isclose(sp.d0, sp.d0[x])].sum() for x in range(n)])
        total = v.values * fw.sum()
        assert np.allclose(fwd + tail + v.values * shell, total, rtol=1e-12, atol=1e-14)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        n = 40
        sp = vx.uniform_grid(n)
        v = vx.PointFunction(rng.uniform(0.5, 1.5, n), "weight")
        w = vx.PointFunction(rng.uniform(0.5, 1.5, n), "weight")
        f = vx.PointFunction(rng.uniform(-1, 1, n), "test")
        out = vx.hardy_transform(sp, v, w, f).values.values
        for x in range(n):
            mask = sp.d0 < sp.d0[x]
            expect = v.values[x] * (f.values * w.values * sp.mu)[mask].sum()
            assert out[x] == pytest.approx(expect, rel=1e-12, abs=1e-15)


class TestMaximalFunction:
    def test_constant(self):
        sp, _, _ = grid_setup(64)
        out = vx.maximal_function(sp, const(64, -3.0)).values.values
        assert np.allclose(out, 3.0)

    def test_half_indicator_at_far_end(self):
        n = 1024
        sp = vx.uniform_grid(n)
        f = vx.PointFunction((sp.coords <= 0.5).astype(float), "test")
        out = vx.maximal_function(sp, f).values.values
        assert out[-1] == pytest.approx(0.5, abs=2.0 / n)

    def test_dominates_every_ball_average(self):
        rng = np.random.default_rng(3)
        n = 60
        sp = vx.uniform_grid(n)
        f = vx.PointFunction(rng.uniform(-2, 2, n), "test")
        out = vx.maximal_function(sp, f).values.values
        for x in range(0, n, 7):
            for r in (0.1, 0.3, 0.9):
                b = vx.ball(sp, x, r, closed=True)
                avg = (np.abs(f.values[b.members]) * sp.mu[b.members]).sum() / b.measure
                assert out[x] >= avg - 1e-12

    def test_sublinear(self):
        rng = np.random.default_rng(4)
        n = 50
        sp = vx.uniform_grid(n)
        f, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        Mf = vx.maximal_function(sp, vx.PointFunction(f, "test")).values.values
        Mg = vx.maximal_function(sp, vx.PointFunction(g, "test")).values.values
        Mfg = vx.maximal_function(sp, vx.PointFunction(f + g, "test")).values.values
        assert np.all(Mfg <= Mf + Mg + 1e-12)
        Mcf = vx.maximal_function(sp, vx.PointFunction(-2.5 * f, "test")).values.values
        assert np.allclose(Mcf, 2.5 * Mf, rtol=1e-12)


class TestPotentials:
    def test_zero_input(self):
        sp = vx.uniform_grid(32)
        al = const(32, 0.5, "alpha")
        assert np.all(vx.ball_potential(sp, al, const(32, 0.0)).values.values == 0.0)
        assert np.all(vx.distance_potential(sp, al, const(32, 0.0)).values.values == 0.0)

    def test_closed_form_at_origin(self):
        # kernel mu B(0, y)^(-1/2) sums to the integral of y^(-1/2) = 2
        n = 1024
        sp, _, one_f = grid_setup(n)
        al = const(n, 0.5, "alpha")
        t = vx.ball_potential(sp, al, one_f).values.values[0]
        i = vx.distance_potential(sp, al, one_f).values.values[0]
        assert t == pytest.approx(2.0, rel=0.03)
        assert i == pytest.approx(2.0, rel=0.03)

    def test_monotone_in_input(self):
        rng = np.random.default_rng(5)
        n = 48
        sp = vx.uniform_grid(n)
        al = const(n, 0.3, "alpha")
        g = rng.uniform(0, 1, n)
        f = g + rng.uniform(0, 1, n)
        Tf = vx.ball_potential(sp, al, vx.PointFunction(f, "test")).values.values
        Tg = vx.ball_potential(sp, al, vx.PointFunction(g, "test")).values.values
        assert np.all(Tf >= Tg - 1e-14)

    def test_distance_vs_ball_comparison(self):
        # mu B(x, r) <= 2r on the grid, so I <= 2^(1-alpha) T pointwise
        n = 256
        sp, _, one_f = grid_setup(n)
        alpha = 0.5
        al = const(n, alpha, "alpha")
        T = vx.ball_potential(sp, al, one_f).values.values
        I = vx.distance_potential(sp, al, one_f).values.values
        assert np.all(I <= T * 2 ** (1 - alpha) * (1 + 1e-9))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        n = 30
        sp = vx.uniform_grid(n)
        al = vx.PointFunction(rng.uniform(0.2, 0.8, n), "alpha")
        f = vx.PointFunction(rng.uniform(0, 2, n), "test")
        out = vx.ball_potential(sp, al, f).values.values
        for x in range(n):
            total = 0.0
            for y in range(n):
                if y == x:
                    continue
                m = vx.ball(sp, x, sp.dist[x, y]).measure
                total += f.values[y] * m ** (al.values[x] - 1) * sp.mu[y]
            assert out[x] == pytest.approx(total, rel=1e-12)


class TestSingularIntegral:
    def test_zero_input(self):
        sp = vx.uniform_grid(33)
        out = vx.singular_integral(sp, vx.hilbert_kernel(), const(33, 0.0), 0.01)
        assert np.all(out.values.values == 0.0)

    def test_hilbert_cancellation_at_center(self):
        sp, _, one_f = grid_setup(257)  # odd grid, symmetric about 1/2
        h = 1.0 / 256
        out = vx.singular_integral(sp, vx.hilbert_kernel(), one_f, 2 * h)
        mid = int(np.argmin(np.abs(sp.coords - 0.5)))
        assert abs(out.values.values[mid]) <= 1e-12

    def test_hilbert_principal_value(self):
        n = 2**12 + 1
        sp, _, one_f = grid_setup(n)
        h = 1.0 / (n - 1)
        i25 = int(np.argmin(np.abs(sp.coords - 0.25)))
        vals = [vx.singular_integral(sp, vx.hilbert_kernel(), one_f, eps).values.values[i25]
                for eps in (4 * h, 2 * h, h)]
        assert vals[-1] == pytest.approx(np.log(1.0 / 3.0), abs=1e-2)
        # eps-halving stays put once below the grid scale
        assert abs(vals[-1] - vals[-2]) <= 1e-9

    def test_requires_positive_eps(self):
        sp = vx.uniform_grid(16)
        with pytest.raises(DomainError):
            vx.singular_integral(sp, vx.hilbert_kernel(), const(16, 1.0), 0.0)

    def test_duality_spot_check(self):
        # symmetric positive kernel: <g, Kf> = <Kg, f> in the weighted pairing
        rng = np.random.default_rng(7)
        n = 64
        sp = vx.uniform_grid(n)
        a = rng.uniform(0.1, 1.0, (n, n))
        k = vx.explicit_kernel(0.5 * (a + a.T))
        f = vx.PointFunction(rng.uniform(-1, 1, n), "test")
        g = vx.PointFunction(rng.uniform(-1, 1, n), "test")
        eps = 0.5 / n
        Kf = vx.singular_integral(sp, k, f, eps).values.values
        Kg = vx.singular_integral(sp, k, g, eps).values.values
        lhs = (g.values * Kf * sp.mu).sum()
        rhs = (f.values * Kg * sp.mu).sum()
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestLinearity:
    @pytest.mark.parametrize("apply_op", [
        lambda sp, f: vx.hardy_transform(
            sp, const(sp.n, 1.0, "weight"), const(sp.n, 1.0, "weight"), f).values.values,
        lambda sp, f: vx.hardy_tail_transform(
            sp, const(sp.n, 1.0, "weight"), const(sp.n, 1.0, "weight"), f).values.values,
        lambda sp, f: vx.ball_potential(sp, const(sp.n, 0.4, "alpha"), f).values.values,
        lambda sp, f: vx.distance_potential(sp, const(sp.n, 0.4, "alpha"), f).values.values,
        lambda sp, f: vx.singular_integral(sp, vx.hilbert_kernel(), f, 0.02).values.values,
    ])
    def test_operator_is_linear(self, apply_op):
        rng = np.random.default_rng(8)
        n = 40
        sp = vx.uniform_grid(n)
        f, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        a, b = 1.7, -0.6
        lhs = apply_op(sp, vx.PointFunction(a * f + b * g, "test"))
        rhs = a * apply_op(sp, vx.PointFunction(f, "test")) \
            + b * apply_op(sp, vx.PointFunction(g, "test"))
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

    def test_positivity(self):
        rng = np.random.default_rng(9)
        n = 40
        sp = vx.uniform_grid(n)
        f = vx.PointFunction(rng.uniform(0, 2, n), "test")
        one_w = const(n, 1.0, "weight")
        al = const(n, 0.5, "alpha")
        for out in (vx.hardy_transform(sp, one_w, one_w, f),
                    vx.hardy_tail_transform(sp, one_w, one_w, f),
                    vx.ball_potential(sp, al, f),
                    vx.distance_potential(sp, al, f)):
            assert np.all(out.values.values >= 0.0)


class TestKernelChecks:
    def test_hilbert_size_constant(self):
        sp = vx.uniform_grid(257)
        size_c, _, _ = vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 500, a1=1.0)
        assert size_c <= 2.0 + 0.05

    def test_dini_sum_power_modulus(self):
        sp = vx.uniform_grid(16)
        _, _, dini = vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 10, a1=1.0)
        assert dini == pytest.approx(np.log(2.0), rel=1e-10)

    def test_zero_kernel(self):
        sp = vx.uniform_grid(32)
        k = vx.explicit_kernel(np.zeros((32, 32)))
        size_c, smooth_c, _ = vx.kernel_regularity_check(sp, k, 200, a1=1.0)
        assert size_c == 0.0 and smooth_c == 0.0

    def test_hilbert_smoothness_finite(self):
        sp = vx.uniform_grid(129)
        _, smooth_c, _ = vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 300, a1=1.0)
        assert 0 < smooth_c < 50.0

    @pytest.mark.parametrize("sp, kernel", [
        (vx.uniform_grid(70), vx.hilbert_kernel()),
        (vx.cantor_space(6), vx.hilbert_kernel()),
        (vx.cantor_space(6), vx.power_dist_kernel(-1.0)),
    ], ids=["grid-hilbert", "cantor-hilbert", "cantor-power-dist"])
    def test_matches_per_pair_balls(self, sp, kernel):
        size_c, smooth_c, _ = vx.kernel_regularity_check(sp, kernel, 60, seed=3, a1=1.0)
        ref_size, ref_smooth = reference_kernel_constants(sp, kernel, 60, 3, 1.0)
        assert ref_size > 0 and ref_smooth > 0
        assert size_c == pytest.approx(ref_size, rel=1e-12)
        assert smooth_c == pytest.approx(ref_smooth, rel=1e-12)

    def test_reads_only_the_sampled_rows(self):
        # the open-ball measures of the sampled centers come from their rows
        # alone: no n x n ball-measure table is built
        sp = vx.uniform_grid(1024)
        tracemalloc.start()
        try:
            out = vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 200, a1=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == pytest.approx((1.9980468750000002, 7.9921875, 0.6931471805593149),
                                    rel=1e-12)
        assert peak < 15e6

    def test_table_modulus(self):
        om = vx.table_modulus([0.0, 1.0], [0.0, 2.0])
        assert om(0.5) == pytest.approx(1.0)
