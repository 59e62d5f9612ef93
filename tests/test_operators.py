import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.errors import DomainError


def const(n, v, kind="test"):
    return vx.PointFunction.constant(n, v, kind)


def grid_setup(n):
    """A grid, the unit weight and the one-row block of f = 1."""
    sp = vx.uniform_grid(n)
    return sp, const(n, 1.0, "weight"), np.ones((1, n))


def reference_maximal(space, f):
    """The centered maximal function as a per-center loop: one stable sort of
    each distance row, ball averages at the last index of each tie group."""
    out = np.empty(space.n)
    absf_mu = np.abs(f) * space.mu
    for x in range(space.n):
        d = space.d_from(x)
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
        d = space.d_from(x)
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
    ids = np.arange(space.n)
    k = kernel.at(space, ids[:, None], ids)
    d = space.rows(0, space.n)

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


EXPLICIT_8 = np.random.default_rng(1).uniform(-1, 1, (8, 8))


class TestAgainstPerCenterLoops:
    @given(spaces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_maximal_equals_loop_exactly(self, sp, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(-2, 2, sp.n) * (rng.uniform(size=sp.n) < 0.7)
        out = vx.maximal_functions(sp, f[None, :])[0]
        assert np.array_equal(out, reference_maximal(sp, f))

    @given(spaces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ball_potential_matches_loop(self, sp, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0.05, 0.95, sp.n)
        al = vx.PointFunction(alpha, "alpha")
        f = rng.uniform(-2, 2, sp.n)
        out = vx.ball_potentials(sp, al, f[None, :])[0]
        expect, skipped = reference_ball_potential(sp, alpha, f)
        # the kernel product sums in another order than the loop
        scale = np.abs(expect) + vx.ball_potentials(sp, al, np.abs(f)[None, :])[0]
        assert np.all(np.abs(out - expect) <= 1e-12 * scale)
        # the open ball B(x, d(x, y)) holds x, so no off-diagonal pair is skipped
        assert skipped == 0

    @given(spaces(), st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_ball_potential_linear_and_positive(self, sp, seed, a, b):
        rng = np.random.default_rng(seed)
        alpha = vx.PointFunction(rng.uniform(0.05, 0.95, sp.n), "alpha")
        f, g = rng.uniform(0, 2, sp.n), rng.uniform(0, 2, sp.n)

        def T(vals):
            return vx.ball_potentials(sp, alpha, vals[None, :])[0]

        Tf, Tg = T(f), T(g)
        assert np.all(Tf >= 0.0) and np.all(Tg >= 0.0)
        scale = abs(a) * Tf + abs(b) * Tg + 1e-300
        assert np.all(np.abs(T(a * f + b * g) - (a * Tf + b * Tg)) <= 1e-12 * scale)


def block_operators(sp, rng):
    """Each block operator on ``sp`` as (name, operator, operator with the
    kernel's absolute value).  The singular integral runs on a signed random
    table truncated at a quarter of the median distance."""
    v = vx.PointFunction(rng.uniform(0.2, 2.0, sp.n), "weight")
    w = vx.PointFunction(rng.uniform(0.2, 2.0, sp.n), "weight")
    alpha = vx.PointFunction(rng.uniform(0.05, 0.95, sp.n), "alpha")
    table = rng.uniform(-1.0, 1.0, (sp.n, sp.n))
    kernel, abs_kernel = vx.explicit_kernel(table), vx.explicit_kernel(np.abs(table))
    d = sp.rows(0, sp.n)
    eps = 0.25 * float(np.median(d[d > 0]))

    return [
        ("hardy", lambda F: vx.hardy_transforms(sp, v, w, F), None),
        ("hardy-tail", lambda F: vx.hardy_tail_transforms(sp, v, w, F), None),
        ("maximal", lambda F: vx.maximal_functions(sp, F), None),
        ("ball", lambda F: vx.ball_potentials(sp, alpha, F), None),
        ("distance", lambda F: vx.distance_potentials(sp, alpha, F), None),
        ("singular", lambda F: vx.singular_integrals(sp, kernel, F, eps),
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
        for name, T, T_abs in block_operators(sp, rng):
            block = T(F)
            assert block.shape == F.shape
            each = np.array([T(f[None, :])[0] for f in F])
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
        for name, T, T_abs in block_operators(sp, rng):
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
        for name, T, T_abs in block_operators(sp, rng):
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
        out = vx.hardy_transforms(sp, one_w, one_w, np.zeros((1, 64)))
        assert np.all(out == 0.0)

    def test_forward_is_running_integral(self):
        sp, one_w, one_f = grid_setup(1024)
        out = vx.hardy_transforms(sp, one_w, one_w, one_f)[0]
        assert np.max(np.abs(out - sp.coords)) <= 1.0 / 1024

    def test_vanishes_at_basepoint(self):
        sp, one_w, one_f = grid_setup(64)
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, (1, 64))
        assert vx.hardy_transforms(sp, one_w, one_w, f)[0, 0] == 0.0

    def test_tail_is_remaining_integral(self):
        sp, one_w, one_f = grid_setup(1024)
        out = vx.hardy_tail_transforms(sp, one_w, one_w, one_f)[0]
        assert np.max(np.abs(out - (1 - sp.coords))) <= 1.0 / 1024

    def test_small_tail_does_not_cancel(self):
        # w = exp(-60 d0): the tails at the far points are 1e-26 of the total
        sp, one_w, one_f = grid_setup(64)
        w = vx.PointFunction(np.exp(-60.0 * sp.d0), "weight")
        out = vx.hardy_tail_transforms(sp, one_w, w, one_f)[0]
        fw = w.values * sp.mu
        want = np.array([fw[sp.d0 > sp.d0[x]].sum() for x in range(sp.n)])
        assert want[-2] < 1e-25 * want[0]
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=0.0)

    def test_partition_identity_exact(self):
        # forward + tail + same-distance shell recovers the full weighted sum
        rng = np.random.default_rng(1)
        n = 97
        sp = vx.uniform_grid(n)
        v = vx.PointFunction(rng.uniform(0.2, 2.0, n), "weight")
        w = vx.PointFunction(rng.uniform(0.2, 2.0, n), "weight")
        f = rng.uniform(-1, 1, n)
        fw = f * w.values * sp.mu
        fwd = vx.hardy_transforms(sp, v, w, f[None, :])[0]
        tail = vx.hardy_tail_transforms(sp, v, w, f[None, :])[0]
        shell = np.array([fw[np.isclose(sp.d0, sp.d0[x])].sum() for x in range(n)])
        total = v.values * fw.sum()
        assert np.allclose(fwd + tail + v.values * shell, total, rtol=1e-12, atol=1e-14)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        n = 40
        sp = vx.uniform_grid(n)
        v = vx.PointFunction(rng.uniform(0.5, 1.5, n), "weight")
        w = vx.PointFunction(rng.uniform(0.5, 1.5, n), "weight")
        f = rng.uniform(-1, 1, n)
        out = vx.hardy_transforms(sp, v, w, f[None, :])[0]
        for x in range(n):
            mask = sp.d0 < sp.d0[x]
            expect = v.values[x] * (f * w.values * sp.mu)[mask].sum()
            assert out[x] == pytest.approx(expect, rel=1e-12, abs=1e-15)


@st.composite
def hardy_spaces(draw):
    """Line spaces (grids, and shuffled coordinates on a 0.1 lattice around
    any basepoint) and tables of plane distances rounded to 0.1, whose
    basepoint distances tie."""
    kind = draw(st.sampled_from(["grid", "line", "table"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    mu, x0 = rng.uniform(0.1, 1.0, n), draw(st.integers(0, n - 1))
    if kind == "line":
        coords = rng.choice(60, n, replace=False) * 0.1
        return vx.space_from_spec({"points": [{"coord": c} for c in coords],
                                   "metric": "euclidean1d", "mu": mu.tolist(), "x0": x0,
                                   "L": "inf"})
    pts = rng.uniform(0.0, 2.0, (n, 2))
    dist = np.maximum(np.round(np.hypot(*(pts[:, None] - pts[None, :]).T), 1), 0.1)
    np.fill_diagonal(dist, 0.0)
    return vx.explicit_space(dist, mu, x0=x0)


class TestHardyAdjoint:
    @given(hardy_spaces(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_tail_transform_is_the_adjoint(self, sp, rows, seed):
        # both sides are the sum of g(x) v(x) f(y) w(y) mu(x) mu(y) over the
        # pairs d0(y) < d0(x), row by row; tol is 1e-12 of the sum of |terms|
        rng = np.random.default_rng(seed)
        n = sp.n
        v, w = (vx.PointFunction(rng.uniform(0.2, 5.0, n), "weight") for _ in range(2))
        f, g = rng.uniform(-1.0, 1.0, (2, rows, n))
        lhs = (g * vx.hardy_transforms(sp, v, w, f) * sp.mu).sum(axis=1)
        rhs = (f * vx.hardy_tail_transforms(sp, w, v, g) * sp.mu).sum(axis=1)
        terms = (np.abs(g) * vx.hardy_transforms(sp, v, w, np.abs(f)) * sp.mu).sum(axis=1)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * terms)


class TestMaximalFunction:
    def test_constant(self):
        sp, _, _ = grid_setup(64)
        out = vx.maximal_functions(sp, np.full((1, 64), -3.0))
        assert np.allclose(out, 3.0)

    def test_half_indicator_at_far_end(self):
        n = 1024
        sp = vx.uniform_grid(n)
        f = (sp.coords <= 0.5).astype(float)
        out = vx.maximal_functions(sp, f[None, :])[0]
        assert out[-1] == pytest.approx(0.5, abs=2.0 / n)

    def test_dominates_every_ball_average(self):
        rng = np.random.default_rng(3)
        n = 60
        sp = vx.uniform_grid(n)
        f = rng.uniform(-2, 2, n)
        out = vx.maximal_functions(sp, f[None, :])[0]
        for x in range(0, n, 7):
            for r in (0.1, 0.3, 0.9):
                b = vx.ball(sp, x, r, closed=True)
                avg = (np.abs(f[b.members]) * sp.mu[b.members]).sum() / b.measure
                assert out[x] >= avg - 1e-12

    def test_sublinear(self):
        rng = np.random.default_rng(4)
        n = 50
        sp = vx.uniform_grid(n)
        f, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        Mf = vx.maximal_functions(sp, f[None, :])[0]
        Mg = vx.maximal_functions(sp, g[None, :])[0]
        Mfg = vx.maximal_functions(sp, (f + g)[None, :])[0]
        assert np.all(Mfg <= Mf + Mg + 1e-12)
        Mcf = vx.maximal_functions(sp, -2.5 * f[None, :])[0]
        assert np.allclose(Mcf, 2.5 * Mf, rtol=1e-12)


class TestPotentials:
    def test_zero_input(self):
        sp = vx.uniform_grid(32)
        al = const(32, 0.5, "alpha")
        assert np.all(vx.ball_potentials(sp, al, np.zeros((1, 32))) == 0.0)
        assert np.all(vx.distance_potentials(sp, al, np.zeros((1, 32))) == 0.0)

    def test_closed_form_at_origin(self):
        # kernel mu B(0, y)^(-1/2) sums to the integral of y^(-1/2) = 2
        n = 1024
        sp, _, one_f = grid_setup(n)
        al = const(n, 0.5, "alpha")
        t = vx.ball_potentials(sp, al, one_f)[0, 0]
        i = vx.distance_potentials(sp, al, one_f)[0, 0]
        assert t == pytest.approx(2.0, rel=0.03)
        assert i == pytest.approx(2.0, rel=0.03)

    def test_monotone_in_input(self):
        rng = np.random.default_rng(5)
        n = 48
        sp = vx.uniform_grid(n)
        al = const(n, 0.3, "alpha")
        g = rng.uniform(0, 1, n)
        f = g + rng.uniform(0, 1, n)
        Tf = vx.ball_potentials(sp, al, f[None, :])[0]
        Tg = vx.ball_potentials(sp, al, g[None, :])[0]
        assert np.all(Tf >= Tg - 1e-14)

    def test_distance_vs_ball_comparison(self):
        # mu B(x, r) <= 2r on the grid, so I <= 2^(1-alpha) T pointwise
        n = 256
        sp, _, one_f = grid_setup(n)
        alpha = 0.5
        al = const(n, alpha, "alpha")
        T = vx.ball_potentials(sp, al, one_f)[0]
        I = vx.distance_potentials(sp, al, one_f)[0]
        assert np.all(I <= T * 2 ** (1 - alpha) * (1 + 1e-9))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        n = 30
        sp = vx.uniform_grid(n)
        al = vx.PointFunction(rng.uniform(0.2, 0.8, n), "alpha")
        f = rng.uniform(0, 2, n)
        out = vx.ball_potentials(sp, al, f[None, :])[0]
        for x in range(n):
            total = 0.0
            for y in range(n):
                if y == x:
                    continue
                m = vx.ball(sp, x, sp.d_from(x)[y]).measure
                total += f[y] * m ** (al.values[x] - 1) * sp.mu[y]
            assert out[x] == pytest.approx(total, rel=1e-12)


class TestSingularIntegral:
    def test_zero_input(self):
        sp = vx.uniform_grid(33)
        out = vx.singular_integrals(sp, vx.hilbert_kernel(), np.zeros((1, 33)), 0.01)
        assert np.all(out == 0.0)

    def test_hilbert_cancellation_at_center(self):
        sp, _, one_f = grid_setup(257)  # odd grid, symmetric about 1/2
        h = 1.0 / 256
        out = vx.singular_integrals(sp, vx.hilbert_kernel(), one_f, 2 * h)[0]
        mid = int(np.argmin(np.abs(sp.coords - 0.5)))
        assert abs(out[mid]) <= 1e-12

    def test_hilbert_principal_value(self):
        n = 2**12 + 1
        sp, _, one_f = grid_setup(n)
        h = 1.0 / (n - 1)
        i25 = int(np.argmin(np.abs(sp.coords - 0.25)))
        vals = [vx.singular_integrals(sp, vx.hilbert_kernel(), one_f, eps)[0, i25]
                for eps in (4 * h, 2 * h, h)]
        assert vals[-1] == pytest.approx(np.log(1.0 / 3.0), abs=1e-2)
        # eps-halving stays put once below the grid scale
        assert abs(vals[-1] - vals[-2]) <= 1e-9

    def test_requires_positive_eps(self):
        sp = vx.uniform_grid(16)
        with pytest.raises(DomainError):
            vx.singular_integrals(sp, vx.hilbert_kernel(), np.ones((1, 16)), 0.0)

    def test_duality_spot_check(self):
        # symmetric positive kernel: <g, Kf> = <Kg, f> in the weighted pairing
        rng = np.random.default_rng(7)
        n = 64
        sp = vx.uniform_grid(n)
        a = rng.uniform(0.1, 1.0, (n, n))
        k = vx.explicit_kernel(0.5 * (a + a.T))
        f, g = rng.uniform(-1, 1, (2, n))
        eps = 0.5 / n
        Kf = vx.singular_integrals(sp, k, f[None, :], eps)[0]
        Kg = vx.singular_integrals(sp, k, g[None, :], eps)[0]
        lhs = (g * Kf * sp.mu).sum()
        rhs = (f * Kg * sp.mu).sum()
        assert lhs == pytest.approx(rhs, rel=1e-9)


def truncated_hilbert(n, k):
    """The truncated Hilbert operator on uniform_grid(n) as a matrix T with
    T[x, y] = k(x, y) mu(y): at eps = k / (n - 1), or at the default radius of
    a ``singular`` scenario when k is None."""
    eye = np.eye(n)
    if k is None:
        sc = vx.Scenario.from_dict({"space": {"generator": "uniform-grid", "n": n},
                                    "exponents": {"p": {"kind": "exponent", "expr": "const 2"}},
                                    "operator": "singular", "resolutions": [n]})
        return vx.scenario.OPERATORS["singular"].apply(sc.materialize(n), eye).T
    return vx.singular_integrals(vx.uniform_grid(n), vx.hilbert_kernel(), eye, k / (n - 1)).T


class TestSingularTruncation:
    """A truncation radius on a distance level keeps or drops the whole
    level: on a uniform grid the truncated Hilbert matrix is Toeplitz and
    antisymmetric, and by Hilbert's inequality (Schur 1911) its L2(mu) norm
    is at most pi (n - 1) / n."""

    # the default radius is twice the grid step, so it drops two levels
    NORMS = {(128, 1): 2.9274, (256, 1): 3.0264, (512, 1): 3.0802,
             (128, 2): 2.8210, (256, 2): 2.9671, (512, 2): 3.0478}

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("k", [1, 2, 3, None], ids=["h", "2h", "3h", "default"])
    def test_hilbert_keeps_whole_levels(self, n, k):
        T = truncated_hilbert(n, k)
        lag = np.subtract.outer(np.arange(n), np.arange(n))
        dropped = 2 if k is None else k
        assert np.array_equal(T != 0, np.abs(lag) > dropped)
        assert np.array_equal(T, -T.T)
        kept = T != 0
        assert np.allclose(T[kept], (n - 1) / (n * lag[kept]), rtol=1e-12, atol=0)
        # mu is constant, so the L2(mu) norm is the spectral norm of T
        norm = np.linalg.norm(T, 2)
        assert norm <= np.pi * (n - 1) / n
        if (n, dropped) in self.NORMS:
            assert norm == pytest.approx(self.NORMS[n, dropped], abs=1e-4)


class TestLinearity:
    @pytest.mark.parametrize("apply_op", [
        lambda sp, F: vx.hardy_transforms(
            sp, const(sp.n, 1.0, "weight"), const(sp.n, 1.0, "weight"), F),
        lambda sp, F: vx.hardy_tail_transforms(
            sp, const(sp.n, 1.0, "weight"), const(sp.n, 1.0, "weight"), F),
        lambda sp, F: vx.ball_potentials(sp, const(sp.n, 0.4, "alpha"), F),
        lambda sp, F: vx.distance_potentials(sp, const(sp.n, 0.4, "alpha"), F),
        lambda sp, F: vx.singular_integrals(sp, vx.hilbert_kernel(), F, 0.02),
    ])
    def test_operator_is_linear(self, apply_op):
        rng = np.random.default_rng(8)
        n = 40
        sp = vx.uniform_grid(n)
        f, g = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        a, b = 1.7, -0.6
        lhs = apply_op(sp, (a * f + b * g)[None, :])
        rhs = a * apply_op(sp, f[None, :]) + b * apply_op(sp, g[None, :])
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale

    def test_positivity(self):
        rng = np.random.default_rng(9)
        n = 40
        sp = vx.uniform_grid(n)
        f = rng.uniform(0, 2, (1, n))
        one_w = const(n, 1.0, "weight")
        al = const(n, 0.5, "alpha")
        for out in (vx.hardy_transforms(sp, one_w, one_w, f),
                    vx.hardy_tail_transforms(sp, one_w, one_w, f),
                    vx.ball_potentials(sp, al, f),
                    vx.distance_potentials(sp, al, f)):
            assert np.all(out >= 0.0)


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

    def test_keeps_no_kernel_rows(self):
        # k(y, x1) and k(y, x2) are read at the gated ids alone: the
        # whole rows of every gated y, once kept, were 8.4 MB of a 12.8 MB peak
        sp = vx.uniform_grid(1024)
        tracemalloc.start()
        try:
            out = vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 200, a1=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == (1.9980468750000002, 7.9921875, 0.6931471805593149)
        assert peak < sp.n * sp.n * 8

    @pytest.mark.parametrize("table", [False, True], ids=["line", "asymmetric-table"])
    @pytest.mark.parametrize("make,formula,ulps", [
        (vx.hilbert_kernel, lambda sp, d, x, y: (1.0 / (sp.coords[x] - sp.coords[y])
                                                 if sp.coords[x] != sp.coords[y] else 0.0), 0),
        # the power's array loop may be a vectorized pow, an ulp off the C library's
        (lambda: vx.power_dist_kernel(-0.5),
         lambda sp, d, x, y: d(x, y) ** -0.5 if d(x, y) > 0 else 0.0, 1),
        (lambda: vx.explicit_kernel(EXPLICIT_8), lambda sp, d, x, y: EXPLICIT_8[x, y], 0)],
        ids=["hilbert", "power-dist", "explicit"])
    def test_columns_are_transposed_rows(self, make, formula, ulps, table):
        # at() on broadcast ids, read as a block, its transpose, a row, a
        # column and one pair, equals a per-pair loop of the kernel's formula
        sp = vx.cantor_space(3)
        if table:
            d = sp.rows(0, sp.n) * np.random.default_rng(2).uniform(1.0, 2.0, (8, 8))
            sp = vx.explicit_space(d, sp.mu, L=1.0, coords=sp.coords)

        def dist(x, y):
            return abs(sp.coords[x] - sp.coords[y]) if sp.dist is None else sp.dist[x, y]

        kernel = make()
        rng = np.random.default_rng(3)
        xs, ys = rng.integers(0, sp.n, 6), rng.integers(0, sp.n, 11)
        for a, b in ((xs[:, None], ys), (ys[:, None], xs), (xs[0], ys), (ys, xs[0]),
                     (xs[1], xs[1]), (xs[2], ys[2])):
            got = kernel.at(sp, a, b)
            a, b = np.broadcast_arrays(a, b)
            want = np.array([formula(sp, dist, x, y) for x, y in zip(a.flat, b.flat)])
            assert got.shape == a.shape
            np.testing.assert_array_max_ulp(got.ravel(), want, maxulp=ulps)

    def test_table_modulus(self):
        om = vx.table_modulus([0.0, 1.0], [0.0, 2.0])
        assert om(0.5) == pytest.approx(1.0)
