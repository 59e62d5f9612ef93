import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb.errors import DomainError, PreconditionError
from test_space import held_arrays, sorted_row_spaces


def const(n, v, kind="exponent"):
    return vx.PointFunction.constant(n, v, kind)


# class_check as it read the table before every row sort read the shared row
# blocks: one sort per center, np.unique radii and a per-row pair matrix.  A
# log-Hoelder class with ``at`` counts the exclusions of that row only, and
# its witness is an admissible pair.
def reference_sorted_row(space, center):
    d = space.d_from(center)
    order = np.argsort(d, kind="stable")
    return d[order], np.concatenate([[0.0], np.cumsum(space.mu[order])]), order


def reference_sweep_radii(space, center, r_cap):
    ds = np.unique(space.d_from(center))
    radii = 0.5 * (ds[:-1] + ds[1:]) if ds.size >= 2 else np.array([], dtype=float)
    return radii[radii <= r_cap]


def reference_muB_pair_matrix(space):
    out = np.empty((space.n, space.n))
    for x in range(space.n):
        d = space.d_from(x)
        order = np.argsort(d, kind="stable")
        prefix = np.concatenate([[0.0], np.cumsum(space.mu[order])])
        out[x] = prefix[np.searchsorted(d[order], d, side="left")]
    return out


def reference_class_check(space, p, cls, N=1.0, at=None, b=None):
    b = 0.5 * space.L_eff if b is None else b
    centers = range(space.n) if at is None else [at]
    if cls == "oscillation":
        best, wit, excluded = 0.0, (), 0
        for x in centers:
            ds, prefix, order = reference_sorted_row(space, x)
            pv = p.values[order]
            radii = reference_sweep_radii(space, x, b)
            if radii.size == 0:
                excluded += 1
                continue
            idx = np.searchsorted(ds, radii, side="left")
            run_min, run_max = np.minimum.accumulate(pv), np.maximum.accumulate(pv)
            mN = prefix[np.searchsorted(ds, N * radii, side="left")]
            ok = (idx > 0) & (mN > 0)
            excluded += int((~ok).sum())
            if not ok.any():
                continue
            vals = mN[ok] ** (run_min[idx[ok] - 1] - run_max[idx[ok] - 1])
            j = int(vals.argmax())
            if vals[j] > best:
                best, wit = float(vals[j]), (x, float(radii[ok][j]))
        return vx.ClassReport(cls, best, float(b), wit, excluded=excluded)
    d = space.rows(0, space.n)
    gate = reference_muB_pair_matrix(space) if cls == "log-holder" else d
    near = (d > 0) & (d <= b)
    if at is not None:
        keep = np.zeros_like(near)
        keep[at] = near[at]
        near = keep
    admissible = near & (gate > 0) & (gate < 1)
    excluded = int(near.sum() - admissible.sum())
    if not admissible.any():
        return vx.ClassReport(cls, 0.0, float(b), (), excluded=excluded)
    dp = np.abs(p.values[:, None] - p.values[None, :])
    vals = np.where(admissible, dp * (-np.log(np.where(admissible, gate, 1.0))), -np.inf)
    flat = int(vals.argmax())
    wit = tuple(int(i) for i in np.unravel_index(flat, vals.shape))
    return vx.ClassReport(cls, float(vals.max()), float(b), wit, excluded=excluded)


class TestPointFunction:
    def test_exponent_must_exceed_one(self):
        with pytest.raises(DomainError):
            vx.PointFunction([2.0, 1.0], "exponent")

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            vx.PointFunction([0.5, 1.0], "alpha")

    def test_weight_positive(self):
        with pytest.raises(DomainError):
            vx.PointFunction([1.0, 0.0], "weight")


class TestConjugate:
    def test_two_is_self_dual(self):
        assert np.allclose(vx.conjugate(const(4, 2.0)).values, 2.0)

    def test_four(self):
        assert np.allclose(vx.conjugate(const(4, 4.0)).values, 4.0 / 3.0)

    @given(st.floats(1.01, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, pval):
        p = const(8, pval)
        back = vx.conjugate(vx.conjugate(p))
        assert np.max(np.abs(back.values - p.values)) < 1e-12 * pval

    def test_extrema_swap_under_conjugation(self):
        sp = vx.uniform_grid(32)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        lo, hi = p.values.min(), p.values.max()
        pc = vx.conjugate(p)
        clo, chi = pc.values.min(), pc.values.max()
        assert clo == pytest.approx(hi / (hi - 1))
        assert chi == pytest.approx(lo / (lo - 1))


class TestLocalExponents:
    def test_constant_field(self):
        sp = vx.uniform_grid(32)
        le = vx.local_exponents(sp, const(32, 2.0))
        for f in (le.ball_min, le.tail_min, le.ball_min_capped):
            assert np.allclose(f.values, 2.0)

    def test_increasing_profile(self):
        sp = vx.uniform_grid(64)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        le = vx.local_exponents(sp, p)
        assert np.allclose(le.ball_min.values, 2.0)  # minimum sits at the basepoint
        assert np.allclose(le.tail_min.values, p.values)

    def test_decreasing_profile(self):
        sp = vx.uniform_grid(64)
        p = vx.PointFunction(3.0 - sp.d0, "exponent")
        le = vx.local_exponents(sp, p)
        assert np.allclose(le.ball_min.values, p.values)
        assert np.allclose(le.tail_min.values, p.values[-1])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        sp = vx.uniform_grid(40)
        p = vx.PointFunction(rng.uniform(1.5, 4.0, 40), "exponent")
        le = vx.local_exponents(sp, p)
        for x in range(40):
            closed = sp.d0 <= sp.d0[x]
            assert le.ball_min.values[x] == p.values[closed].min()
            annulus = (sp.d0 >= sp.d0[x]) & (sp.d0 <= sp.L_eff)
            assert le.tail_min.values[x] == p.values[annulus].min()

    def test_ball_min_below_p(self):
        rng = np.random.default_rng(3)
        sp = vx.uniform_grid(50)
        p = vx.PointFunction(rng.uniform(1.2, 5.0, 50), "exponent")
        le = vx.local_exponents(sp, p)
        assert np.all(le.ball_min.values <= p.values + 1e-15)

    def test_infinite_model_needs_constant_tail(self):
        c = np.linspace(0, 2, 41)
        sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]), np.full(41, 1 / 41),
                               0, np.inf, trunc_radius=2.0, coords=c)
        p_bad = vx.PointFunction(2.0 + c, "exponent")
        with pytest.raises(PreconditionError):
            vx.local_exponents(sp, p_bad, a=1.0)
        vals = np.where(c <= 1.0, 2.0 + c, 3.0)
        le = vx.local_exponents(sp, vx.PointFunction(vals, "exponent"), a=1.0)
        beyond = c > 1.0
        assert np.all(le.ball_min_capped.values[beyond] == 3.0)

    def test_capped_matches_plain_inside(self):
        sp = vx.uniform_grid(32)
        p = vx.PointFunction(2.0 + np.sin(3 * sp.d0) * 0.3 + 0.5, "exponent")
        le = vx.local_exponents(sp, p)
        assert np.array_equal(le.ball_min.values, le.ball_min_capped.values)


class TestSobolevExponent:
    def test_quarter_order(self):
        q = vx.sobolev_exponent(const(8, 2.0), const(8, 0.25, "alpha"))
        assert np.allclose(q.values, 4.0)

    def test_sixth_order(self):
        q = vx.sobolev_exponent(const(8, 3.0), const(8, 1 / 6, "alpha"))
        assert np.allclose(q.values, 6.0)
        assert 1 / 6 == pytest.approx(1 / 3 - 1 / 6)

    def test_reciprocal_identity_and_ordering(self):
        rng = np.random.default_rng(0)
        p = vx.PointFunction(rng.uniform(1.5, 3.0, 64), "exponent")
        al = vx.PointFunction(rng.uniform(0.01, 0.3, 64), "alpha")
        q = vx.sobolev_exponent(p, al)
        assert np.allclose(1 / q.values, 1 / p.values - al.values)
        assert np.all(q.values >= p.values)

    def test_gate(self):
        with pytest.raises(DomainError):
            vx.sobolev_exponent(const(8, 3.0), const(8, 0.5, "alpha"))


class TestClassCheck:
    def test_constant_p_oscillation_is_one(self):
        sp = vx.uniform_grid(64)
        rep = vx.class_check(sp, const(64, 2.0), "oscillation", N=1.0)
        assert rep.constant_c == pytest.approx(1.0)

    def test_affine_log_holder_distance(self):
        # |p(x)-p(y)| = |x-y|, so the sup of t(-log t) over the grid is ~ 1/e
        sp = vx.uniform_grid(512)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        rep = vx.class_check(sp, p, "log-holder-distance", b=0.5)
        brute = 0.0
        d = sp.rows(0, sp.n)
        dp = np.abs(p.values[:, None] - p.values[None, :])
        ok = (d > 0) & (d <= 0.5) & (d < 1)
        brute = float(np.max(dp[ok] * (-np.log(d[ok]))))
        assert rep.constant_c == pytest.approx(brute)
        assert rep.constant_c == pytest.approx(np.exp(-1.0), abs=5e-3)

    def test_log_holder_brute_force(self):
        sp = vx.uniform_grid(80)
        p = vx.PointFunction(2.0 + 0.4 * np.cos(4 * sp.coords), "exponent")
        rep = vx.class_check(sp, p, "log-holder", b=0.4)
        # independent oracle over all pairs
        best = 0.0
        for x in range(sp.n):
            for y in range(sp.n):
                dxy = sp.d_from(x)[y]
                if not 0 < dxy <= 0.4:
                    continue
                m = vx.ball(sp, x, dxy).measure
                if 0 < m < 1:
                    best = max(best, abs(p.values[x] - p.values[y]) * (-np.log(m)))
        assert rep.constant_c == pytest.approx(best)

    def test_at_point_variant(self):
        sp = vx.uniform_grid(64)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        rep = vx.class_check(sp, p, "log-holder-distance", at=0, b=0.5)
        full = vx.class_check(sp, p, "log-holder-distance", b=0.5)
        assert rep.constant_c <= full.constant_c + 1e-15
        assert rep.worst_witness[0] == 0

    @pytest.mark.parametrize("cls", ["log-holder", "log-holder-distance"])
    def test_at_point_counts_only_its_own_row(self, cls):
        # the row of `at` holds n - 1 pairs; no other row's pairs are excluded
        n, at, b = 1024, 5, 0.5
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        rep = vx.class_check(sp, p, cls, at=at, b=b)
        d = sp.d_from(at)
        gate = np.array([vx.ball(sp, at, r).measure for r in d]) if cls == "log-holder" else d
        near = (d > 0) & (d <= b)
        assert rep.excluded == int((near & ~((gate > 0) & (gate < 1))).sum())
        assert rep.excluded <= n - 1

    @pytest.mark.parametrize("at", [None, 3])
    def test_log_holder_builds_no_ball_index(self, at):
        # the ball measures come from row blocks; no n x n table is kept
        sp = vx.uniform_grid(96)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        vx.class_check(sp, p, "log-holder", at=at)
        assert "ball_index" not in vars(sp)
        assert [name for name, value in vars(sp).items()
                if any(a.size >= sp.n * sp.n for a in held_arrays(value))] == []

    def test_log_profile_stable_under_refinement(self):
        vals = []
        for n in (128, 256):
            sp = vx.uniform_grid(n)
            p = vx.PointFunction(2.0 + 1.0 / (1.0 - np.log(sp.radial_distances())), "exponent")
            vals.append(vx.class_check(sp, p, "log-holder", at=0).constant_c)
        assert 0.5 <= vals[1] / vals[0] <= 2.0

    def test_oscillation_iff_log_holder_trend(self):
        # a regular field keeps both constants stable; a noisy field blows
        # both up together (the two classes agree on doubling spaces)
        def constants(build):
            out = {}
            for n in (128, 256):
                sp = vx.uniform_grid(n)
                p = build(sp)
                osc = vx.class_check(sp, p, "oscillation", N=1.0).constant_c
                lh = vx.class_check(sp, p, "log-holder").constant_c
                out[n] = (osc, lh)
            return out

        smooth = constants(lambda sp: vx.PointFunction(2.0 + sp.coords, "exponent"))
        s_osc = smooth[256][0] / smooth[128][0]
        s_lh = smooth[256][1] / smooth[128][1]
        assert 0.5 <= s_osc <= 2.0 and 0.5 <= s_lh <= 2.0

        def noisy(sp):
            bits = (np.arange(sp.n) % 2).astype(float)
            return vx.PointFunction(2.0 + 0.5 * bits, "exponent")

        rough = constants(noisy)
        r_osc = rough[256][0] / rough[128][0]
        r_lh = rough[256][1] / rough[128][1]
        # never one side stable while the other blows past 2x
        assert not (0.5 <= r_osc <= 2.0) or not (r_lh > 2.0)
        assert not (0.5 <= r_lh <= 2.0) or not (r_osc > 2.0)
        # and on the noisy field both constants drift upward together
        assert r_osc > 1.05 and r_lh > 1.05


class TestClassCheckAgainstPerRowSorts:
    @given(sorted_row_spaces(), st.data(),
           st.sampled_from(["oscillation", "log-holder", "log-holder-distance"]),
           st.sampled_from([1.0, 1.5, 3.0]), st.sampled_from([None, 0.3, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_row_sorts_exactly(self, sp, data, cls, N, b):
        # repr: the same constant, witness and exclusion count, with their types
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        p = vx.PointFunction(rng.uniform(1.2, 3.0, sp.n), "exponent")
        at = data.draw(st.one_of(st.none(), st.integers(0, sp.n - 1)))
        got = vx.class_check(sp, p, cls, N=N, at=at, b=b)
        assert repr(got) == repr(reference_class_check(sp, p, cls, N=N, at=at, b=b))


class TestFieldFromSpec:
    def test_const(self):
        sp = vx.uniform_grid(8)
        f = vx.field_from_spec(sp, {"kind": "exponent", "expr": "const 2.5"})
        assert np.allclose(f.values, 2.5)
        g = vx.field_from_spec(sp, {"kind": "exponent", "expr": "const(x0, 2.5)"})
        assert np.array_equal(g.values, f.values)

    def test_affine(self):
        sp = vx.uniform_grid(8)
        f = vx.field_from_spec(sp, {"kind": "exponent", "expr": "affine-in-dist(x0, 2, 0.5)"})
        assert np.allclose(f.values, 2 + 0.5 * sp.d0)

    def test_power_floors_basepoint(self):
        sp = vx.uniform_grid(8)
        f = vx.field_from_spec(sp, {"kind": "weight", "expr": "power-of-dist(x0, -1)"})
        assert np.all(np.isfinite(f.values)) and f.values[0] > 0

    def test_log_power(self):
        sp = vx.uniform_grid(8)
        f = vx.field_from_spec(sp, {"kind": "weight", "expr": "log-power(x0, 0.5)"})
        d = sp.radial_distances()
        assert np.allclose(f.values, d**0.5 * np.log(2 / d))

    def test_explicit_values(self):
        sp = vx.uniform_grid(3)
        f = vx.field_from_spec(sp, {"kind": "test", "values": [1.0, 2.0, 3.0]})
        assert f.values.tolist() == [1.0, 2.0, 3.0]


class TestAnnulusOscillation:
    def test_bounded_for_log_holder_field(self):
        # over annuli between radii r and A r, the measure raised to the
        # exponent oscillation stays uniformly bounded for a regular field,
        # and stable under refinement
        def sup_constant(n, A=2.0):
            sp = vx.uniform_grid(n)
            p = vx.PointFunction(2.0 + sp.d0, "exponent")
            d0, mu = sp.d0, sp.mu
            best = 0.0
            for k in range(1, 10):
                r = 2.0 ** -k
                ann = (d0 >= r) & (d0 < A * r)
                if not ann.any():
                    continue
                m = mu[ann].sum()
                osc = p.values[ann].min() - p.values[ann].max()
                if 0 < m < 1:
                    best = max(best, m ** osc)
            return best

        c_lo, c_hi = sup_constant(256), sup_constant(512)
        assert 1.0 <= c_lo <= 5.0
        assert 0.8 <= c_hi / c_lo <= 1.25
