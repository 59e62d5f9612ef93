import numpy as np
import pytest

import vexleb as vx
from vexleb.errors import DomainError, PreconditionError


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
                                 one, one, trials=4, seed=0)
        assert est.ratio == pytest.approx(1.0, rel=1e-9)

    def test_zero_operator(self):
        n = 64
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        est = vx.empirical_ratio(sp, lambda f: np.zeros_like(f), const(n, 2.0),
                                 const(n, 2.0), one, one, trials=4, seed=0)
        assert est.ratio == 0.0

    def test_hardy_lower_bound_from_unit_probe(self):
        # f = 1 maps to the coordinate, so the ratio reaches 3^(-1/2)
        n = 256
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        est = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                                 one, one, trials=4, seed=0)
        assert est.ratio >= 1.0 / np.sqrt(3.0) - 0.01

    def test_seed_determinism_bitwise(self):
        n = 96
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        a = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                               one, one, trials=16, seed=123)
        b = vx.empirical_ratio(sp, hardy_op(sp), const(n, 2.0), const(n, 2.0),
                               one, one, trials=16, seed=123)
        assert a.ratio == b.ratio
        assert np.array_equal(a.best_f.values, b.best_f.values)

    def test_best_f_reproduces_ratio(self):
        n = 128
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        p = const(n, 2.0)
        est = vx.empirical_ratio(sp, hardy_op(sp), p, p, one, one, trials=8, seed=1)
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
                                 one, w, trials=4, seed=0)
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
        assert vx.empirical_ratio(*args, trials=4, seed=0).converged is True
        monkeypatch.setattr(norms, "MAX_ITERS", 1)
        assert vx.empirical_ratio(*args, trials=4, seed=0).converged is False

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
        est = vx.empirical_ratio(sp, op, const(n, 2.0), const(n, 2.0), one, w,
                                 trials=4, seed=0)
        assert len(seen) == 1
        assert est.discarded > 0
        assert seen[0].shape == (est.trials - est.discarded, n)
        # the first norm batch holds every weighted probe; op gets the ones
        # with a nonzero weighted norm, in probe order
        kept = np.any(normed[0] != 0, axis=1)
        assert np.array_equal(w.values * seen[0], normed[0][kept])

    def test_op_block_of_the_wrong_shape_is_refused(self):
        n = 16
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        with pytest.raises(DomainError, match="block"):
            vx.empirical_ratio(sp, lambda rows: rows[:1], const(n, 2.0), const(n, 2.0),
                               one, one, trials=4, seed=0)


class TestPowerIteration:
    def test_matches_dense_svd(self):
        rng = np.random.default_rng(10)
        c = np.arange(16.0)
        sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]) / 15, np.full(16, 1 / 16),
                               0, 1.0)
        s = np.sqrt(sp.mu)
        for _ in range(20):
            a = rng.uniform(0.1, 1.0, (16, 16))
            k = 0.5 * (a + a.T)
            est = vx.power_iteration_pq(sp, k, 2.0, 2.0, iters=3000, tol=1e-14)
            oracle = np.linalg.svd(s[:, None] * k * s[None, :], compute_uv=False)[0]
            assert est.ratio == pytest.approx(oracle, abs=1e-6 * oracle)

    def test_identity_kernel(self):
        sp = vx.uniform_grid(16)
        k = np.diag(1.0 / sp.mu)
        assert vx.power_iteration_pq(sp, k, 2.0, 2.0).ratio == pytest.approx(1.0)

    def test_homogeneous_in_kernel(self):
        rng = np.random.default_rng(11)
        sp = vx.uniform_grid(12)
        k = rng.uniform(0.1, 1.0, (12, 12))
        base = vx.power_iteration_pq(sp, k, 1.5, 2.5).ratio
        tripled = vx.power_iteration_pq(sp, 3.0 * k, 1.5, 2.5).ratio
        assert tripled == pytest.approx(3.0 * base, rel=1e-12)

    def test_dominates_probe_search(self):
        # the iteration explores a superset of the probe directions
        n = 48
        sp = vx.uniform_grid(n)
        rng = np.random.default_rng(12)
        k = rng.uniform(0.05, 1.0, (n, n))
        pi = vx.power_iteration_pq(sp, k, 2.0, 2.0, iters=2000, tol=1e-13)
        one = const(n, 1.0, "weight")
        er = vx.empirical_ratio(sp, lambda rows: (rows * sp.mu) @ k.T, const(n, 2.0),
                                const(n, 2.0), one, one, trials=16, seed=3)
        assert pi.ratio >= er.ratio - 1e-9

    def test_nonconvergence_returns_flagged_best(self):
        rng = np.random.default_rng(13)
        sp = vx.uniform_grid(12)
        k = rng.uniform(0.1, 1.0, (12, 12))
        est = vx.power_iteration_pq(sp, k, 2.0, 2.0, iters=2, tol=0.0)
        assert not est.converged and est.ratio > 0

    def test_rejects_bad_exponents(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(DomainError):
            vx.power_iteration_pq(sp, np.ones((8, 8)), 1.0, 2.0)


class TestNecessityProbe:
    def test_hardy_unit_weights(self):
        n = 256
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        ratio, cond = vx.necessity_probe(sp, "hardy", 2.0, 2.0, one, one, 0.5)
        assert cond == pytest.approx(0.25, abs=2.0 / n)
        assert 0.25 * cond**0.5 <= ratio <= 4.0 * cond**0.5

    def test_divergent_weight_grows(self):
        ratios, conds = [], []
        for n in (64, 256, 1024, 4096):
            sp = vx.uniform_grid(n)
            one = const(n, 1.0, "weight")
            w = vx.PointFunction(sp.radial_distances(), "weight")
            r, c = vx.necessity_probe(sp, "hardy", 2.0, 2.0, one, w, 0.5)
            ratios.append(r)
            conds.append(c)
        assert ratios[-1] / ratios[0] >= 2.0
        assert conds[-1] / conds[0] >= 2.0

    def test_zero_v(self):
        n = 64
        sp = vx.uniform_grid(n)
        r, c = vx.necessity_probe(sp, "hardy", 2.0, 2.0, const(n, 0.0, "test"),
                                  const(n, 1.0, "weight"), 0.5)
        assert r == 0.0 and c == 0.0

    def test_potential_variants_track_conditions(self):
        n = 256
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        for variant in ("potential-ball", "potential-tail"):
            ratio, cond = vx.necessity_probe(sp, variant, 2.0, 4.0, one, one, 0.5)
            assert ratio > 0 and np.isfinite(cond)
            # the probe certifies a lower bound comparable to cond^(1/q)
            assert ratio >= 0.1 * cond ** (1 / 4)

    def test_maximal_variant(self):
        n = 256
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        ratio, cond = vx.necessity_probe(sp, "maximal", 2.0, 2.0, one, one, 0.5)
        assert ratio > 0 and cond > 0
        assert 0.1 * cond**0.5 <= ratio <= 10.0 * cond**0.5

    def test_degenerate_weight_rejected(self):
        n = 32
        sp = vx.uniform_grid(n)
        with pytest.raises(DomainError):
            vx.necessity_probe(sp, "hardy", 2.0, 2.0, const(n, 1.0, "weight"),
                               const(n, 0.0, "test"), 0.5)

    def test_unknown_variant(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(DomainError):
            vx.necessity_probe(sp, "nope", 2.0, 2.0, const(8, 1.0, "weight"),
                               const(8, 1.0, "weight"), 0.5)


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
    """The report of the functional a necessity probe reads its value from."""
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


class TestNecessityProbeReadsTheCurve:
    @pytest.mark.parametrize("make", [lambda: vx.uniform_grid(48), lambda: vx.cantor_space(5),
                                      line_beyond_L], ids=["grid", "cantor", "line-beyond-L"])
    @pytest.mark.parametrize("variant", vx.verify.PROBE_VARIANTS)
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
            # the probe's w is any positive field, here a test function
            _, cond = vx.necessity_probe(sp, variant, p, q, vx.PointFunction(v, "test"),
                                         vx.PointFunction(w, "test"), t)
            expected = rep.curve[np.searchsorted(rep.ts, t, side="right") - 1]
            assert cond == pytest.approx(expected, rel=1e-12)
            if t <= L:
                assert cond == pytest.approx(hand_sum(sp, variant, p, q, v, w, t), rel=1e-12)

    @pytest.mark.parametrize("variant", vx.verify.PROBE_VARIANTS)
    def test_negative_cut_rejected(self, variant):
        sp = vx.uniform_grid(16)
        one = const(16, 1.0, "weight")
        with pytest.raises(DomainError, match="cut"):
            vx.necessity_probe(sp, variant, 2.0, 3.0, one, one, -0.1)


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
