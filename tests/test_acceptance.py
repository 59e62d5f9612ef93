"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them inline)."""
import time
from pathlib import Path

import numpy as np
import pytest

import vexleb as vx
from vexleb.cli import load_scenario, run
from vexleb.conditions import t_sweep

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


def const(n, v, kind="exponent"):
    return vx.PointFunction.constant(n, v, kind)


def random_space(rng, n):
    coords = np.sort(rng.uniform(0.0, 1.0, n))
    coords[0] = 0.0
    if np.any(np.diff(coords) <= 0):
        coords = np.linspace(0, 1, n)
    dist = np.abs(coords[:, None] - coords[None, :])
    mu = rng.uniform(0.3, 1.7, n)
    mu /= mu.sum()
    return vx.explicit_space(dist, mu, 0, 1.0, coords=coords)


def test_c01_luxemburg_norm_matches_closed_form():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        pval = [1.5, 2.0, 3.0][i % 3]
        n = int(rng.integers(64, 1025))
        sp = random_space(rng, n)
        f = vx.PointFunction(rng.uniform(0, 5, n), "test")
        got = vx.luxemburg_norm(sp, const(n, pval), f).value
        want = float((np.abs(f.values) ** pval * sp.mu).sum() ** (1 / pval))
        worst = max(worst, abs(got - want) / want)
        assert got == pytest.approx(want, rel=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"200 closed-form norms, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_c02_two_point_variable_exponent_norm():
    sp = vx.explicit_space([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], 0, 1.0)
    p = vx.PointFunction([2.0, 4.0], "exponent")
    f = vx.PointFunction([2.0, 2.0], "test")
    got = vx.luxemburg_norm(sp, p, f).value
    assert got == pytest.approx(2.0, rel=1e-9)
    # independent lambda-scan oracle
    lams = np.linspace(1.5, 2.5, 200_001)
    mods = np.array([vx.modular(sp, p, vx.PointFunction(f.values / lam, "test"))
                     for lam in lams[::400]])
    crossing = lams[::400][int(np.argmax(mods <= 1.0))]
    assert crossing == pytest.approx(2.0, abs=5e-3)
    report(2, f"two-point norm {got:.12f}, scan crossing {crossing:.4f}")


def test_c03_bracket_and_holder_sweeps():
    rng = np.random.default_rng(7)
    bracket_checked = 0
    for _ in range(1000):
        n = int(rng.integers(8, 64))
        sp = random_space(rng, n)
        p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
        scale = 10.0 ** rng.uniform(-2, 2)
        f = vx.PointFunction(scale * rng.uniform(0, 1, n), "test")
        norm = vx.luxemburg_norm(sp, p, f).value
        if norm == 0:
            continue
        s = vx.modular(sp, p, f)
        p_lo, p_hi = float(p.values.min()), float(p.values.max())
        if norm <= 1:
            assert norm**p_hi * (1 - 1e-9) <= s <= norm**p_lo * (1 + 1e-9)
        else:
            assert norm**p_lo * (1 - 1e-9) <= s <= norm**p_hi * (1 + 1e-9)
        bracket_checked += 1
    assert bracket_checked >= 950

    for _ in range(1000):
        n = int(rng.integers(8, 64))
        sp = random_space(rng, n)
        p = vx.PointFunction(rng.uniform(1.1, 5.0, n), "exponent")
        f = vx.PointFunction(rng.uniform(-3, 3, n), "test")
        g = vx.PointFunction(rng.uniform(-3, 3, n), "test")
        # sum |f g| mu <= (1/p_min + 1/p'_min) ||f||_p ||g||_p'
        pc = vx.conjugate(p)
        lhs = float((np.abs(f.values * g.values) * sp.mu).sum())
        rhs = (1.0 / p.values.min() + 1.0 / pc.values.min()) \
            * vx.luxemburg_norm(sp, p, f).value * vx.luxemburg_norm(sp, pc, g).value
        assert lhs <= rhs * (1.0 + 1e-9), (lhs, rhs)
    report(3, f"{bracket_checked} bracket + 1000 Hoelder instances, zero violations")


def test_c04_hardy_condition_value_first_order():
    errs = []
    for n in (2**6, 2**8, 2**10, 2**12):
        sp = vx.uniform_grid(n)
        p = const(n, 2.0)
        one = const(n, 1.0, "weight")
        rep = vx.hardy_condition(sp, p, p, one, one)
        err = abs(rep.value - 0.25)
        assert err <= 2.0 / n
        errs.append(err)
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    report(4, f"condition errors at 2^6..2^12: {[f'{e:.1e}' for e in errs]}")


def test_c05_sufficiency_and_necessity_trends():
    res_lo, res_hi = 2**6, 2**12

    def hardy_ratio(n, make_vw, p_val, q_val):
        sp = vx.uniform_grid(n)
        v, w = make_vw(sp)
        op = lambda rows: vx.hardy_transforms(sp, v, w, rows)
        ones = const(n, 1.0, "weight")
        return vx.empirical_ratio(sp, op, const(n, p_val), const(n, q_val),
                                  ones, ones, trials=8, seed=0).ratio

    def unit(sp):
        return const(sp.n, 1.0, "weight"), const(sp.n, 1.0, "weight")

    def composite(sp):
        # the potential inequality of order 1/4 in Hardy form:
        # (v muB0**(alpha - 1), 1/w), the basepoint's zero ball measure
        # floored to half its own weight
        dre = sp.radial_distances()
        muB0 = np.maximum(sp.muB0, 0.5 * sp.mu[sp.x0])
        return (vx.PointFunction(dre**0.25 * muB0 ** (0.25 - 1.0), "weight"),
                vx.PointFunction(1.0 / dre**0.25, "weight"))

    def half_power(sp):
        return (vx.PointFunction(sp.radial_distances() ** 0.5, "weight"),
                const(sp.n, 1.0, "weight"))

    growths = []
    for make_vw, p_val, q_val in ((unit, 2.0, 2.0), (composite, 2.0, 4.0),
                                  (half_power, 2.0, 2.0)):
        lo = hardy_ratio(res_lo, make_vw, p_val, q_val)
        hi = hardy_ratio(res_hi, make_vw, p_val, q_val)
        growths.append(hi / lo)
        assert hi <= 1.5 * lo
    # necessity regime: w(y) = y makes the conjugate-weight integral blow up
    conds, probes = [], []
    for n in (res_lo, res_hi):
        sp = vx.uniform_grid(n)
        one = const(n, 1.0, "weight")
        w = vx.PointFunction(sp.radial_distances(), "weight")
        r, c = vx.necessity_probe(sp, "hardy", 2.0, 2.0, one, w, 0.5)
        probes.append(r)
        conds.append(c)
    assert conds[1] >= 2.0 * conds[0]
    assert probes[1] >= 2.0 * probes[0]
    report(5, f"bounded growth factors {[f'{g:.3f}' for g in growths]}; "
              f"divergent cond x{conds[1] / conds[0]:.0f}, probe x{probes[1] / probes[0]:.1f}")


def test_c06_potential_closed_forms():
    n = 2**10
    sp = vx.uniform_grid(n)
    al = const(n, 0.5, "alpha")
    one = np.ones((1, n))
    t0 = vx.ball_potentials(sp, al, one)[0, 0]
    i0 = vx.distance_potentials(sp, al, one)[0, 0]
    assert t0 == pytest.approx(2.0, rel=0.03)
    assert i0 == pytest.approx(2.0, rel=0.03)
    report(6, f"ball potential {t0:.4f}, distance potential {i0:.4f} (target 2)")


def test_c07_singular_integral_principal_value():
    n = 2**12 + 1  # 2^12 cells: 0.25 and 0.5 are grid points, grid symmetric
    sp = vx.uniform_grid(n)
    one = np.ones((1, n))
    h = 1.0 / (n - 1)
    kernel = vx.hilbert_kernel()
    i25 = int(round(0.25 * (n - 1)))
    i50 = int(round(0.5 * (n - 1)))
    assert sp.coords[i25] == 0.25 and sp.coords[i50] == 0.5
    vals = [vx.singular_integrals(sp, kernel, one, eps)[0] for eps in (4 * h, 2 * h, h)]
    assert vals[-1][i25] == pytest.approx(np.log(1.0 / 3.0), abs=1e-2)
    assert abs(vals[-1][i50]) <= 1e-6
    report(7, f"K1(0.25) = {vals[-1][i25]:.6f} (ln(1/3) = {np.log(1/3):.6f}), "
              f"K1(0.5) = {vals[-1][i50]:.1e}")


def test_c08_log_adjusted_pair_bounds():
    pair = vx.log_adjusted_weight_pair(2.0, 1.0)

    def s_value(n):
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        rep = vx.radial_condition(sp, p, pair.v_profile, pair.w_profile,
                                  "maximal-basepoint", require_monotone=False)
        return rep.value

    s_lo, s_hi = s_value(512), s_value(1024)
    assert abs(s_hi / s_lo - 1.0) <= 0.05

    def curves(n):
        sp = vx.uniform_grid(n)
        p = vx.PointFunction(2.0 + sp.d0, "exponent")
        dre = sp.radial_distances()
        d0, mu, L = sp.d0, sp.mu, sp.L_eff
        muB0 = np.array([vx.ball(sp, 0, d).measure for d in d0])
        ts = t_sweep(sp)
        ts = ts[(ts > 0) & (ts <= L)]
        W = np.array([(pair.w_profile(dre) ** -2.0 * mu)[d0 <= t].sum() for t in ts])
        V = []
        for t in ts:
            sel = (d0 > t) & (d0 <= L)
            V.append(((pair.v_profile(dre[sel]) / muB0[sel]) ** p.values[sel]
                      * mu[sel]).sum())
        return ts, W, np.array(V)

    ts, W, V = curves(512)
    logs = np.log(2.0 / ts)
    C1 = float((W * logs).max())
    C2 = float((V / logs).max())
    assert np.isfinite(C1) and np.isfinite(C2)
    ts2, W2, V2 = curves(1024)
    logs2 = np.log(2.0 / ts2)
    assert np.all(W2 * logs2 <= 1.1 * C1)
    assert np.all(V2 <= 1.1 * C2 * logs2)
    report(8, f"S stable ({s_lo:.4f} -> {s_hi:.4f}), fitted C1 = {C1:.3f}, C2 = {C2:.3f} "
              "hold at the next resolution")


def test_c09_muckenhoupt_dichotomy():
    stable, blowing = [], []
    for n in (64, 256, 1024):
        sp = vx.uniform_grid(n)
        dre = sp.radial_distances()
        stable.append(vx.muckenhoupt_ar(sp, vx.PointFunction(dre**0.5, "weight"), 2.0))
        blowing.append(vx.muckenhoupt_ar(sp, vx.PointFunction(dre**1.5, "weight"), 2.0))
    assert vx.finite_hint(stable) is True
    assert blowing[1] >= 2.0 * blowing[0]
    assert blowing[2] >= 2.0 * blowing[1]
    report(9, f"A2(d^0.5) stable {[f'{v:.3f}' for v in stable]}; "
              f"A2(d^1.5) grows {[f'{v:.1f}' for v in blowing]}")


def test_c10_power_iteration_vs_dense_oracle():
    rng = np.random.default_rng(10)
    c = np.arange(16.0)
    sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]) / 15, np.full(16, 1 / 16),
                           0, 1.0)
    s = np.sqrt(sp.mu)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.1, 1.0, (16, 16))
        k = 0.5 * (a + a.T)
        got = vx.power_iteration_pq(sp, k, 2.0, 2.0, iters=3000, tol=1e-14).ratio
        want = float(np.linalg.svd(s[:, None] * k * s[None, :], compute_uv=False)[0])
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-6
    report(10, f"20 kernels, worst |power-iteration - svd| = {worst:.2e}")


def test_c11_geometry_bounds():
    # tail-integral bound with beta = -1.5 over r in 2^-1..2^-8
    beta = -1.5
    bound_factor = abs((beta + 1.0) / beta)

    def fitted_c(n):
        sp = vx.uniform_grid(n)
        d0, mu = sp.d0, sp.mu
        muB0 = np.array([vx.ball(sp, 0, d).measure for d in d0])
        ratios = []
        for k in range(1, 9):
            r = 2.0**-k
            sel = (d0 >= r) & (muB0 > 0)
            lhs = (muB0[sel] ** beta * mu[sel]).sum()
            rhs = bound_factor * vx.ball(sp, 0, r).measure ** (beta + 1.0)
            ratios.append(lhs / rhs)
        return max(ratios)

    c_lo, c_hi = fitted_c(1024), fitted_c(2048)
    assert c_lo <= 10.0
    assert abs(c_hi / c_lo - 1.0) <= 0.10

    # shell-measure equivalence at n = 2^10: the shell 2^k < d0 <= 2^(k+1)
    # against the ball of radius 2^k
    n = 2**10
    sp = vx.uniform_grid(n)
    ratios = []
    for k in range(-7, 0):
        shell = (sp.d0 > 2.0**k) & (sp.d0 <= 2.0 ** (k + 1))
        mb = vx.ball(sp, 0, 2.0**k).measure
        if shell.any() and mb > 0:
            ratios.append(sp.mu[shell].sum() / mb)
    c_shell = max(max(ratios), 1.0 / min(ratios))
    assert c_shell <= 1.5
    report(11, f"tail-bound fitted c = {c_lo:.3f} (stable), shell-measure c = {c_shell:.3f}")


def test_c12_deterministic_reports(tmp_path):
    for name in ("hardy_unit", "geometry_only"):
        sc1 = load_scenario(SCENARIOS / f"{name}.json")
        sc2 = load_scenario(SCENARIOS / f"{name}.json")
        assert run(sc1, tmp_path / "a", resolutions=[32, 64, 128]) == 0
        assert run(sc2, tmp_path / "b", resolutions=[32, 64, 128]) == 0
        for out in sorted((tmp_path / "a").iterdir()):
            twin = tmp_path / "b" / out.name
            assert out.read_bytes() == twin.read_bytes()
    report(12, "golden scenarios reproduce byte-identical reports")
