"""Pairing condition values with empirical operator-norm ratios.

A finite condition should come with ratios that stay put as the grid
refines; a divergent one must drag the explicit necessity probe up with it.
Both directions are exercised here on the forward Hardy transform, and the
same machinery runs end to end through a scenario file.

Run:  python demos/05_verification_studies.py
"""
from pathlib import Path

import numpy as np

import vexleb as vx
from vexleb.cli import load_scenario, run

print("bounded direction: unit weights, p = q = 2")
for n in (64, 256, 1024):
    sp = vx.uniform_grid(n)
    one = vx.PointFunction.constant(n, 1.0, "weight")
    p2 = vx.PointFunction.constant(n, 2.0, "exponent")
    # the operator maps a block of probes, one per row, to their images
    op = lambda rows: vx.hardy_transforms(sp, one, one, rows)
    est = vx.empirical_ratio(sp, op, p2, p2, one, one, trials=8, seed=0)
    cond = vx.hardy_condition(sp, p2, p2, one, one).value
    print(f"  n = {n:5d}: condition {cond:.4f}, best ratio {est.ratio:.4f} "
          f"({est.trials} probes)")

print("\ndivergent direction: w(y) = y drives the conjugate-weight integral up")
for n in (64, 256, 1024):
    sp = vx.uniform_grid(n)
    one = vx.PointFunction.constant(n, 1.0, "weight")
    w = vx.PointFunction(sp.radial_distances(), "weight")
    ratio, cond = vx.necessity_probe(sp, "hardy", 2.0, 2.0, one, w, t=0.5)
    print(f"  n = {n:5d}: condition at t = 1/2: {cond:9.1f}, probe ratio {ratio:7.2f}")

print("\nnonlinear power iteration vs dense oracle (p = q = 2, 16 points)")
rng = np.random.default_rng(3)
c = np.arange(16.0)
sp16 = vx.explicit_space(np.abs(c[:, None] - c[None, :]) / 15, np.full(16, 1 / 16), 0, 1.0)
a = rng.uniform(0.1, 1.0, (16, 16))
k = 0.5 * (a + a.T)
est = vx.power_iteration_pq(sp16, k, 2.0, 2.0)
s = np.sqrt(sp16.mu)
oracle = np.linalg.svd(s[:, None] * k * s[None, :], compute_uv=False)[0]
print(f"  power iteration {est.ratio:.12f} vs svd {oracle:.12f}")

print("\nscenario end to end (writes JSON + CSV reports):")
scen = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "hardy_unit.json")
out = Path(__file__).resolve().parent / "out"
code = run(scen, out, resolutions=[64, 128, 256])
print(f"  exit code {code}; reports in {out}/")
study = vx.refinement_study(scen, [64, 128, 256])
print(f"  condition trend: {study.condition_trends}, ratio trend: {study.ratio_trend}")
