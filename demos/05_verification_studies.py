"""Pairing condition values with empirical operator-norm ratios.

A finite condition should come with ratios that stay put as the grid
refines; a divergent one must drag the ratios up with it, since the
condition's B = value**(1/q) bounds the norm from below.  Both directions
are exercised here on the forward Hardy transform, and the same machinery
runs end to end through a scenario file.

Run:  python demos/05_verification_studies.py
"""
from pathlib import Path

import vexleb as vx
from vexleb.cli import load_scenario, run

print("bounded direction: unit weights, p = q = 2")
for n in (64, 256, 1024):
    sp = vx.uniform_grid(n)
    one = vx.PointFunction.constant(n, 1.0, "weight")
    p2 = vx.PointFunction.constant(n, 2.0, "exponent")
    # the operator maps a block of probes, one per row, to their images
    op = lambda rows: vx.hardy_transforms(sp, one, one, rows)
    est = vx.empirical_ratio(sp, op, p2, p2, one, one, seed=0)
    cond = vx.hardy_condition(sp, p2, p2, one, one).value
    print(f"  n = {n:5d}: condition {cond:.4f}, best ratio {est.ratio:.4f} "
          f"({est.trials} probes)")

print("\ndivergent direction: H_{1, w} with w(y) = 1/y drives the conjugate-weight "
      "integral up")
for n in (64, 256, 1024):
    sp = vx.uniform_grid(n)
    one = vx.PointFunction.constant(n, 1.0, "weight")
    p2 = vx.PointFunction.constant(n, 2.0, "exponent")
    d0 = vx.PointFunction(sp.radial_distances(), "weight")
    # H_{1,w} f = H(w f): over g = w f the ratio reads the norm weights (1, 1/w),
    # and the conjugate rows (1/w)**(-p') on balls are the extremals
    op = lambda rows: vx.hardy_transforms(sp, one, one, rows)
    est = vx.empirical_ratio(sp, op, p2, p2, one, d0, seed=0)
    cond = vx.hardy_condition(sp, p2, p2, one, vx.PointFunction(1.0 / d0.values, "weight"))
    print(f"  n = {n:5d}: B = condition**(1/2) {cond.value ** 0.5:7.2f}, "
          f"best ratio {est.ratio:7.2f}")

print("\nscenario end to end (writes JSON + CSV reports):")
scen = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "hardy_unit.json")
out = Path(__file__).resolve().parent / "out"
code = run(scen, out, resolutions=[64, 128, 256])
print(f"  exit code {code}; reports in {out}/")
study = vx.refinement_study(scen, [64, 128, 256])
print(f"  condition trend: {study.condition_trends}, ratio trend: {study.ratio_trend}")
