"""The two-weight condition functionals and their closed forms.

With unit weights and p = q = 2 the forward Hardy functional is
sup over t of t (1 - t) = 1/4; with w(y) = y it becomes the maximum of
(1 - t) t^3 / 3, attained at t = 3/4.  The power and log-adjusted weight
families come with their admissibility arithmetic, and the Muckenhoupt sweep
separates power weights below and above the A_2 threshold.

Run:  python demos/04_two_weight_conditions.py
"""
import numpy as np

import vexleb as vx

n = 1024
sp = vx.uniform_grid(n)
p2 = vx.PointFunction.constant(n, 2.0, "exponent")
one = vx.PointFunction.constant(n, 1.0, "weight")

rep = vx.hardy_condition(sp, p2, p2, one, one)
print(f"forward Hardy functional, unit weights: {rep.value:.6f} at t = {rep.argmax_t:.4f}"
      "   (exact: 1/4 at 1/2)")

wlin = vx.PointFunction(sp.d0.copy(), "test")
rep = vx.hardy_condition(sp, p2, p2, one, wlin)
print(f"with w(y) = y: {rep.value:.6f} at t = {rep.argmax_t:.4f}"
      f"   (exact: 9/256 = {9 / 256:.6f} at 3/4)")

pair = vx.power_weight_pair(p_value=2.0, alpha=0.25, beta=0.25)
print(f"\npower pair at p = 2, order 1/4, beta = 1/4: minimal gamma = {pair.gamma_min}")
try:
    vx.power_weight_pair(2.0, 0.25, 0.6)
except vx.PreconditionError as exc:
    print(f"  beta = 0.6 instead: {exc}")
q4 = vx.PointFunction.constant(n, 4.0, "exponent")
rep = vx.radial_condition(sp, p2, pair.v_profile, pair.w_profile, "potential",
                          alpha=0.25, q=q4)
print(f"  radial potential functional: {rep.value:.4f} at t = {rep.argmax_t:.4f} (finite)")

logpair = vx.log_adjusted_weight_pair(p_conj_at_base=2.0, L=1.0)
p_aff = vx.PointFunction(2.0 + sp.d0, "exponent")
rep = vx.radial_condition(sp, p_aff, logpair.v_profile, logpair.w_profile,
                          "maximal-basepoint", require_monotone=False)
print(f"\nlog-adjusted pair v = t^(1/2), w = t^(1/2) log(2/t):")
print(f"  maximal functional: {rep.value:.4f} (finite although w leaves every"
      " Muckenhoupt class)")

print("\nMuckenhoupt A_2 sweep on power weights d^delta (threshold delta = 1):")
for delta in (0.5, 1.5):
    vals = [vx.muckenhoupt_ar(vx.uniform_grid(m),
                              vx.PointFunction(vx.uniform_grid(m).radial_distances() ** delta,
                                               "weight"), 2.0)
            for m in (64, 256, 1024)]
    trend = vx.classify_trend(vals)
    print(f"  delta = {delta}: {', '.join(f'{v:.2f}' for v in vals)}  -> {trend}")

b1, b2, _ = vx.annulus_weight_comparison(
    sp, vx.PointFunction(sp.radial_distances() ** 0.5, "weight"),
    vx.PointFunction(sp.radial_distances() ** 0.5, "weight"), A=2.0)
print(f"\nannulus comparability of t^0.5 with itself at A = 2: b1 = {b1:.4f}"
      "  (monotone ratio (A^2)^0.5 = 2)")
