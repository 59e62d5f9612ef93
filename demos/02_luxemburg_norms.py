"""Modulars, Luxemburg norms, and the inequalities between them.

For constant exponents the norm has a closed form, which the Newton
iteration reproduces to ten digits in two steps.  For variable exponents there is no closed form;
the two-point example below is solvable by hand and lands exactly on 2.

Run:  python demos/02_luxemburg_norms.py
"""
import numpy as np

import vexleb as vx

rng = np.random.default_rng(0)
n = 256
sp = vx.uniform_grid(n)
f = vx.PointFunction(rng.uniform(0, 3, n), "test")

print("constant exponents: Newton iteration vs closed form")
for pval in (1.5, 2.0, 3.0):
    p = vx.PointFunction.constant(n, pval, "exponent")
    res = vx.luxemburg_norm(sp, p, f)
    closed = ((np.abs(f.values) ** pval * sp.mu).sum()) ** (1 / pval)
    print(f"  p = {pval}: norm = {res.value:.12f}, closed form = {closed:.12f}, "
          f"{res.bisection_iters} steps")

two = vx.explicit_space([[0, 1], [1, 0]], [0.5, 0.5], 0, 1.0)
p24 = vx.PointFunction([2.0, 4.0], "exponent")
f22 = vx.PointFunction([2.0, 2.0], "test")
print(f"\ntwo points, p = (2, 4), f = (2, 2): norm = "
      f"{vx.luxemburg_norm(two, p24, f22).value:.10f}  (exact: 2)")

# norm-modular bracket: the modular is pinched between norm^p_max and
# norm^p_min on the unit ball side, reversed outside it
p = vx.PointFunction(rng.uniform(1.3, 3.5, n), "exponent")
for scale in (0.05, 5.0):
    g = vx.PointFunction(scale * rng.uniform(0, 1, n), "test")
    norm = vx.luxemburg_norm(sp, p, g).value
    s = vx.modular(sp, p, g)
    lo, hi = (norm ** p.values.max(), norm ** p.values.min())
    if norm > 1:
        lo, hi = hi, lo
    print(f"\n||f|| = {norm:.4f}: bracket [{lo:.4g}, {hi:.4g}] holds modular {s:.4g}:",
          lo <= s <= hi)

g = vx.PointFunction(rng.uniform(-1, 1, n), "test")
h = vx.PointFunction(rng.uniform(-1, 1, n), "test")
# Hoelder: sum |g h| mu <= (1/p_min + 1/p'_min) ||g||_p ||h||_p'
pc = vx.conjugate(p)
lhs = (np.abs(g.values * h.values) * sp.mu).sum()
rhs = (1 / p.values.min() + 1 / pc.values.min()) \
    * vx.luxemburg_norm(sp, p, g).value * vx.luxemburg_norm(sp, pc, h).value
print(f"\nHoelder on random data: integral {lhs:.4f} <= bound {rhs:.4f}: {lhs <= rhs}")
