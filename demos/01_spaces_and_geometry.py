"""Spaces and their geometric constants.

Builds the unit grid and a Cantor-measure approximation, then reads off the
quasi-triangle, doubling, reverse-doubling and Ahlfors constants.  The grid
behaves like the interval with Lebesgue measure (doubling constant 2,
Ahlfors 1-regular); the Cantor space is Ahlfors-regular at dimension
log 2 / log 3 and shows empty annuli at scale 2.

Run:  python demos/01_spaces_and_geometry.py
"""
import numpy as np

import vexleb as vx

grid = vx.uniform_grid(512)
g = vx.geometry_constants(grid)
print("unit grid, 512 points")
print(f"  quasi-triangle a1 = {g.a1:.6f}, asymmetry a0 = {g.a0:.6f}")
print(f"  doubling constant  = {g.doubling_c:.4f}   (interval value: 2)")
print(f"  reverse doubling B = {g.rdc_B:.4f} at A = {g.rdc_A}")
print(f"  Ahlfors (q = 1)    : c1 = {g.ahlfors_upper_c1:.4f}, c2 = {g.ahlfors_lower_c2:.4f}")
print(f"  annuli nonempty at scale A: {g.annuli_nonempty}")

# a squared distance stays a quasimetric, with triangle defect 2
c = np.linspace(0, 1, 128)
squared = vx.explicit_space(np.abs(c[:, None] - c[None, :]) ** 2, np.full(128, 1 / 128),
                            0, 1.0)
print(f"\nsquared-distance grid: a1 = {vx.geometry_constants(squared).a1:.4f}  (exact: 2)")

cantor = vx.cantor_space(8)
q = np.log(2) / np.log(3)
gc = vx.geometry_constants(cantor, ahlfors_exponent=q)
print(f"\nCantor approximation, depth 8 ({cantor.n} points)")
print(f"  Ahlfors at q = log2/log3: c1 = {gc.ahlfors_upper_c1:.4f} at (center, r) = "
      f"{gc.ahlfors_upper_witness}, c2 = {gc.ahlfors_lower_c2:.4f} at {gc.ahlfors_lower_witness}")
print(f"  doubling constant = {gc.doubling_c:.4f}, annuli nonempty: {gc.annuli_nonempty}")
