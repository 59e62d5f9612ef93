"""The operators, checked against interval closed forms.

On the unit grid with unit weights the forward Hardy transform is the
running integral (= the coordinate), its tail companion the remaining mass,
the order-1/2 potentials at the origin sum the integral of y^(-1/2) = 2, and
the coordinate-difference singular kernel reproduces its principal value.

Run:  python demos/03_operators.py
"""
import numpy as np

import vexleb as vx

n = 1025  # odd: both 1/4 and 1/2 are grid points and the grid is symmetric
sp = vx.uniform_grid(n)
one_w = vx.PointFunction.constant(n, 1.0, "weight")
# every operator maps a (P, n) block of test functions, one per row; here P = 1
one_f = np.ones((1, n))

T = vx.hardy_transforms(sp, one_w, one_w, one_f)[0]
Tp = vx.hardy_tail_transforms(sp, one_w, one_w, one_f)[0]
print(f"forward Hardy of 1 at x = 0.5: {T[n // 2]:.6f}  (running integral: 0.5)")
print(f"tail Hardy of 1 at x = 0.5   : {Tp[n // 2]:.6f}  (remaining mass: 0.5)")
print(f"at the basepoint the open ball is empty: T1(x0) = {T[0]}")

ind = (sp.coords <= 0.5).astype(float)
M = vx.maximal_functions(sp, ind[None, :])[0]
print(f"\nmaximal function of the half indicator at x = 1: {M[-1]:.6f}  (best average: 0.5)")

al = vx.PointFunction.constant(n, 0.5, "alpha")
Tpot = vx.ball_potentials(sp, al, one_f)[0]
Ipot = vx.distance_potentials(sp, al, one_f)[0]
print(f"\norder-1/2 potentials of 1 at the origin:")
print(f"  ball kernel     : {Tpot[0]:.5f}   (integral of y^-1/2 = 2)")
print(f"  distance kernel : {Ipot[0]:.5f}")

kernel = vx.hilbert_kernel()
h = 1.0 / (n - 1)
i25 = (n - 1) // 4
print(f"\ntruncated singular integral of 1, kernel 1/(x - y):")
for eps in (4 * h, 2 * h, h):
    K = vx.singular_integrals(sp, kernel, one_f, eps)[0]
    print(f"  eps = {eps:.2e}: K1(0.25) = {K[i25]:+.6f}, K1(0.5) = {K[n // 2]:+.1e}")
print(f"  principal value at 0.25: ln(1/3) = {np.log(1 / 3):+.6f}; at 0.5: 0 by symmetry")

size_c, smooth_c, dini = vx.kernel_regularity_check(vx.uniform_grid(257), kernel,
                                                    sample_pairs=500, a1=1.0)
print(f"\nkernel regularity: size constant {size_c:.3f} (bound 2), "
      f"smoothness constant {smooth_c:.2f}, Dini sum {dini:.4f} (= ln 2 for omega(t) = t)")
