"""Modular, Luxemburg norm, and the norm inequalities they satisfy.

The modular of f is sum |f(x)|**p(x) mu(x); the norm is the smallest lambda
with modular(f / lambda) <= 1.  Variable exponents admit no closed form, but
lambda -> modular(f / lambda) is strictly decreasing where positive, so the
norm is found by bisection with a guaranteed bracket.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import DomainError
from .exponents import PointFunction, conjugate, extrema_over
from .space import DiscreteSpace

__all__ = ["NormResult", "modular", "luxemburg_norm", "luxemburg_norms", "holder_check"]

REL_TOL = 1e-10
MAX_ITERS = 200


@dataclass(frozen=True)
class NormResult:
    value: float
    modular_at_value: float
    bisection_iters: int
    bracket: tuple
    converged: bool = True


def _subset_mask(space: DiscreteSpace, subset) -> Optional[np.ndarray]:
    if subset is None:
        return None
    idx = np.asarray(subset)
    if idx.dtype == bool:
        return idx
    mask = np.zeros(space.n, dtype=bool)
    mask[idx] = True
    return mask


def _modular_arrays(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray):
    """sum of |f|**p mu along the last axis (one value per row of a block);
    zero values contribute 0."""
    fv = np.abs(fv)
    out = np.zeros_like(fv)
    with np.errstate(over="ignore"):
        np.power(fv, pv, out=out, where=fv > 0)
    return (out * mu).sum(axis=-1)


def modular(space: DiscreteSpace, p: PointFunction, f: PointFunction, subset=None) -> float:
    """sum over the subset of |f(x)|**p(x) mu(x); zero values contribute 0."""
    if p.kind != "exponent":
        raise DomainError("modular needs an exponent field")
    mask = _subset_mask(space, subset)
    fv, pv, mu = f.values, p.values, space.mu
    if mask is not None:
        fv, pv, mu = fv[mask], pv[mask], mu[mask]
    return float(_modular_arrays(fv, pv, mu))


def luxemburg_norm(space: DiscreteSpace, p: PointFunction, f: PointFunction,
                   subset=None) -> NormResult:
    """Smallest lambda with modular(f / lambda) <= 1, to relative tolerance 1e-10.

    The initial upper bracket max(1, modular(f)) already satisfies the
    constraint (the modular scales at least like lambda**-p_min past 1); it
    is still grown geometrically as a guard, and the lower end is shrunk
    until the modular exceeds 1.
    """
    return luxemburg_norms(space, p, f.values[None, :], subset)[0]


def luxemburg_norms(space: DiscreteSpace, p: PointFunction, rows: np.ndarray,
                    subset=None) -> List[NormResult]:
    """``luxemburg_norm`` of each row of a (P, n) block of finite values.

    The rows are bisected together, each with its own bracket and its own
    active mask, so every row goes through exactly the iterates it would go
    through alone and its NormResult is bit for bit the single-row one.
    """
    if p.kind != "exponent":
        raise DomainError("Luxemburg norm needs an exponent field")
    fv = np.asarray(rows, dtype=float)
    if fv.ndim != 2 or fv.shape[1] != space.n:
        raise DomainError(f"norm rows must form a (P, {space.n}) block")
    if not np.all(np.isfinite(fv)):
        raise DomainError("norm rows must be finite everywhere")
    mask = _subset_mask(space, subset)
    pv, mu = p.values, space.mu
    if mask is not None:
        fv, pv, mu = fv[:, mask], pv[mask], mu[mask]
    results = [NormResult(0.0, 0.0, 0, (0.0, 0.0))] * len(fv)
    live = np.flatnonzero(np.any(fv != 0, axis=1))
    fv = fv[live]

    def S(active, lam):
        return _modular_arrays(fv[active] / lam[:, None], pv, mu)

    every = np.ones(len(fv), dtype=bool)
    hi = np.clip(_modular_arrays(fv, pv, mu), 1.0, 1e300)
    grow = np.zeros(len(fv), dtype=int)
    active = S(every, hi) > 1.0
    while active.any():
        hi[active] *= 2.0
        grow[active] += 1
        active[active] = (grow[active] < 200) & (S(active, hi[active]) > 1.0)
    lo = hi.copy()
    shrink = np.zeros(len(fv), dtype=int)
    active = S(every, lo) <= 1.0
    while active.any():
        lo[active] /= 8.0
        shrink[active] += 1
        active[active] = (shrink[active] < 2000) & (S(active, lo[active]) <= 1.0)
    iters = np.zeros(len(fv), dtype=int)
    active = (hi - lo > REL_TOL * hi) & (iters < MAX_ITERS)
    while active.any():
        rows_at = np.flatnonzero(active)
        mid = np.sqrt(lo[active] * hi[active])
        inside = S(active, mid) <= 1.0
        hi[rows_at[inside]] = mid[inside]
        lo[rows_at[~inside]] = mid[~inside]
        iters[active] += 1
        active = (hi - lo > REL_TOL * hi) & (iters < MAX_ITERS)
    at_hi = S(every, hi)
    for k, row in enumerate(live):
        results[row] = NormResult(float(hi[k]), float(at_hi[k]), int(iters[k]),
                                  (float(lo[k]), float(hi[k])),
                                  converged=bool(hi[k] - lo[k] <= REL_TOL * hi[k]))
    return results


def holder_check(space: DiscreteSpace, p: PointFunction, f: PointFunction,
                 g: PointFunction, subset=None):
    """Evaluate both sides of the variable-exponent Hoelder inequality on a set:

        sum_E |f g| mu  <=  (1/p_min(E) + 1/p'_min(E)) ||f||_{p,E} ||g||_{p',E}

    Returns (lhs, rhs, holds) with a 1e-9 relative slack on the comparison.
    """
    if p.kind != "exponent":
        raise DomainError("Hoelder check needs an exponent field")
    mask = _subset_mask(space, subset)
    full = np.ones(space.n, dtype=bool) if mask is None else mask
    lhs = float((np.abs(f.values * g.values) * space.mu)[full].sum())
    pc = conjugate(p)
    p_min, _ = extrema_over(space, p, np.flatnonzero(full))
    pc_min, _ = extrema_over(space, pc, np.flatnonzero(full))
    fE = PointFunction(np.where(full, f.values, 0.0), "test")
    gE = PointFunction(np.where(full, g.values, 0.0), "test")
    rhs = (1.0 / p_min + 1.0 / pc_min) \
        * luxemburg_norm(space, p, fE).value * luxemburg_norm(space, pc, gE).value
    return lhs, float(rhs), bool(lhs <= rhs * (1.0 + 1e-9))
