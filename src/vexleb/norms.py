"""Modular, Luxemburg norm, and the norm inequalities they satisfy.

The modular of f is sum |f(x)|**p(x) mu(x); the norm is the smallest lambda
with modular(f / lambda) <= 1.  Variable exponents admit no closed form.  In
u = log lambda, h(u) = log modular(f / lambda) is convex and decreasing, with
slope minus the mean exponent sum p a / sum a over the terms
a = |f / lambda|**p mu, so the norm is found by Newton steps in log lambda,
each kept strictly inside a bracket verified by the modular and replaced by
the bracket's geometric midpoint when it falls outside.  The first bracket
comes from lambda = max |f|, where the modular lies between mu at the
largest entry and mu(X).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DomainError
from .exponents import PointFunction, conjugate, extrema_over
from .space import DiscreteSpace

__all__ = ["NormResult", "modular", "luxemburg_norm", "luxemburg_norms", "holder_check"]

REL_TOL = 1e-10
MAX_ITERS = 200
# Each Newton target is moved this far in log lambda past the root, away
# from the side of the point it was taken from, so that near the root two
# consecutive steps land on either side of it within REL_TOL.
_NUDGE = REL_TOL / 4


@dataclass(frozen=True)
class NormResult:
    """A Luxemburg norm with its bracket.

    ``value`` is the bracket's upper end hi, where the modular
    ``modular_at_value`` is at most 1; at the lower end it exceeds 1.
    ``bisection_iters`` counts the modular evaluations after the one at
    max |f|, each a Newton step or, where that leaves the bracket, a
    bisection step.  ``converged`` is False when ``MAX_ITERS`` of them left
    the bracket wider than ``REL_TOL`` relative.
    """

    value: float
    modular_at_value: float
    bisection_iters: int
    bracket: tuple
    converged: bool = True


def _powered(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """|f|**p mu entrywise; zero values give 0."""
    fv = np.abs(fv)
    out = np.zeros_like(fv)
    with np.errstate(over="ignore"):
        np.power(fv, pv, out=out, where=fv > 0)
    out *= mu
    return out


def _modular_arrays(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray):
    """sum of |f|**p mu along the last axis (one value per row of a block);
    zero values contribute 0."""
    return _powered(fv, pv, mu).sum(axis=-1)


def _modular_moment(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray):
    """The modular of each row and its p-weighted sum, sum p |f|**p mu."""
    terms = _powered(fv, pv, mu)
    total = terms.sum(axis=-1)
    terms *= pv
    return total, terms.sum(axis=-1)


def modular(space: DiscreteSpace, p: PointFunction, f: PointFunction) -> float:
    """sum of |f(x)|**p(x) mu(x); zero values contribute 0.  The modular over
    a set is that of f set to 0 outside it."""
    if p.kind != "exponent":
        raise DomainError("modular needs an exponent field")
    return float(_modular_arrays(f.values, p.values, space.mu))


def luxemburg_norm(space: DiscreteSpace, p: PointFunction, f: PointFunction) -> NormResult:
    """Smallest lambda with modular(f / lambda) <= 1, to relative tolerance 1e-10."""
    return luxemburg_norms(space, p, f.values[None, :])[0]


def luxemburg_norms(space: DiscreteSpace, p: PointFunction, rows: np.ndarray) -> List[NormResult]:
    """``luxemburg_norm`` of each row of a (P, n) block of finite values.

    Each row starts at lambda = max |f|, where every |f / lambda| <= 1, so
    the modular S lies in [mu_j, mu(X)] with j the largest entry.  At
    max |f| (mu_j / 2)**(1 / p_j) that entry alone makes the modular at
    least 2, and past max |f| the modular falls at least like
    (max |f| / lambda)**p_min, to 1/2 at max |f| (2 S)**(1 / p_min); these
    end the first bracket on the side of the root max |f| is not on.  Then
    each step takes the Newton target in log lambda from the last point
    evaluated, moved by ``_NUDGE`` across the root, and bisects instead
    when that target is not strictly inside the bracket.  For constant p
    the modular is a power of lambda, so two steps close the bracket.  The
    rows step together, each with its own bracket and active mask, so every
    row goes through exactly the iterates it would go through alone and its
    NormResult is bit for bit the single-row one.
    """
    if p.kind != "exponent":
        raise DomainError("Luxemburg norm needs an exponent field")
    fv = np.asarray(rows, dtype=float)
    if fv.ndim != 2 or fv.shape[1] != space.n:
        raise DomainError(f"norm rows must form a (P, {space.n}) block")
    if not np.all(np.isfinite(fv)):
        raise DomainError("norm rows must be finite everywhere")
    pv, mu = p.values, space.mu
    results = [NormResult(0.0, 0.0, 0, (0.0, 0.0))] * len(fv)
    live = np.flatnonzero(np.any(fv != 0, axis=1))
    if not live.size:
        return results
    fv = np.abs(fv[live])
    top = fv.argmax(axis=1)
    peak = fv[np.arange(len(fv)), top]
    lam = peak.copy()
    s, moment = _modular_moment(fv / lam[:, None], pv, mu)
    above = s > 1.0
    lo = np.where(above, lam, lam * (0.5 * mu[top]) ** (1.0 / pv[top]))
    hi = np.where(above, lam * (2.0 * s) ** (1.0 / pv.min()), lam)
    at_hi = np.where(above, np.nan, s)
    iters = np.zeros(len(fv), dtype=int)

    def open_rows():
        return np.flatnonzero((hi - lo > REL_TOL * hi) & (iters < MAX_ITERS))

    k = open_rows()
    while k.size:
        sk = s[k]
        # Newton in log lambda: the slope of log S is minus moment / S
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.log(sk) * sk / moment[k] + np.where(sk > 1.0, _NUDGE, -_NUDGE)
            x = lam[k] * np.exp(step)
        bisect = ~((lo[k] < x) & (x < hi[k]))
        x[bisect] = np.sqrt(lo[k[bisect]]) * np.sqrt(hi[k[bisect]])
        s[k], moment[k] = _modular_moment(fv[k] / x[:, None], pv, mu)
        lam[k] = x
        inside = s[k] <= 1.0
        hi[k[inside]] = x[inside]
        at_hi[k[inside]] = s[k[inside]]
        lo[k[~inside]] = x[~inside]
        iters[k] += 1
        k = open_rows()
    unseen = np.isnan(at_hi)
    at_hi[unseen] = _modular_arrays(fv[unseen] / hi[unseen, None], pv, mu)
    for j, row in enumerate(live):
        results[row] = NormResult(float(hi[j]), float(at_hi[j]), int(iters[j]),
                                  (float(lo[j]), float(hi[j])),
                                  converged=bool(hi[j] - lo[j] <= REL_TOL * hi[j]))
    return results


def holder_check(space: DiscreteSpace, p: PointFunction, f: PointFunction,
                 g: PointFunction, subset=None):
    """Evaluate both sides of the variable-exponent Hoelder inequality on a set:

        sum_E |f g| mu  <=  (1/p_min(E) + 1/p'_min(E)) ||f||_{p,E} ||g||_{p',E}

    E is ``subset``, as point ids or a mask; all points by default.
    Returns (lhs, rhs, holds) with a 1e-9 relative slack on the comparison.
    """
    if p.kind != "exponent":
        raise DomainError("Hoelder check needs an exponent field")
    full = np.zeros(space.n, dtype=bool)
    full[slice(None) if subset is None else subset] = True
    lhs = float((np.abs(f.values * g.values) * space.mu)[full].sum())
    pc = conjugate(p)
    p_min, _ = extrema_over(space, p, np.flatnonzero(full))
    pc_min, _ = extrema_over(space, pc, np.flatnonzero(full))
    fE = PointFunction(np.where(full, f.values, 0.0), "test")
    gE = PointFunction(np.where(full, g.values, 0.0), "test")
    rhs = (1.0 / p_min + 1.0 / pc_min) \
        * luxemburg_norm(space, p, fE).value * luxemburg_norm(space, pc, gE).value
    return lhs, float(rhs), bool(lhs <= rhs * (1.0 + 1e-9))
