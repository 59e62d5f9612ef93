"""The modular and the Luxemburg norm.

The modular of f is sum |f(x)|**p(x) mu(x); the norm is the smallest lambda
with modular(f / lambda) <= 1.  For constant p (classical weighted L^p) it
is (sum |f|**p mu)**(1 / p).  Variable exponents admit no closed form.  In
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
from .exponents import PointFunction
from .space import DiscreteSpace

__all__ = ["NormResult", "modular", "luxemburg_norm", "luxemburg_norms"]

REL_TOL = 1e-10
MAX_ITERS = 200
# Each Newton target is moved this far in log lambda past the root, away
# from the side of the point it was taken from, so that near the root two
# consecutive steps land on either side of it within REL_TOL.
_NUDGE = REL_TOL / 4
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class NormResult:
    """A Luxemburg norm with its bracket.

    ``value`` is the bracket's upper end hi, where the modular
    ``modular_at_value`` is at most 1; at the lower end it exceeds 1.
    ``bisection_iters`` counts the modular evaluations after the one at
    max |f|, each a Newton step or, where that leaves the bracket, a
    bisection step.  ``converged`` is False when ``MAX_ITERS`` of them left
    the bracket wider than ``REL_TOL`` relative, or when the norm lies below
    the normal floats: a row ends once hi is at most the smallest normal
    float, with the lower end 0 if it underflowed.  For constant p it is 1,
    the evaluation that checks the closed form, and the bracket's lower end
    value (1 - REL_TOL / 2) is certified by homogeneity (``_closed_form``).
    """

    value: float
    modular_at_value: float
    bisection_iters: int
    bracket: tuple
    converged: bool = True


def _powered(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """|f|**p mu entrywise, written over ``fv``; p > 1 makes zero values 0.
    A constant p goes to numpy as one number, which it raises faster."""
    np.abs(fv, out=fv)
    if pv.min() == pv.max():
        pv = pv[0]
    with np.errstate(over="ignore"):
        np.power(fv, pv, out=fv)
    fv *= mu
    return fv


def _modular_arrays(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray):
    """sum of |f|**p mu along the last axis (one value per row of a block),
    overwriting ``fv``; zero values contribute 0."""
    return _powered(fv, pv, mu).sum(axis=-1)


def _modular_moment(fv: np.ndarray, pv: np.ndarray, mu: np.ndarray):
    """The modular of each row and its p-weighted sum, sum p |f|**p mu,
    overwriting ``fv``."""
    terms = _powered(fv, pv, mu)
    total = terms.sum(axis=-1)
    terms *= pv
    return total, terms.sum(axis=-1)


def modular(space: DiscreteSpace, p: PointFunction, f: PointFunction) -> float:
    """sum of |f(x)|**p(x) mu(x); zero values contribute 0.  The modular over
    a set is that of f set to 0 outside it."""
    if p.kind != "exponent":
        raise DomainError("modular needs an exponent field")
    return float(_modular_arrays(np.abs(f.values), p.values, space.mu))


def luxemburg_norm(space: DiscreteSpace, p: PointFunction, f: PointFunction) -> NormResult:
    """Smallest lambda with modular(f / lambda) <= 1, to relative tolerance 1e-10."""
    return luxemburg_norms(space, p, f.values[None, :])[0]


def luxemburg_norms(space: DiscreteSpace, p: PointFunction, rows: np.ndarray) -> List[NormResult]:
    """``luxemburg_norm`` of each row of a (P, n) block of finite values.

    Each row starts at lambda = max |f|, where every |f / lambda| <= 1, so
    the modular S lies in [mu_j, mu(X)] with j the largest entry.

    For constant p the norm is max |f| S**(1 / p) (``_closed_form``).
    Otherwise, at max |f| (mu_j / 2)**(1 / p_j) that entry alone makes the
    modular at least 2, and past max |f| the modular falls at least like
    (max |f| / lambda)**p_min, to 1/2 at max |f| (2 S)**(1 / p_min); these
    end the first bracket on the side of the root max |f| is not on.  Then
    each step takes the Newton target in log lambda from the last point
    evaluated, moved by ``_NUDGE`` across the root, and bisects instead
    when that target is not strictly inside the bracket (``_newton``), at
    the smallest normal float when the lower end underflowed to 0.  The
    rows go together, each with its own bracket and active mask, so every
    row goes through exactly the evaluations it would go through alone and
    its NormResult is bit for bit the single-row one.
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
    fv = np.abs(fv)
    peak = fv.max(axis=1)
    live = np.flatnonzero(peak > 0)
    if not live.size:
        return results
    if live.size < len(fv):
        fv, peak = fv[live], peak[live]
    solve = _closed_form if pv.min() == pv.max() else _newton
    lo, hi, at_hi, iters = solve(fv, peak, pv, mu)
    for j, row in enumerate(live):
        results[row] = NormResult(float(hi[j]), float(at_hi[j]), int(iters[j]),
                                  (float(lo[j]), float(hi[j])),
                                  converged=bool(hi[j] - lo[j] <= REL_TOL * hi[j]))
    return results


def _closed_form(fv, peak, pv, mu):
    """(lo, hi, modular at hi, evaluations) of nonnegative rows whose
    largest entries are ``peak``, for a constant exponent p.

    hi = max |f| S**(1 / p) is raised by one ulp while rounding leaves the
    modular there above 1.  The modular at lo = hi (1 - REL_TOL / 2) is the
    one at hi, within REL_TOL / 4 of 1, times (hi / lo)**p > 1 + p REL_TOL / 2.
    A row whose hi is not a normal float, or whose modular at hi misses 1 by
    more, takes the steps of ``_newton`` instead."""
    with np.errstate(over="ignore", under="ignore"):
        hi = peak * _modular_arrays(fv / peak[:, None], pv, mu) ** (1.0 / pv[0])
    at_hi = np.full(len(fv), np.nan)
    k = np.flatnonzero((hi >= _TINY) & (hi < np.inf))
    while k.size:
        at_hi[k] = _modular_arrays(fv[k] / hi[k, None], pv, mu)
        k = k[(1.0 < at_hi[k]) & (at_hi[k] <= 1.0 + REL_TOL / 4)]
        hi[k] = np.nextafter(hi[k], np.inf)
    lo, iters = hi * (1.0 - REL_TOL / 2), np.ones(len(fv), dtype=int)
    left = np.flatnonzero(~((1.0 - REL_TOL / 4 <= at_hi) & (at_hi <= 1.0)))
    if left.size:
        lo[left], hi[left], at_hi[left], iters[left] = _newton(fv[left], peak[left], pv, mu)
    return lo, hi, at_hi, iters


def _newton(fv, peak, pv, mu):
    """(lo, hi, modular at hi, evaluations) of nonnegative rows whose
    largest entries are ``peak``, by the bracketed Newton steps of
    ``luxemburg_norms``."""
    top = fv.argmax(axis=1)
    lam = peak.copy()
    s, moment = _modular_moment(fv / lam[:, None], pv, mu)
    above = s > 1.0
    lo = np.where(above, lam, lam * (0.5 * mu[top]) ** (1.0 / pv[top]))
    hi = np.where(above, lam * (2.0 * s) ** (1.0 / pv.min()), lam)
    at_hi = np.where(above, np.nan, s)
    iters = np.zeros(len(fv), dtype=int)

    def open_rows():
        return np.flatnonzero((hi - lo > REL_TOL * hi) & (iters < MAX_ITERS) & (hi > _TINY))

    k = open_rows()
    while k.size:
        sk = s[k]
        # Newton in log lambda: the slope of log S is minus moment / S
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.log(sk) * sk / moment[k] + np.where(sk > 1.0, _NUDGE, -_NUDGE)
            x = lam[k] * np.exp(step)
        bisect = ~((lo[k] < x) & (x < hi[k]))
        # a lower end that underflowed to 0 is bisected at the smallest
        # normal float, whose modular ends the row or lifts the lower end
        mid = np.sqrt(lo[k[bisect]]) * np.sqrt(hi[k[bisect]])
        x[bisect] = np.where(mid > 0.0, mid, _TINY)
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
    return lo, hi, at_hi, iters
