"""Two-weight sufficient-condition functionals and weight families.

Every functional here is the ball half or the tail half of a Hardy-type
condition, sup over t in [0, L] of

    ball:  sum_{t < d0(x) <= L} (v(x)/D(x))**s(x) W_x(d0 <= t)**(s(x)/|e(x)|) mu(x)
    tail:  sum_{d0(x) <= t} v(x)**s(x) W_x(t < d0 <= L)**(s(x)/|e(x)|) mu(x)

with W_x(R) the sum over y in R of w(y)**e(x) mu(y).  Between the Hardy,
potential, maximal and singular conditions only the outer power s, the ball
factor D and the local exponent e change (e is plus or minus the conjugate
of a basepoint-local minimum of the exponent field), so each condition is a
row of one table, ``_PAIRS``, and one builder, ``_half``, evaluates every
half from its row: Hardy's is s = q, D = 1, e = +p' with no tail factor,
the others take e = -p'.  The sup is discretized over
the distinct basepoint distances plus midpoints, which samples every step
of the piecewise-constant curve exactly; region boundaries use the half-open
convention {d0 <= t} / {t < d0} throughout, so mirror and constant-order
consistency identities hold exactly on discrete data.

Every functional is evaluated in logs.  Each one hands the sweep evaluator
(``_sup_functional``) its outer bases and the log of its inner integrand,
exponent * log base + log mu, as arrays: e, the exponent per outer point,
and the log base per inner point.  A variable order enters the base per
outer point (log w(y) + (1 - alpha(x)) log muB0(y)); a constant one is
folded into the base.  Inner sums are row-max-scaled cumsums in basepoint
order (tail sums reversed cumsums), and the outer sum is a max-scaled
exp-sum per sweep step over blocks of outer points, so an exponent near 1
(conjugate near infinity) or weights near 1e+-200 neither overflow nor
collapse to 0.  The blocks run through the geometry sweep's worker loop
(``space._run_in_order``), on one helper thread too when there are two or
more and two CPUs are usable, and their sums are folded in block order, so
the bits do not depend on the thread count.  The curve is evaluated once
per step, at the knots 0, the distinct distances and L, and each midpoint
repeats the knot below it.  No inner entry is +inf: a negative e reads a w
kept above 0, a positive e sends w = 0 to -inf, and the tail's infinite
ball factor sits at the basepoint, which no tail sums.

On radial weight pairs several conditions are one computation (a radial
variant and the ball half it restates, the potential and variable-order
halves at constant order).  Each evaluation is memoized on its space, keyed
on the bytes it reads, so a repeat costs the key and returns the first
report's curve under its own name.

Values are reported with the full per-t curve and the attaining t.
Finiteness is a refinement trend, never a boolean at one resolution; see
``finite_hint``.
"""
from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .exponents import PointFunction, conjugate, local_exponents
from .space import DiscreteSpace, _distinct, _run_in_order, _sweep_candidates, _usable_cpus

__all__ = [
    "ConditionReport",
    "ProfilePair",
    "t_sweep",
    "finite_hint",
    "classify_trend",
    "hardy_condition",
    "hardy_tail_condition",
    "potential_conditions",
    "distance_potential_conditions",
    "radial_condition",
    "variable_order_conditions",
    "maximal_singular_conditions",
    "annulus_weight_comparison",
    "muckenhoupt_ar",
    "power_weight_pair",
    "log_adjusted_weight_pair",
    "RADIAL_VARIANTS",
]

RADIAL_VARIANTS = ("potential", "potential-basepoint", "distance-potential",
                   "maximal", "maximal-basepoint")


@dataclass
class ConditionReport:
    name: str
    value: float
    argmax_t: float
    ts: np.ndarray
    curve: np.ndarray
    resolution: int
    meta: dict = field(default_factory=dict)
    # log of the sup, kept where ``value`` overflowed to inf (None: not a
    # sweep functional)
    log_value: Optional[float] = None


def finite_hint(values: Sequence[float]) -> Optional[bool]:
    """Two-resolution trend rule: all successive ratios <= 1.25 -> True
    (stable), the last two ratios >= 2 -> False (divergent), else None.
    A series holding an infinite or NaN value supports no trend: None."""
    vals = [float(v) for v in values]
    if len(vals) < 2 or not np.all(np.isfinite(vals)):
        return None
    ratios = []
    for a, b in zip(vals, vals[1:]):
        if a == 0 and b == 0:
            ratios.append(1.0)
        elif a == 0:
            ratios.append(np.inf)
        else:
            ratios.append(b / a)
    if all(r <= 1.25 for r in ratios):
        return True
    if len(ratios) >= 2 and ratios[-1] >= 2 and ratios[-2] >= 2:
        return False
    return None


def classify_trend(values: Sequence[float]) -> str:
    hint = finite_hint(values)
    return "bounded" if hint else ("divergent" if hint is False else "undecided")


def t_sweep(space: DiscreteSpace) -> np.ndarray:
    """Sweep knots: 0, the distinct basepoint distances within [0, L],
    midpoints between consecutive ones, and L itself.  Built once per space
    and read-only: every report on the space shares it."""
    return space._sweep


def _nonneg(space, f: PointFunction, what: str) -> np.ndarray:
    if len(f) != space.n:
        raise DomainError(f"{what} does not match the space")
    if np.any(f.values < 0):
        raise DomainError(f"{what} must be nonnegative")
    return f.values


def _positive(space, f: PointFunction, what: str) -> np.ndarray:
    if len(f) != space.n or f.kind != "weight" or np.any(f.values <= 0):
        raise DomainError(f"{what} must be a strictly positive weight field")
    return f.values


# outer points per block: B * max(n, knots) stays at or below this many
# elements, so a block's temporaries are a few MB at any resolution
_BLOCK_ELEMS = 2**17
_TINY = np.finfo(float).tiny


def _log_partial_sums(r: np.ndarray, at: np.ndarray, head: bool) -> np.ndarray:
    """Logs of the partial sums of exp(r) along each row of ``r`` (no entry
    +inf), read at positions ``at``: the sum over the first ``at`` entries
    (head) or over the entries from ``at`` on (tail).

    Each row is scaled by its maximum before the exp and the cumsum; a tail
    is its own reversed cumsum, never a total minus a head, which would
    cancel.  A row whose running sum fell below the normal floats after a
    finite entry (it underflowed to 0 or to a subnormal number that has
    lost digits) is recomputed alone by ``np.logaddexp.accumulate``.
    """
    b, n = r.shape
    m = r.max(axis=1, initial=-np.inf)
    m[m == -np.inf] = 0.0
    csum = np.zeros((b, n + 1))
    terms = csum[:, 1:] if head else csum[:, :-1]
    np.subtract(r, m[:, None], out=terms)
    np.exp(terms, out=terms)
    if not head:
        terms = terms[:, ::-1]
    np.cumsum(terms, axis=1, out=terms)
    out = csum[:, at]
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += m[:, None]
    # a running sum of nonnegative terms never decreases, so its entries
    # below the smallest normal float are its first ones, and only a row
    # starting there holds any; such an entry is exact only where every term
    # summed so far is exp(-inf), else it underflowed to 0 or lost digits
    for i in np.flatnonzero(terms[:, 0] < _TINY) if n else ():
        low = np.count_nonzero(terms[i] < _TINY)
        seen = r[i, :low] if head else r[i, n - low:]
        if np.any(seen > -np.inf):
            lsum = np.full(n + 1, -np.inf)
            if head:
                lsum[1:] = np.logaddexp.accumulate(r[i])
            else:
                lsum[-2::-1] = np.logaddexp.accumulate(r[i, ::-1])
            out[i] = lsum[at]
    return out


def _log_col_sums(vals: np.ndarray) -> np.ndarray:
    """log of the sum over rows of exp(vals), per column, scaled by the
    column maximum; overwrites ``vals``."""
    m = vals.max(axis=0)
    m[m == -np.inf] = 0.0
    vals -= m
    np.exp(vals, out=vals)
    with np.errstate(divide="ignore"):
        return np.log(vals.sum(axis=0)) + m


def _flat(a: np.ndarray) -> bool:
    """Whether ``a`` is constant to the relative tolerance under which its
    first entry stands for all of it."""
    return np.ptp(a) <= 1e-13 * max(1.0, abs(float(a[0])))


def _sup_functional(space: DiscreteSpace, name: str, log_outer: np.ndarray,
                    forward: bool, gamma: np.ndarray, e: np.ndarray, base: np.ndarray,
                    term: Optional[tuple]) -> ConditionReport:
    """Evaluate one sup-functional over the sweep, in logs.

    ``forward`` selects the outer region {t < d0 <= L} with the inner sum
    over {d0 <= t}; otherwise the outer region is {d0 <= t} and the inner
    sum runs over {t < d0 <= L}.  ``log_outer`` is log O(x), the outer base
    times mu (-inf where O is 0).  The inner sum's log-integrand, log of
    (integrand times mu), is the row e[x] base[y] + log mu[y] per outer
    point x, or e[x] (base[y] + coef[x] extra[y]) + log mu[y] with ``term``
    = (coef, extra).  A coef that is exactly constant is folded into the
    base as base + coef[0] * extra, and with no term left a constant e
    makes one row shared by every x.  No entry the sums read may be +inf.
    ``gamma`` is the per-x outer power applied to the inner sum W_x(t).
    The curve at t is the sum over the outer region of exp(log O(x) +
    gamma(x) log W_x(t)), so neither a weight raised to a large power nor a
    sum of such terms overflows or underflows before the result itself
    would.

    The curve is evaluated once per step of the sweep, at the knots 0, the
    distinct basepoint distances within [0, L] and L: a midpoint of
    ``t_sweep`` lies in the same half-open regions as the knot below it, so
    its entry is that knot's.  Outer points are taken in blocks sorted by
    where their region starts; each block reads only the knots its points
    reach, and builds its inner rows only over the columns summed at those
    knots, already in basepoint order.

    Evaluations are memoized on the space, keyed on the bytes they read:
    ``forward``, log O, gamma at the outer points evaluated (its first entry
    where W**gamma factors out) and the inner data on the columns the sums
    read (a tail never reads the basepoint's).  A repeat returns a report
    under its own name with a copy of ``meta``, sharing the first report's
    ``ts`` and ``curve``, which are read-only.
    """
    L = space.L_eff
    d0 = space.d0
    capped = d0 <= L * (1 + 1e-12)
    log_O = np.where(capped, log_outer, -np.inf)
    order, ds = space._basepoint_row[:2]
    n_in = int(np.count_nonzero(capped))  # inner sums run over the first n_in in order
    knots = _distinct(np.concatenate([[0.0], ds[ds <= L], [L]]))
    T = knots.size
    # the inner sum at knot k holds the first head_count[k] points (forward)
    # or the capped points after them: all read columns order[lo:hi]
    head_count = np.searchsorted(ds, knots, side="right")
    lo, hi = (0, int(head_count[-1])) if forward else (int(head_count[0]), n_in)
    cols = order[lo:hi]
    # x is outer at knot k when forward: k < cut(x); else k >= cut(x)
    cut = np.searchsorted(knots, d0, side="left")
    log_mu = np.log(space.mu)

    xs = np.flatnonzero(log_O > -np.inf)
    xs = xs[np.argsort(cut[xs], kind="stable")]
    # the outer points of some knot, the only ones evaluated by blocks
    live = xs[cut[xs] > 0] if forward else xs[cut[xs] < T]
    if term is not None and np.all(term[0] == term[0][0]):
        base, term = base + term[0][0] * term[1], None
    if term is None and _flat(e):
        shared = (e[0] * base + log_mu)[cols]
        # W**gamma factors out of the outer sum
        factored = _flat(gamma)
        key = ("shared", forward, log_O.tobytes(), shared.tobytes(), factored,
               (gamma[:1] if factored else gamma[live]).tobytes())
    else:
        shared, factored = None, False
        coef, extra = term or (None, None)
        base, log_mu = base[cols], log_mu[cols]
        key = ("rows", forward, log_O.tobytes(), gamma[live].tobytes(), e[live].tobytes(),
               base.tobytes())
        if coef is not None:
            extra = extra[cols]
            key += (coef[live].tobytes(), extra.tobytes())
    memo = space._sup_memo
    first = memo.get(key)
    if first is not None:
        return replace(first, name=name, meta=dict(first.meta))

    def log_W(r: np.ndarray, k0: int, k1: int) -> np.ndarray:
        """log W at knots k0..k1-1 from log-integrand rows over the columns
        they sum, in basepoint order."""
        start = lo if forward else head_count[k0]
        return _log_partial_sums(r, head_count[k0:k1] - start, forward)

    if shared is not None:
        shared = log_W(shared[None, :], 0, T)[0]
    if factored:
        # the outer sums per knot are partial sums over the outer points in
        # cut order
        at = np.searchsorted(cut[xs], np.arange(T), side="right")
        log_R = _log_partial_sums(log_O[xs][None, :], at, not forward)[0]
        log_curve = float(gamma[0]) * shared + log_R
    else:
        B = max(1, _BLOCK_ELEMS // max(space.n, T))
        held = threading.local()

        def block_sums(s: int):
            blk = live[s:s + B]
            c = cut[blk]
            k0, k1 = (0, int(c[-1])) if forward else (int(c[0]), T)
            if shared is not None:
                vals = shared[k0:k1] * gamma[blk, None]
            else:
                # the columns summed at knots k0..k1-1, as positions in cols
                a, b = (0, head_count[k1 - 1]) if forward else (head_count[k0] - lo, hi - lo)
                if coef is None:
                    r = e[blk, None] * base[a:b]
                else:
                    r = coef[blk, None] * extra[a:b]
                    r += base[a:b]
                    r *= e[blk, None]
                r += log_mu[a:b]
                vals = log_W(r, k0, k1)
                vals *= gamma[blk, None]
            vals += log_O[blk, None]
            # only the knots between the block's first and last cut hold a
            # point outside its region
            k = np.arange(c[0], c[-1])
            np.putmask(vals[:, c[0] - k0:c[-1] - k0],
                       (k >= c[:, None]) if forward else (k < c[:, None]), -np.inf)
            # a thread keeps its block's terms until its next block has
            # its own: freed at once, the one-thread blocks of a 2048-point
            # condition sweep took four times the page faults, and 12% longer
            held.vals = vals
            return k0, k1, _log_col_sums(vals)

        # folded in block order, however the blocks were shared
        log_curve = np.full(T, -np.inf)
        for k0, k1, part in _run_in_order(block_sums, range(0, live.size, B),
                                          _usable_cpus() > 1):
            log_curve[k0:k1] = np.logaddexp(log_curve[k0:k1], part)

    ts = t_sweep(space)
    log_curve = log_curve[np.searchsorted(knots, ts, side="right") - 1]
    # a value beyond the float range is inf; its log is kept
    with np.errstate(over="ignore"):
        curve = np.exp(log_curve)
    curve.flags.writeable = False
    j = int(curve.argmax())
    report = ConditionReport(name, float(curve[j]), float(ts[j]), ts, curve,
                             resolution=space.n, log_value=float(log_curve.max()))
    memo[key] = replace(report, meta=dict(report.meta))
    return report


def _ordering_check(name: str, lower: PointFunction, upper: PointFunction):
    bad = np.flatnonzero(lower.values > upper.values * (1 + 1e-12))
    if bad.size:
        raise PreconditionError(
            f"{name}: local exponent exceeds the target exponent", witness=int(bad[0]))


def _log(x) -> np.ndarray:
    """Natural log, -inf at 0 without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_power(x: np.ndarray, power) -> np.ndarray:
    """log of x**power for x > 0, +inf where x is 0 (the basepoint's zero
    distance and ball measure)."""
    return np.where(x > 0, power * np.log(np.where(x > 0, x, 1.0)), np.inf)


# Each condition's row from (space, p, q, order alpha): the outer power s,
# log D (the ball half divides v by D), the sign of e, and the tail's order
# term (coef, extra), which adds coef(x) extra(y) to log w(y) (None: none).
_PAIRS = {
    "hardy": lambda space, p, q, alpha: (q.values, 0.0, 1.0, None),
    "potential": lambda space, p, q, alpha: (
        q.values, _log_power(space.muB0, 1.0 - alpha), -1.0,
        (1.0 - alpha, _log_power(space.muB0, 1.0))),
    "distance-potential": lambda space, p, q, alpha: (
        q.values, (log_D := _log_power(space.d0, 1.0 - alpha)), -1.0, (1.0, log_D)),
    "maximal": lambda space, p, q, alpha: (
        p.values, (log_D := _log_power(space.muB0, 1.0)), -1.0, (1.0, log_D)),
}


def _half(space: DiscreteSpace, kind: str, name: str, p: PointFunction, q, alpha,
          v: np.ndarray, w: np.ndarray, local: PointFunction, tail: bool = False):
    """The ball or tail half (module docstring) of the ``_PAIRS`` row
    ``kind`` on weight values v, w, with |e| the conjugate of the local
    minimum ``local`` of p.  Where D is 0 (log D = +inf), x drops out of the
    ball half's outer sum."""
    s, log_D, sign, term = _PAIRS[kind](space, p, q, alpha)
    conj = conjugate(local).values
    if tail:
        log_D = 0.0
        if term is not None:
            term = (np.broadcast_to(term[0], space.n), term[1])
    else:
        term = None
    log_O = np.where(log_D < np.inf, s * (_log(v) - log_D) + np.log(space.mu), -np.inf)
    return _sup_functional(space, name, log_O, not tail, s / conj, sign * conj, _log(w), term)


def _pair(space: DiscreteSpace, kind: str, prefix: str, p: PointFunction, q, alpha,
          v: np.ndarray, w: np.ndarray, a: Optional[float], halves):
    """The reports ``prefix``-ball and ``prefix``-tail of the ``_PAIRS`` row
    ``kind``: e from the capped ball and the tail minima of p.  A half whose
    index (0 ball, 1 tail) is not in ``halves`` is not evaluated: None."""
    le = local_exponents(space, p, a)
    return (_half(space, kind, f"{prefix}-ball", p, q, alpha, v, w, le.ball_min_capped)
            if 0 in halves else None,
            _half(space, kind, f"{prefix}-tail", p, q, alpha, v, w, le.tail_min, tail=True)
            if 1 in halves else None)


def hardy_condition(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                    v: PointFunction, w: PointFunction,
                    a: Optional[float] = None) -> ConditionReport:
    """Forward Hardy functional: sup over t of

        sum_{t < d0(x) <= L} v(x)**q(x)
            (sum_{d0(y) <= t} w(y)**e(x) mu(y))**(q(x)/e(x)) mu(x)

    where e is the conjugate of the capped ball-minimum of p.  Requires the
    ordering capped-ball-min(p) <= q pointwise.
    """
    vv = _nonneg(space, v, "v")
    wv = _nonneg(space, w, "w")
    local = local_exponents(space, p, a).ball_min_capped
    _ordering_check("hardy condition", local, q)
    return _half(space, "hardy", "hardy", p, q, None, vv, wv, local)


def hardy_tail_condition(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                         v: PointFunction, w: PointFunction,
                         a: Optional[float] = None) -> ConditionReport:
    """Tail Hardy functional: outer region {d0 <= t}, inner region
    {t < d0 <= L}, with e the conjugate of the tail-minimum of p."""
    vv = _nonneg(space, v, "v")
    wv = _nonneg(space, w, "w")
    local = local_exponents(space, p, a).tail_min
    _ordering_check("hardy tail condition", local, q)
    return _half(space, "hardy", "hardy-tail", p, q, None, vv, wv, local, tail=True)


def _alpha_gate(alpha_vals: np.ndarray, p: PointFunction):
    p_plus = float(p.values.max())
    if np.any(alpha_vals <= 0) or np.any(alpha_vals >= 1.0 / p_plus):
        raise DomainError(
            f"order must lie in (0, 1/p_max) = (0, {1.0 / p_plus:.6g})")


def potential_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                         v: PointFunction, w: PointFunction, alpha: float,
                         a: Optional[float] = None, *, _halves=(0, 1)):
    """Ball-potential pair of functionals for constant order alpha.

    ball part : outer {t < d0 <= L} with base (v / muB0**(1-alpha))**q,
                inner {d0 <= t} of w**(-e0(x)) mu
    tail part : outer {d0 <= t} with base v**q,
                inner {t < d0 <= L} of (w muB0**(1-alpha))**(-e1(x)) mu

    e0/e1 are the conjugates of the capped ball/tail minima of p.
    Returns (ball_report, tail_report).  ``_halves`` (private, in every pair
    functional) names the halves evaluated, 0 ball and 1 tail; others are None.
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    _alpha_gate(np.array([alpha]), p)
    return _pair(space, "potential", "potential", p, q, alpha, vv, wv, a, _halves)


def distance_potential_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                                  v: PointFunction, w: PointFunction, alpha: PointFunction,
                                  a: Optional[float] = None, *, _halves=(0, 1)):
    """Distance-potential pair for variable order (upper Ahlfors 1-regular
    spaces): the ball part uses base (v / d0**(1-alpha(x)))**q with inner
    w**(-e0(x)); the tail part uses inner (w(y) d0(y)**(1-alpha(y)))**(-e1(x)).
    Returns (ball_report, tail_report).
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    _alpha_gate(alpha.values, p)
    return _pair(space, "distance-potential", "distance", p, q, alpha.values, vv, wv, a,
                 _halves)


def _check_profile(space: DiscreteSpace, profile: Callable, what: str,
                   require_monotone: bool) -> np.ndarray:
    """The profile at the radial distances, once it is nonnegative and
    finite (and nondecreasing if required) on the swept grid."""
    ts = t_sweep(space)
    grid = _distinct(np.append(ts[ts > 0], 2.0 * space.L_eff))
    vals = np.asarray(profile(grid), dtype=float)
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        j = int(np.flatnonzero((vals < 0) | ~np.isfinite(vals))[0])
        raise PreconditionError(f"{what} profile must be nonnegative and finite",
                                witness=float(grid[j]))
    if require_monotone:
        diffs = np.diff(vals)
        bad = np.flatnonzero(diffs < -1e-12 * max(1.0, float(np.abs(vals).max())))
        if bad.size:
            j = int(bad[0])
            raise PreconditionError(
                f"{what} profile must be nondecreasing on (0, 2L]",
                witness=(float(grid[j]), float(grid[j + 1])))
    return np.asarray(profile(space.radial_distances()), dtype=float)


def radial_condition(space: DiscreteSpace, p: PointFunction, v_profile: Callable,
                     w_profile: Callable, variant: str, alpha: Optional[float] = None,
                     q: Optional[PointFunction] = None, a: Optional[float] = None,
                     require_monotone: bool = True) -> ConditionReport:
    """Sup-functional for radially composed weights v(d0(x)), w(d0(y)).

    "potential", "distance-potential" and "maximal" are the ball halves of
    ``potential_conditions``, ``distance_potential_conditions`` (at constant
    order alpha) and ``maximal_singular_conditions`` on the fields v(d0),
    w(d0); "potential-basepoint" and "maximal-basepoint" are the same halves
    with the inner exponent -p'(x0) everywhere.

    Profiles must be positive and nondecreasing on the swept grid
    (``require_monotone=False`` skips the monotonicity gate; some admissible
    log-corrected weights fail it away from 0 yet still yield finite values).
    The basepoint atom of the profiles is evaluated at half the smallest
    positive distance, the quadrature reading of the improper integral.
    """
    if variant not in RADIAL_VARIANTS:
        raise DomainError(f"unknown radial variant {variant!r}")
    vr = _check_profile(space, v_profile, "v", require_monotone)
    wr = _check_profile(space, w_profile, "w", require_monotone)
    if variant in ("potential", "potential-basepoint", "distance-potential"):
        if alpha is None or q is None:
            raise DomainError(f"variant {variant!r} needs alpha and q")
        if not 0.0 < alpha < 1.0:
            raise DomainError("order must lie in (0, 1)")
        if alpha >= 1.0 / float(p.values.max()):
            warnings.warn("order leaves the sufficient regime (alpha >= 1/p_max); "
                          "functional evaluated anyway", stacklevel=2)

    if np.any(wr <= 0) or not np.all(np.isfinite(wr)):
        raise PreconditionError("w profile must be positive on the swept distances")
    local = local_exponents(space, p, a).ball_min_capped  # validates p
    if variant.endswith("-basepoint"):
        local = PointFunction.constant(space.n, p.values[space.x0], "exponent")
    return _half(space, variant.removesuffix("-basepoint"), f"radial-{variant}", p, q, alpha,
                 vr, wr, local)


def variable_order_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                              v: PointFunction, w_profile: Callable, alpha: PointFunction,
                              a: Optional[float] = None,
                              require_monotone: bool = True, *, _halves=(0, 1)):
    """Variable-order pair with a radial w: the ball part has base
    (v/muB0**(1-alpha(x)))**q and inner w(d0(y))**(-e0(x)); the tail part has
    base v**q and inner (w(d0(y)) muB0(y)**(1-alpha(x)))**(-e1(x)), where the
    order of the *outer* point enters the inner integrand.

    The stated regime 1/p_min < alpha is surfaced as a warning, not a gate:
    the functionals are evaluated for any order field in (0, 1).
    """
    vv = _nonneg(space, v, "v")
    wr = _check_profile(space, w_profile, "w", require_monotone)
    p_min = float(p.values.min())
    if not np.all(alpha.values > 1.0 / p_min):
        warnings.warn("order field leaves the stated regime (min order <= 1/p_min); "
                      "functionals evaluated anyway", stacklevel=2)
    if np.any(wr <= 0) or not np.all(np.isfinite(wr)):
        raise PreconditionError("w profile must be positive on the swept distances")
    return _pair(space, "potential", "variable-order", p, q, alpha.values, vv, wr, a, _halves)


def maximal_singular_conditions(space: DiscreteSpace, p: PointFunction,
                                v: PointFunction, w: PointFunction,
                                a: Optional[float] = None, *, _halves=(0, 1)):
    """The maximal/singular pair: ball part with base (v/muB0)**p and inner
    w**(-e0(x)); tail part with base v**p and inner (w muB0)**(-e1(x)).
    Returns (ball_report, tail_report).

    The tail integrand multiplies the weight by the ball measure: it is the
    tail-Hardy functional of the composed pair (v, 1/(w muB0)), and the
    order-zero limit of the potential tail part.
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    return _pair(space, "maximal", "maximal", p, None, None, vv, wv, a, _halves)


def _range_reduce(ufunc, vals: np.ndarray, starts: np.ndarray,
                  stops: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(vals[starts[i]:stops[i]])`` for each i, every range
    nonempty, from a sparse table: row k holds the reductions of the windows
    of length 2**k, and a range reduces the two such windows at its ends,
    k = floor(log2(length))."""
    n = vals.size
    table = np.empty((n.bit_length(), n))
    table[0] = vals
    for k in range(1, table.shape[0]):
        h = 1 << (k - 1)
        ufunc(table[k - 1, :n - 2 * h + 1], table[k - 1, h:n - h + 1],
              out=table[k, :n - 2 * h + 1])
    k = np.frexp(stops - starts)[1] - 1
    return ufunc(table[k, starts], table[k, stops - np.left_shift(1, k)])


def annulus_weight_comparison(space: DiscreteSpace, v: PointFunction, w: PointFunction,
                              A: float, a1: float = 1.0):
    """Comparability of v over the distance-comparable annulus with w at the
    point: b1 = sup_x max(v on F_x) / w(x), b2 = sup_x v(x) / min(w on F_x),
    F_x the ``comparison_annulus`` of x.  Points with empty annuli are
    skipped and counted.

    Each annulus is a range of the basepoint order, found by one search
    per end; its extrema are read from sparse tables."""
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    if A <= 1:
        raise DomainError("scale factor A must exceed 1")
    if a1 <= 0:
        raise DomainError("quasi-triangle constant must be positive")
    order, ds = space._basepoint_row[:2]
    d0 = space.d0
    scale = A**2 * a1
    hi_d = scale * d0
    starts = np.searchsorted(ds, d0 / scale, side="left")
    stops = np.searchsorted(ds, hi_d, side="right")
    # a NaN bound holds no point, though it sorts past every distance
    xs = np.flatnonzero((stops > starts) & ~np.isnan(hi_d))
    starts, stops = starts[xs], stops[xs]
    r1 = _range_reduce(np.maximum, vv[order], starts, stops) / wv[xs]
    r2 = vv[xs] / _range_reduce(np.minimum, wv[order], starts, stops)
    # a running max from 0 that a NaN ratio never replaces
    b1 = float(np.max(r1, initial=0.0, where=r1 > 0))
    b2 = float(np.max(r2, initial=0.0, where=r2 > 0))
    return b1, b2, space.n - xs.size


class _Muckenhoupt:
    """The Muckenhoupt functional as a consumer of sorted row blocks: each
    call reads one ``_SortedRows`` block and raises ``value`` to the sup over
    the closed balls centered in it (see ``muckenhoupt_ar``).  The sweep's
    two threads may call it at once; the sup is exact, so the blocks may
    come in any order, and ``value`` is raised under a lock."""

    def __init__(self, space: DiscreteSpace, w: PointFunction, r: float):
        if r <= 1:
            raise DomainError("Muckenhoupt exponent must exceed 1")
        wv = _positive(space, w, "w")
        rp = r / (r - 1.0)
        self.r = r
        with np.errstate(over="ignore", under="ignore"):
            self.wmu = wv * space.mu
            self.wrmu = wv ** (1.0 - rp) * space.mu
        # a term outside the normal floats overflowed or lost digits; then
        # every row is evaluated in logs
        self.in_range = all(_TINY <= t.min() and t.max() < np.inf
                            for t in (self.wmu, self.wrmu))
        log_w, log_mu = np.log(wv), np.log(space.mu)
        self.log_terms = (log_w + log_mu, (1.0 - rp) * log_w + log_mu)
        self.value = 0.0
        self._lock = threading.Lock()

    def __call__(self, blk) -> None:
        # the averages over the ball up to every sorted position; the closed
        # balls are those ending a tie group
        cmu = blk.prefix[:, 1:]
        if self.in_range:
            with np.errstate(over="ignore", invalid="ignore"):
                vals, avg_wr = self.wmu.take(blk.order), self.wrmu.take(blk.order)
                for sums in (vals, avg_wr):
                    np.cumsum(sums, axis=1, out=sums)
                    sums /= cmu
                avg_wr **= self.r - 1.0
                vals *= avg_wr
            row_max = np.max(vals, axis=1, where=blk.ends, initial=0.0)
            # a ball sum that overflowed leaves its row inf or NaN
            logs = np.flatnonzero(~np.isfinite(row_max))
        else:
            row_max, logs = np.zeros(len(cmu)), np.arange(len(cmu))
        if logs.size:
            row_max[logs] = self._log_rows(blk, logs)
        with self._lock:
            self.value = max(self.value, float(row_max.max()))

    def _log_rows(self, blk, rows: np.ndarray) -> np.ndarray:
        """The row sups of ``rows`` of the block, every ball sum in logs."""
        order = blk.order[rows]
        at = np.arange(1, order.shape[1] + 1)
        log_mu = np.log(blk.prefix[rows, 1:])
        log_w, log_wr = (_log_partial_sums(t[order], at, True) - log_mu
                         for t in self.log_terms)
        with np.errstate(over="ignore"):
            vals = np.exp(log_w + (self.r - 1.0) * log_wr)
        return np.max(vals, axis=1, where=blk.ends[rows], initial=0.0)


def muckenhoupt_ar(space: DiscreteSpace, w: PointFunction, r: float) -> float:
    """Muckenhoupt constant: sup over centered closed balls of
    (avg of w) * (avg of w**(1-r'))**(r-1), the balls of each center read at
    its distinct distances from its sorted distance row.

    Where a term w mu or w**(1-r') mu, or a ball sum of them, leaves the
    normal floats, the rows it reaches are evaluated in logs, each scaled by
    its largest term as in ``_log_partial_sums``; every other row keeps the
    bits of the plain float evaluation.  The rows are read as the geometry
    sweep reads them (``_sweep_candidates``), and a scenario feeds the same
    consumer from its own geometry sweep, so one run sorts each row once."""
    sup = _Muckenhoupt(space, w, r)
    _sweep_candidates(space, sup)
    return sup.value


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class ProfilePair:
    """A radial weight pair (v, w) and the least power of v the pair allows."""

    v_profile: Callable[[np.ndarray], np.ndarray]
    w_profile: Callable[[np.ndarray], np.ndarray]
    gamma_min: float


def power_weight_pair(p_value: float, alpha: float, beta: float,
                      gamma: Optional[float] = None) -> ProfilePair:
    """Power pair v(t) = t**g, w(t) = t**beta for a constant exponent.

    Requires 0 <= beta < 1/p' and g at least max(0, 1 - alpha - 1/q -
    (-beta + 1/p')) with q = p/(1 - alpha p), else ``PreconditionError``;
    when gamma is omitted that minimum is used.
    """
    if p_value <= 1:
        raise DomainError("exponent must exceed 1")
    if not 0 < alpha < 1.0 / p_value:
        raise DomainError("order must lie in (0, 1/p)")
    p_conj = p_value / (p_value - 1.0)
    # 1/q = 1/p - alpha and 1/p + 1/p' = 1, so the minimum's second term is
    # 1 - alpha - (1/p - alpha) + beta - (1 - 1/p) = beta, taken exactly
    gamma_min = max(0.0, beta)
    if not 0 <= beta < 1.0 / p_conj:
        raise PreconditionError(f"weight pair inadmissible: beta={beta:g} outside "
                                f"[0, 1/p') = [0, {1.0 / p_conj:g})")
    g = gamma_min if gamma is None else float(gamma)
    if g < gamma_min - 1e-12:
        raise PreconditionError(
            f"weight pair inadmissible: gamma={g:g} below minimum {gamma_min:g}")
    return ProfilePair(lambda t: np.asarray(t, dtype=float) ** g,
                       lambda t: np.asarray(t, dtype=float) ** beta, gamma_min)


def log_adjusted_weight_pair(p_conj_at_base: float, L: float) -> ProfilePair:
    """Log-corrected pair v(t) = t**(1/p'(x0)), w(t) = t**(1/p'(x0)) log(2L/t).

    w increases only near 0 (its maximum sits at t = 2 L exp(-p'(x0))), so
    condition evaluations must relax the monotonicity gate.
    """
    if p_conj_at_base <= 1:
        raise DomainError("conjugate exponent must exceed 1")
    if L <= 0:
        raise DomainError("L must be positive")
    g = 1.0 / p_conj_at_base

    def w(t):
        t = np.asarray(t, dtype=float)
        return t ** g * np.log(2.0 * L / t)

    return ProfilePair(lambda t: np.asarray(t, dtype=float) ** g, w, 0.0)
