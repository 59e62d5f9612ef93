"""Two-weight sufficient-condition functionals and weight families.

Every functional here has the shape

    sup over t in [0, L] of
        sum over an outer region in x of  base(x) * (inner sum over y)**g(x)

where the outer region is {t < d0 <= L} or {d0 <= t}, the inner sum runs over
the complementary region, and the per-point exponents come from the
basepoint-local minima of the exponent field.  The sup is discretized over
the distinct basepoint distances plus midpoints, which samples every step of
the piecewise-constant curve exactly; region boundaries use the half-open
convention {d0 <= t} / {t < d0} throughout, so mirror and constant-order
consistency identities hold exactly on discrete data.

Every functional is evaluated in logs.  Each one hands the sweep evaluator
(``_sup_functional``) its outer bases and the log of its inner integrand,
log base * exponent + log mu: one array when the exponent is constant, else
a callable giving the rows of a block of outer points.  Inner sums are
row-max-scaled cumsums in basepoint order (tail sums reversed cumsums), and
the outer sum is a max-scaled exp-sum per sweep step over blocks of outer
points, so an exponent near 1 (conjugate near infinity) or weights near
1e+-200 neither overflow nor collapse to 0.  The curve is evaluated once per
step, at the knots 0, the distinct distances and L, and each midpoint
repeats the knot below it.  Only true atoms, a zero base under a negative
exponent, are dropped from an inner sum; ``meta["skipped_inner"]`` counts
them.

Values are reported with the full per-t curve and the attaining t.
Finiteness is a refinement trend, never a boolean at one resolution; see
``finite_hint``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .exponents import PointFunction, conjugate, local_exponents
from .space import DiscreteSpace, _sorted_row_blocks, ahlfors_regularity, comparison_annulus

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
    "potential_to_hardy_weights",
    "maximal_to_hardy_weights",
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
    finite_hint: Optional[bool] = None
    meta: dict = field(default_factory=dict)


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
    midpoints between consecutive ones, and L itself."""
    L = space.L_eff
    d = np.unique(space.d0)
    d = d[d <= L]
    mids = 0.5 * (d[:-1] + d[1:]) if d.size > 1 else np.array([])
    return np.unique(np.concatenate([[0.0], d, mids, [L]]))


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


def _log_partial_sums(r: np.ndarray, at: np.ndarray, head: bool) -> np.ndarray:
    """Logs of the partial sums of exp(r) along each row of ``r`` (no entry
    +inf), read at positions ``at``: the sum over the first ``at`` entries
    (head) or over the entries from ``at`` on (tail).

    Each row is scaled by its maximum before the exp and the cumsum; a tail
    is its own reversed cumsum, never a total minus a head, which would
    cancel.  A row whose running sum underflowed to 0 after a finite entry
    is recomputed alone by ``np.logaddexp.accumulate``.
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
    with np.errstate(divide="ignore"):
        out = np.log(csum[:, at]) + m[:, None]
    # the zeros of a running sum are its first entries; they are exact only
    # where every term summed so far is exp(-inf)
    zeros = n - np.count_nonzero(terms, axis=1)
    for i in np.flatnonzero(zeros):
        seen = r[i, :zeros[i]] if head else r[i, n - zeros[i]:]
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


def _sup_functional(space: DiscreteSpace, name: str, log_outer: np.ndarray,
                    forward: bool, inner, gamma: np.ndarray,
                    meta: Optional[dict] = None) -> ConditionReport:
    """Evaluate one sup-functional over the sweep, in logs.

    ``forward`` selects the outer region {t < d0 <= L} with the inner sum
    over {d0 <= t}; otherwise the outer region is {d0 <= t} and the inner
    sum runs over {t < d0 <= L}.  ``log_outer`` is log O(x), the outer base
    times mu (-inf where O is 0).  ``inner`` is the log-integrand of the
    inner sum, log of (integrand times mu): an array when it does not depend
    on the outer point x, else a callable taking a block of outer indices xs
    to a (len(xs), n) array.  ``gamma`` is the per-x outer power applied to
    the inner sum W_x(t).  The curve at t is the sum over the outer region
    of exp(log O(x) + gamma(x) log W_x(t)), so neither a weight raised to a
    large power nor a sum of such terms overflows or underflows before the
    result itself would.

    Inner entries of +inf are the atoms of a zero base under a negative
    exponent (the basepoint of a singular integrand): they are zeroed and
    counted in ``meta["skipped_inner"]``, once per inner row evaluated (one
    row for an x-independent integrand, one per outer point otherwise).

    The curve is evaluated once per step of the sweep, at the knots 0, the
    distinct basepoint distances within [0, L] and L: a midpoint of
    ``t_sweep`` lies in the same half-open regions as the knot below it, so
    its entry is that knot's.  Outer points are taken in blocks sorted by
    where their region starts; each block reads only the knots its points
    reach and only the inner entries summed at those knots.
    """
    L = space.L_eff
    d0 = space.d0
    capped = d0 <= L * (1 + 1e-12)
    log_O = np.where(capped, log_outer, -np.inf)
    order = space.radial_order
    ds = d0[order]
    n_in = int(np.count_nonzero(capped))  # inner sums run over the first n_in in order
    ts = t_sweep(space)
    knots = np.unique(np.concatenate([[0.0], ds[ds <= L], [L]]))
    T = knots.size
    # the inner sum at knot k holds the first head_count[k] points (forward)
    # or the capped points after them
    head_count = np.searchsorted(ds, knots, side="right")
    # x is outer at knot k when forward: k < cut(x); else k >= cut(x)
    cut = np.searchsorted(knots, d0, side="left")
    gamma = np.asarray(gamma, dtype=float)
    skipped = 0

    def log_W(r: np.ndarray, k0: int, k1: int) -> np.ndarray:
        """log W at knots k0..k1-1 from log-integrand rows in point order."""
        nonlocal skipped
        lo, hi = (0, head_count[k1 - 1]) if forward else (head_count[k0], n_in)
        r = r[:, order[lo:hi]]
        for i in np.flatnonzero(r.max(axis=1, initial=-np.inf) == np.inf):
            atoms = r[i] == np.inf
            skipped += int(atoms.sum())
            r[i, atoms] = -np.inf
        return _log_partial_sums(r, head_count[k0:k1] - lo, forward)

    xs = np.flatnonzero(log_O > -np.inf)
    xs = xs[np.argsort(cut[xs], kind="stable")]
    shared = log_W(inner[None, :], 0, T)[0] if isinstance(inner, np.ndarray) else None
    if shared is not None and np.ptp(gamma) <= 1e-13 * max(1.0, abs(float(gamma[0]))):
        # W**gamma factors out: the outer sums per knot are partial sums over
        # the outer points in cut order
        at = np.searchsorted(cut[xs], np.arange(T), side="right")
        log_R = _log_partial_sums(log_O[xs][None, :], at, not forward)[0]
        log_curve = float(gamma[0]) * shared + log_R
    else:
        log_curve = np.full(T, -np.inf)
        xs = xs[cut[xs] > 0] if forward else xs[cut[xs] < T]
        B = max(1, _BLOCK_ELEMS // max(space.n, T))
        for s in range(0, xs.size, B):
            blk = xs[s:s + B]
            c = cut[blk]
            k0, k1 = (0, int(c[-1])) if forward else (int(c[0]), T)
            W = shared[None, k0:k1] if shared is not None else log_W(inner(blk), k0, k1)
            vals = log_O[blk, None] + gamma[blk, None] * W
            k = np.arange(k0, k1)
            vals[(k >= c[:, None]) if forward else (k < c[:, None])] = -np.inf
            log_curve[k0:k1] = np.logaddexp(log_curve[k0:k1], _log_col_sums(vals))

    curve = np.exp(log_curve)[np.searchsorted(knots, ts, side="right") - 1]
    j = int(curve.argmax())
    meta = dict(meta or {})
    meta["skipped_inner"] = skipped
    return ConditionReport(name, float(curve[j]), float(ts[j]), ts, curve,
                           resolution=space.n, meta=meta)


def _ordering_check(name: str, lower: PointFunction, upper: PointFunction):
    bad = np.flatnonzero(lower.values > upper.values * (1 + 1e-12))
    if bad.size:
        raise PreconditionError(
            f"{name}: local exponent exceeds the target exponent", witness=int(bad[0]))


def _log(x) -> np.ndarray:
    """Natural log, -inf at 0 without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_positive(x: np.ndarray) -> np.ndarray:
    """Natural log of the positive entries of x, 0 at the others; callers
    mask those (the basepoint's zero distance and ball measure)."""
    return np.log(np.where(x > 0, x, 1.0))


def _pow_inner(log_w: np.ndarray, e: np.ndarray, log_mu: np.ndarray):
    """Log-integrand e(x) log w + log mu of the inner sum of w**e(x) mu: an
    array when e is constant, else a callable taking a block of outer
    indices xs to a (len(xs), n) array.  A zero base (log w = -inf) under a
    negative exponent gives +inf, an atom the sweep evaluator zeroes and
    counts."""
    if np.ptp(e) <= 1e-13 * max(1.0, abs(float(e[0]))):
        return e[0] * log_w + log_mu
    return lambda xs: e[xs, None] * log_w + log_mu


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
    le = local_exponents(space, p, a)
    _ordering_check("hardy condition", le.ball_min_capped, q)
    e = conjugate(le.ball_min_capped).values
    log_mu = np.log(space.mu)
    return _sup_functional(space, "hardy", q.values * _log(vv) + log_mu, True,
                           _pow_inner(_log(wv), e, log_mu), q.values / e)


def hardy_tail_condition(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                         v: PointFunction, w: PointFunction,
                         a: Optional[float] = None) -> ConditionReport:
    """Tail Hardy functional: outer region {d0 <= t}, inner region
    {t < d0 <= L}, with e the conjugate of the capped tail-minimum of p."""
    vv = _nonneg(space, v, "v")
    wv = _nonneg(space, w, "w")
    le = local_exponents(space, p, a)
    _ordering_check("hardy tail condition", le.tail_min_capped, q)
    e = conjugate(le.tail_min_capped).values
    log_mu = np.log(space.mu)
    return _sup_functional(space, "hardy-tail", q.values * _log(vv) + log_mu, False,
                           _pow_inner(_log(wv), e, log_mu), q.values / e)


def _alpha_gate(alpha_vals: np.ndarray, p: PointFunction):
    p_plus = float(p.values.max())
    if np.any(alpha_vals <= 0) or np.any(alpha_vals >= 1.0 / p_plus):
        raise DomainError(
            f"order must lie in (0, 1/p_max) = (0, {1.0 / p_plus:.6g})")


def potential_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                         v: PointFunction, w: PointFunction, alpha: float,
                         a: Optional[float] = None):
    """Ball-potential pair of functionals for constant order alpha.

    ball part : outer {t < d0 <= L} with base (v / muB0**(1-alpha))**q,
                inner {d0 <= t} of w**(-e0(x)) mu
    tail part : outer {d0 <= t} with base v**q,
                inner {t < d0 <= L} of (w muB0**(1-alpha))**(-e1(x)) mu

    e0/e1 are the conjugates of the capped ball/tail minima of p.
    Returns (ball_report, tail_report).
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    _alpha_gate(np.array([alpha]), p)
    le = local_exponents(space, p, a)
    e0 = conjugate(le.ball_min_capped).values
    e1 = conjugate(le.tail_min_capped).values
    muB0 = space.muB0
    log_mu, log_v, log_w = np.log(space.mu), _log(vv), np.log(wv)

    log_O1 = np.where(muB0 > 0, q.values * (log_v + (alpha - 1.0) * _log_positive(muB0))
                      + log_mu, -np.inf)
    r1 = _sup_functional(space, "potential-ball", log_O1, True,
                         _pow_inner(log_w, -e0, log_mu), q.values / e0)

    log_base2 = log_w + (1.0 - alpha) * _log(muB0)
    r2 = _sup_functional(space, "potential-tail", q.values * log_v + log_mu, False,
                         _pow_inner(log_base2, -e1, log_mu), q.values / e1)
    return r1, r2


def distance_potential_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                                  v: PointFunction, w: PointFunction, alpha: PointFunction,
                                  a: Optional[float] = None):
    """Distance-potential pair for variable order (upper Ahlfors 1-regular
    spaces): the ball part uses base (v / d0**(1-alpha(x)))**q with inner
    w**(-e0(x)); the tail part uses inner (w(y) d0(y)**(1-alpha(y)))**(-e1(x)).
    Returns (ball_report, tail_report); the space's upper-Ahlfors constant is
    attached to both reports' meta.
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    _alpha_gate(alpha.values, p)
    c1, _, _, _ = ahlfors_regularity(space, 1.0)
    meta = {"ahlfors_upper_c1": c1}
    le = local_exponents(space, p, a)
    e0 = conjugate(le.ball_min).values
    e1 = conjugate(le.tail_min).values
    d0 = space.d0
    log_mu, log_v, log_w = np.log(space.mu), _log(vv), np.log(wv)
    log_d0 = _log_positive(d0)

    log_O1 = np.where(d0 > 0, q.values * (log_v + (alpha.values - 1.0) * log_d0) + log_mu,
                      -np.inf)
    r1 = _sup_functional(space, "distance-ball", log_O1, True,
                         _pow_inner(log_w, -e0, log_mu), q.values / e0, meta=meta)

    # a base of +inf keeps the basepoint atom out of the tail
    log_base2 = np.where(d0 > 0, log_w + (1.0 - alpha.values) * log_d0, np.inf)
    r2 = _sup_functional(space, "distance-tail", q.values * log_v + log_mu, False,
                         _pow_inner(log_base2, -e1, log_mu), q.values / e1, meta=meta)
    return r1, r2


def _check_profile(space: DiscreteSpace, profile: Callable, what: str,
                   require_monotone: bool):
    ts = t_sweep(space)
    grid = np.unique(np.append(ts[ts > 0], 2.0 * space.L_eff))
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


def radial_condition(space: DiscreteSpace, p: PointFunction, v_profile: Callable,
                     w_profile: Callable, variant: str, alpha: Optional[float] = None,
                     q: Optional[PointFunction] = None, a: Optional[float] = None,
                     require_monotone: bool = True) -> ConditionReport:
    """Sup-functional for radially composed weights v(d0(x)), w(d0(y)).

    Variants (all with outer region {t < d0 <= L} and inner {d0 <= t}):

      "potential"           base (v(d0)/muB0**(1-alpha))**q, inner exponent
                            -e0(x), power q(x)/e0(x)
      "potential-basepoint" same base, inner exponent -p'(x0), power q/p'(x0)
      "distance-potential"  base (v(d0)/d0**(1-alpha))**q, inner -e0(x) with
                            the uncapped ball minimum
      "maximal"             base (v(d0)/muB0)**p, inner -e0(x), power p/e0
      "maximal-basepoint"   base (v(d0)/muB0)**p, inner -p'(x0), power p/p'(x0)

    Profiles must be positive and nondecreasing on the swept grid
    (``require_monotone=False`` skips the monotonicity gate; some admissible
    log-corrected weights fail it away from 0 yet still yield finite values).
    The basepoint atom of the profiles is evaluated at half the smallest
    positive distance, the quadrature reading of the improper integral.
    """
    if variant not in RADIAL_VARIANTS:
        raise DomainError(f"unknown radial variant {variant!r}")
    _check_profile(space, v_profile, "v", require_monotone)
    _check_profile(space, w_profile, "w", require_monotone)
    needs_q = variant in ("potential", "potential-basepoint", "distance-potential")
    if needs_q:
        if alpha is None or q is None:
            raise DomainError(f"variant {variant!r} needs alpha and q")
        if not 0.0 < alpha < 1.0:
            raise DomainError("order must lie in (0, 1)")
        if alpha >= 1.0 / float(p.values.max()):
            warnings.warn("order leaves the sufficient regime (alpha >= 1/p_max); "
                          "functional evaluated anyway", stacklevel=2)
        out_exp = q.values
    else:
        out_exp = p.values

    dre = space.radial_distances()
    vr = np.asarray(v_profile(dre), dtype=float)
    wr = np.asarray(w_profile(dre), dtype=float)
    if np.any(wr <= 0) or not np.all(np.isfinite(wr)):
        raise PreconditionError("w profile must be positive on the swept distances")
    le = local_exponents(space, p, a)
    log_mu, log_v = np.log(space.mu), _log(vr)
    muB0 = space.muB0
    d0 = space.d0
    p_conj_x0 = float(p.values[space.x0] / (p.values[space.x0] - 1.0))

    if variant in ("potential", "potential-basepoint"):
        log_denom = np.where(muB0 > 0, (1.0 - alpha) * _log_positive(muB0), np.inf)
    elif variant == "distance-potential":
        log_denom = np.where(d0 > 0, (1.0 - alpha) * _log_positive(d0), np.inf)
    else:
        log_denom = np.where(muB0 > 0, _log_positive(muB0), np.inf)
    log_O = out_exp * (log_v - log_denom) + log_mu

    if variant in ("potential-basepoint", "maximal-basepoint"):
        e = np.full(space.n, p_conj_x0)
    elif variant == "distance-potential":
        e = conjugate(le.ball_min).values
    else:
        e = conjugate(le.ball_min_capped).values

    return _sup_functional(space, f"radial-{variant}", log_O, True,
                           _pow_inner(np.log(wr), -e, log_mu), out_exp / e)


def variable_order_conditions(space: DiscreteSpace, p: PointFunction, q: PointFunction,
                              v: PointFunction, w_profile: Callable, alpha: PointFunction,
                              a: Optional[float] = None,
                              require_monotone: bool = True):
    """Variable-order pair with a radial w: the ball part has base
    (v/muB0**(1-alpha(x)))**q and inner w(d0(y))**(-e0(x)); the tail part has
    base v**q and inner (w(d0(y)) muB0(y)**(1-alpha(x)))**(-e1(x)), where the
    order of the *outer* point enters the inner integrand.

    The stated regime 1/p_min < alpha is surfaced as a warning, not a gate:
    the functionals are evaluated for any order field in (0, 1).
    """
    vv = _nonneg(space, v, "v")
    _check_profile(space, w_profile, "w", require_monotone)
    p_min = float(p.values.min())
    if not np.all(alpha.values > 1.0 / p_min):
        warnings.warn("order field leaves the stated regime (min order <= 1/p_min); "
                      "functionals evaluated anyway", stacklevel=2)
    le = local_exponents(space, p, a)
    e0 = conjugate(le.ball_min).values
    e1 = conjugate(le.tail_min).values
    muB0 = space.muB0
    dre = space.radial_distances()
    wr = np.asarray(w_profile(dre), dtype=float)
    if np.any(wr <= 0) or not np.all(np.isfinite(wr)):
        raise PreconditionError("w profile must be positive on the swept distances")
    av = alpha.values
    log_mu, log_v, log_wr = np.log(space.mu), _log(vv), np.log(wr)

    log_O1 = np.where(muB0 > 0, q.values * (log_v + (av - 1.0) * _log_positive(muB0))
                      + log_mu, -np.inf)
    r1 = _sup_functional(space, "variable-order-ball", log_O1, True,
                         _pow_inner(log_wr, -e0, log_mu), q.values / e0)

    # log muB0 = +inf at the basepoint keeps it out of the tail integrand
    log_muB0 = np.where(muB0 > 0, _log_positive(muB0), np.inf)

    def inner2(xs):
        return -e1[xs, None] * (log_wr + (1.0 - av[xs, None]) * log_muB0) + log_mu

    r2 = _sup_functional(space, "variable-order-tail", q.values * log_v + log_mu, False,
                         inner2, q.values / e1)
    return r1, r2


def maximal_singular_conditions(space: DiscreteSpace, p: PointFunction,
                                v: PointFunction, w: PointFunction,
                                a: Optional[float] = None):
    """The maximal/singular pair: ball part with base (v/muB0)**p and inner
    w**(-e0(x)); tail part with base v**p and inner (w muB0)**(-e1(x)).
    Returns (ball_report, tail_report).

    The tail integrand multiplies the weight by the ball measure: it is the
    tail-Hardy functional of the composed pair (v, 1/(w muB0)), and the
    order-zero limit of the potential tail part.
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    le = local_exponents(space, p, a)
    e0 = conjugate(le.ball_min_capped).values
    e1 = conjugate(le.tail_min_capped).values
    muB0 = space.muB0
    log_mu, log_v, log_w = np.log(space.mu), _log(vv), np.log(wv)

    log_O1 = np.where(muB0 > 0, p.values * (log_v - _log_positive(muB0)) + log_mu, -np.inf)
    r1 = _sup_functional(space, "maximal-ball", log_O1, True,
                         _pow_inner(log_w, -e0, log_mu), p.values / e0)

    # w muB0 is zero at the basepoint: an atom, and outside the tail region
    r2 = _sup_functional(space, "maximal-tail", p.values * log_v + log_mu, False,
                         _pow_inner(log_w + _log(muB0), -e1, log_mu), p.values / e1)
    return r1, r2


def annulus_weight_comparison(space: DiscreteSpace, v: PointFunction, w: PointFunction,
                              A: float, a1: float = 1.0, use_l_factor: bool = False):
    """Comparability of v over the distance-comparable annulus with w at the
    point: b1 = sup_x max(v on F_x) / w(x), b2 = sup_x v(x) / min(w on F_x).
    Points with empty annuli are skipped and counted."""
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    b1 = b2 = 0.0
    skipped = 0
    for x in range(space.n):
        members, _ = comparison_annulus(space, x, A, a1=a1, use_l_factor=use_l_factor)
        if members.size == 0:
            skipped += 1
            continue
        b1 = max(b1, float(vv[members].max() / wv[x]))
        b2 = max(b2, float(vv[x] / wv[members].min()))
    return b1, b2, skipped


def muckenhoupt_ar(space: DiscreteSpace, w: PointFunction, r: float) -> float:
    """Muckenhoupt constant: sup over centered balls of
    (avg of w) * (avg of w**(1-r'))**(r-1)."""
    if r <= 1:
        raise DomainError("Muckenhoupt exponent must exceed 1")
    wv = _positive(space, w, "w")
    rp = r / (r - 1.0)
    best = 0.0
    wmu = wv * space.mu
    wrmu = wv ** (1.0 - rp) * space.mu
    for blk in _sorted_row_blocks(space):
        # closed balls at each distinct distance: the ends of the tie groups
        b, n = blk.ds.shape
        ends = np.flatnonzero(blk.ends)
        rows = ends // n
        cmu = blk.prefix.ravel()[ends + rows + 1]
        cw = np.cumsum(wmu[blk.order], axis=1).ravel()[ends]
        cwr = np.cumsum(wrmu[blk.order], axis=1).ravel()[ends]
        vals = (cw / cmu) * (cwr / cmu) ** (r - 1.0)
        row_max = np.maximum.reduceat(vals, np.searchsorted(rows, np.arange(b)))
        best = max(best, *row_max.tolist())
    return best


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class ProfilePair:
    """A radial weight pair (v, w) with its admissibility data."""

    v_profile: Callable[[np.ndarray], np.ndarray]
    w_profile: Callable[[np.ndarray], np.ndarray]
    admissible: bool
    gamma_min: float
    reason: str = ""


def power_weight_pair(p_value: float, alpha: float, beta: float,
                      gamma: Optional[float] = None) -> ProfilePair:
    """Power pair v(t) = t**g, w(t) = t**beta for a constant exponent.

    Requires 0 <= beta < 1/p'; the smallest admissible g is
    max(0, 1 - alpha - 1/q - (-beta + 1/p')) with q = p/(1 - alpha p).
    When gamma is omitted the minimal one is used.
    """
    if p_value <= 1:
        raise DomainError("exponent must exceed 1")
    if not 0 < alpha < 1.0 / p_value:
        raise DomainError("order must lie in (0, 1/p)")
    p_conj = p_value / (p_value - 1.0)
    q_value = p_value / (1.0 - alpha * p_value)
    gamma_min = max(0.0, 1.0 - alpha - 1.0 / q_value - (-beta + 1.0 / p_conj))
    if not 0 <= beta < 1.0 / p_conj:
        return ProfilePair(lambda t: np.asarray(t) ** 0.0, lambda t: np.asarray(t) ** 0.0,
                           False, gamma_min,
                           reason=f"beta={beta:g} outside [0, 1/p') = [0, {1.0 / p_conj:g})")
    g = gamma_min if gamma is None else float(gamma)
    if g < gamma_min - 1e-12:
        return ProfilePair(lambda t: np.asarray(t) ** g, lambda t: np.asarray(t) ** beta,
                           False, gamma_min, reason=f"gamma={g:g} below minimum {gamma_min:g}")
    return ProfilePair(lambda t: np.asarray(t, dtype=float) ** g,
                       lambda t: np.asarray(t, dtype=float) ** beta, True, gamma_min)


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

    def v(t):
        return np.asarray(t, dtype=float) ** g

    def w(t):
        t = np.asarray(t, dtype=float)
        return t ** g * np.log(2.0 * L / t)

    return ProfilePair(v, w, True, 0.0)


def potential_to_hardy_weights(space: DiscreteSpace, v: PointFunction,
                               w: PointFunction, alpha: float):
    """Compose the outer-weight potential inequality into Hardy form:
    (v muB0**(alpha-1), 1/w).  The basepoint's zero ball measure is floored
    to half its own weight (its quadrature cell)."""
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    muB0 = np.maximum(space.muB0, 0.5 * space.mu[space.x0])
    return (PointFunction(vv * muB0 ** (alpha - 1.0), "weight"),
            PointFunction(1.0 / wv, "weight"))


def maximal_to_hardy_weights(space: DiscreteSpace, v: PointFunction, w: PointFunction):
    """Compose the outer-weight maximal/singular inequality into Hardy form.

    Returns ``((v/muB0, 1/w), (v, 1/(w muB0)))``: the first pair drives the
    forward transform, the second the tail transform.  Evaluating the Hardy
    functionals on these pairs reproduces the directly evaluated
    maximal/singular pair exactly (the floored basepoint values never enter
    the regions).
    """
    vv = _nonneg(space, v, "v")
    wv = _positive(space, w, "w")
    muB0 = np.maximum(space.muB0, 0.5 * space.mu[space.x0])
    forward = (PointFunction(np.where(vv > 0, vv / muB0, 0.0), "test"),
               PointFunction(1.0 / wv, "weight"))
    tail = (v, PointFunction(1.0 / (wv * muB0), "weight"))
    return forward, tail
