"""Exponent and weight fields on a discrete space.

Exponent fields p(.) live in (1, inf), order fields in (0, 1), weights are
strictly positive.  This module computes pointwise conjugates, the
basepoint-local exponents used by the Hardy-type conditions,
the fractional-order target exponent, and the sup-constants of the
oscillation and log-Hoelder regularity classes.

Class membership is asymptotic and invisible at one resolution, so checks
report the sup-constant plus the attaining witness; finiteness hints come
from comparing constants across resolutions (see ``conditions.finite_hint``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from numbers import Real
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .space import DiscreteSpace, _sorted_row_blocks

__all__ = [
    "PointFunction",
    "ClassReport",
    "LocalExponents",
    "conjugate",
    "local_exponents",
    "sobolev_exponent",
    "class_check",
    "field_from_spec",
    "parse_field_spec",
    "radial_profile",
]

_KINDS = ("exponent", "alpha", "weight", "test")


@dataclass(frozen=True)
class PointFunction:
    """One real value per point of a space.

    kind: "exponent" (values in (1, inf)), "alpha" (fractional order, values
    in (0, 1)), "weight" (positive), or "test" (any finite values).
    """

    values: np.ndarray
    kind: str = "test"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.kind not in _KINDS:
            raise DomainError(f"unknown field kind {self.kind!r}")
        if not np.all(np.isfinite(v)):
            raise DomainError(f"{self.kind} field must be finite everywhere")
        if self.kind == "exponent" and np.any(v <= 1):
            raise DomainError("exponent field must be > 1 everywhere")
        if self.kind == "alpha" and (np.any(v <= 0) or np.any(v >= 1)):
            raise DomainError("order field must lie in (0, 1)")
        if self.kind == "weight" and np.any(v <= 0):
            raise DomainError("weight field must be positive")

    @classmethod
    def constant(cls, n: int, value: float, kind: str = "test") -> "PointFunction":
        return cls(np.full(n, float(value)), kind)

    def __len__(self) -> int:
        return self.values.size


def _check_len(space: DiscreteSpace, *fields: PointFunction):
    for f in fields:
        if len(f) != space.n:
            raise DomainError("field length does not match the space")


def conjugate(p: PointFunction) -> PointFunction:
    """Pointwise conjugate exponent p / (p - 1)."""
    if np.any(p.values <= 1):
        raise DomainError("conjugate needs values > 1 everywhere")
    return PointFunction(p.values / (p.values - 1.0), "exponent")


@dataclass(frozen=True)
class LocalExponents:
    """Basepoint-local minima of an exponent field.

    ball_min(x)  : min of p over the closed ball of radius d0(x)
    tail_min(x)  : min of p over {y : d0(x) <= d0(y) <= a}; for x beyond a,
                   where that set is empty, the constant value of p beyond
                   a, else p(x)
    ball_min_capped(x) : ball_min spliced to the constant value of p beyond
                   radius a (identical to ball_min when the diameter is
                   finite, where a is forced to L).
    """

    ball_min: PointFunction
    tail_min: PointFunction
    ball_min_capped: PointFunction


def local_exponents(space: DiscreteSpace, p: PointFunction, a: Optional[float] = None) -> LocalExponents:
    """Running minima of p along the basepoint-distance ordering.

    On a finite-diameter space ``a`` is forced to the diameter.  On a
    truncated infinite model ``a`` is required and p must be constant beyond
    radius a (checked; the offending point is reported).
    """
    _check_len(space, p)
    if p.kind != "exponent":
        raise DomainError("local exponents are defined for exponent fields")
    p_c = None
    if space.infinite_diameter:
        if a is None or a <= 0:
            raise PreconditionError("truncated infinite model needs a positive cap radius a")
        tail = space.d0 > a
        if tail.any():
            tail_vals = p.values[tail]
            p_c = float(tail_vals[0])
            bad = np.flatnonzero(tail)[np.abs(tail_vals - p_c) > 1e-12]
            if bad.size:
                raise PreconditionError(
                    "exponent must be constant beyond the cap radius", witness=int(bad[0]))
    else:
        a = space.L_eff

    order = space.radial_order
    ds = space.d0[order]
    pv = p.values[order]

    # closed-ball prefix minima; equal distances share one closed ball
    prefix = np.minimum.accumulate(pv)
    # index of the last element of each point's tie group
    group_end = np.searchsorted(ds, ds, side="right") - 1
    ball_min_sorted = prefix[group_end]
    ball_min = np.empty_like(ball_min_sorted)
    ball_min[order] = ball_min_sorted

    # suffix minima restricted to d0 <= a, from each tie group's start
    masked = np.where(ds <= a, pv, np.inf)
    suffix = np.full(ds.size + 1, np.inf)
    suffix[:-1] = np.minimum.accumulate(masked[::-1])[::-1]
    group_start = np.searchsorted(ds, ds, side="left")
    tail_min_sorted = suffix[group_start]
    fallback = pv if p_c is None else p_c
    tail_min_sorted = np.where(np.isinf(tail_min_sorted), fallback, tail_min_sorted)
    tail_min = np.empty_like(tail_min_sorted)
    tail_min[order] = tail_min_sorted

    # tail_min beyond a is already the tail value; only ball_min is spliced
    ball_capped = ball_min
    if space.infinite_diameter and p_c is not None:
        ball_capped = np.where(space.d0 > a, p_c, ball_min)
    mk = lambda v: PointFunction(v, "exponent")
    return LocalExponents(mk(ball_min), mk(tail_min), mk(ball_capped))


def sobolev_exponent(p: PointFunction, alpha: PointFunction) -> PointFunction:
    """Target exponent q = p / (1 - alpha p); satisfies 1/q = 1/p - alpha."""
    ap = alpha.values * p.values
    bad = np.flatnonzero(ap >= 1.0)
    if bad.size:
        raise DomainError(f"alpha * p must stay below 1 (fails at point {int(bad[0])})")
    return PointFunction(p.values / (1.0 - ap), "exponent")


@dataclass
class ClassReport:
    tag: str
    constant_c: float
    radius_b: float
    worst_witness: tuple
    excluded: int = 0


def class_check(space: DiscreteSpace, p: PointFunction, cls: str, N: float = 1.0,
                at: Optional[int] = None, b: Optional[float] = None) -> ClassReport:
    """Sup-constant of a regularity class over the swept domain.

    cls is one of:
      "oscillation"          : sup over x (or the fixed x) and r <= b of
                               mu B(x, N r) ** (p_min(B(x,r)) - p_max(B(x,r)))
      "log-holder"           : sup of |p(x)-p(y)| * (-log mu B(x, d(x,y)))
                               over pairs with d(x,y) <= b and ball measure < 1
      "log-holder-distance"  : sup of |p(x)-p(y)| * (-log d(x,y)) over pairs
                               with d(x,y) <= b and d(x,y) < 1

    ``at`` restricts x to one point (the "at a point" variants).  Pairs or
    radii excluded by the smallness gates are counted, not failed; if nothing
    is admissible the report carries constant 0 and the exclusion count.
    Each class reads the distance rows a block at a time, so no (n, n) table
    is built; the witness of a log-Hoelder class is its first admissible
    pair in row-major order that attains the constant.
    """
    _check_len(space, p)
    if b is None:
        b = 0.5 * space.L_eff
    if b <= 0:
        raise DomainError("sweep radius b must be positive")
    if at is not None and not (0 <= at < space.n):
        raise DomainError(f"point id {at} out of range")

    rows = (0, space.n) if at is None else (at, at + 1)
    if cls == "oscillation":
        if N < 1:
            raise DomainError("oscillation class needs N >= 1")
        best, wit = 0.0, ()
        excluded = 0
        for blk in _sorted_row_blocks(space, *rows):
            for i, (ds, prefix, ends) in enumerate(zip(blk.ds, blk.prefix, blk.ends)):
                # radii: midpoints between consecutive distinct distances, up to b
                du = ds[ends]
                radii = 0.5 * (du[:-1] + du[1:])
                radii = radii[radii <= b]
                if radii.size == 0:
                    excluded += 1
                    continue
                pv = p.values[blk.order[i]]
                idx = np.searchsorted(ds, radii, side="left")
                run_min = np.minimum.accumulate(pv)
                run_max = np.maximum.accumulate(pv)
                mN = prefix[np.searchsorted(ds, N * radii, side="left")]
                ok = (idx > 0) & (mN > 0)
                excluded += int((~ok).sum())
                if not ok.any():
                    continue
                osc = run_min[idx[ok] - 1] - run_max[idx[ok] - 1]
                vals = mN[ok] ** osc
                j = int(vals.argmax())
                if vals[j] > best:
                    best, wit = float(vals[j]), (blk.start + i, float(radii[ok][j]))
        return ClassReport(cls, best, float(b), wit, excluded=excluded)

    if cls in ("log-holder", "log-holder-distance"):
        best, wit = -np.inf, ()
        excluded = 0
        for blk in _sorted_row_blocks(space, *rows):
            x = slice(blk.start, blk.start + blk.ds.shape[0])
            d = blk.d
            gate = blk.open_measure() if cls == "log-holder" else d
            near = (d > 0) & (d <= b)
            admissible = near & (gate > 0) & (gate < 1)
            excluded += int(near.sum() - admissible.sum())
            if not admissible.any():
                continue
            dp = np.abs(p.values[x, None] - p.values[None, :])
            vals = np.full(d.shape, -np.inf)
            vals[admissible] = dp[admissible] * -np.log(gate[admissible])
            # strictly larger only: the witness is the first in row-major order
            j = int(vals.argmax())
            if vals.flat[j] > best:
                best, wit = float(vals.flat[j]), (blk.start + j // space.n, j % space.n)
        return ClassReport(cls, max(best, 0.0), float(b), wit, excluded=excluded)

    raise DomainError(f"unknown regularity class {cls!r}")


# ---------------------------------------------------------------------------
# field construction from structured specs

class _Expression(NamedTuple):
    nparams: int
    radial: bool      # read at radial_distances(), else at the unfloored d0
    value: Callable   # value(t, L, *params)


_EXPRESSIONS = {
    "const": _Expression(1, True, lambda t, L, c: np.full_like(t, c)),
    "affine-in-dist": _Expression(2, False, lambda t, L, base, slope: base + slope * t),
    "power-of-dist": _Expression(1, True, lambda t, L, g: t ** g),
    "log-power": _Expression(1, True, lambda t, L, g: t ** g * np.log(2.0 * L / t)),
}
_EXPR_RE = re.compile(r"^\s*([a-z0-9-]+)\s*(?:\(\s*x0\s*(?:,\s*([^)]*))?\))?\s*(.*)$")


def parse_field_spec(spec) -> Optional[Tuple[_Expression, List[float]]]:
    """The expression and parameters of a field spec, or None when it lists
    explicit ``values``.  Expressions are written ``name(x0, a, ...)`` or
    ``name a ...``; a malformed spec raises ValidationError."""
    if not isinstance(spec, dict):
        raise ValidationError("field spec must be a mapping")
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, (list, tuple, np.ndarray)):
            raise ValidationError(f"'values' must be a list of numbers, got {values!r}")
        bad = [v for v in values if isinstance(v, bool) or not isinstance(v, Real)]
        if bad:
            raise ValidationError(f"'values' must hold numbers only, got {bad[0]!r}")
        return None
    expr = spec.get("expr")
    m = _EXPR_RE.match(expr) if isinstance(expr, str) else None
    if not m or m.group(1) not in _EXPRESSIONS:
        raise ValidationError(f"field spec needs 'values' or a known 'expr', got {expr!r}")
    name, args, tail = m.groups()
    try:
        params = [float(a) for a in (args.split(",") if args else []) + tail.split()]
    except ValueError:
        raise ValidationError(f"non-numeric parameter in {expr!r}") from None
    entry = _EXPRESSIONS[name]
    if len(params) != entry.nparams:
        raise ValidationError(f"{name} takes {entry.nparams} parameter(s), got {expr!r}")
    return entry, params


def radial_profile(space: DiscreteSpace, spec: dict) -> Optional[Callable]:
    """The profile t -> value of a radial expression spec, whose field is the
    profile at ``radial_distances()``; None for any other spec."""
    parsed = parse_field_spec(spec)
    if parsed is None or not parsed[0].radial:
        return None
    (entry, params), L = parsed, space.L_eff
    return lambda t: entry.value(np.asarray(t, dtype=float), L, *params)


def field_from_spec(space: DiscreteSpace, spec: dict) -> PointFunction:
    """Build a field from ``{"kind": ..., "expr": ... | "values": [...]}``.

    Recognized expressions (all but the affine one use the basepoint
    distance, with the basepoint atom floored to half the nearest-neighbor
    distance); ``"const c"`` may also be written ``"const(x0, c)"``:

      "const c"                   constant c
      "affine-in-dist(x0, b, s)"  b + s * d0
      "power-of-dist(x0, g)"      d0 ** g
      "log-power(x0, g)"          d0 ** g * log(2 L / d0)
    """
    parsed = parse_field_spec(spec)
    kind = spec.get("kind", "test")
    if parsed is None:
        values = np.asarray(spec["values"], dtype=float)
        if values.shape != (space.n,):
            raise ValidationError(f"{values.size} values for a space of {space.n} points")
        return PointFunction(values, kind)
    entry, params = parsed
    t = space.radial_distances() if entry.radial else space.d0
    return PointFunction(entry.value(t, space.L_eff, *params), kind)
