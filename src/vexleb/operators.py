"""The operators under study: Hardy-type transforms, the centered maximal
function, ball and distance potentials, and truncated singular integrals.

Each one maps a (P, n) block of test functions, one per row, to the block
of their images.  All of them are pure per-point sums over the space; the
non-atomic diagonal of the continuum is handled by excluding y = x
(potentials) or by the truncation radius (singular integrals), and
refinement studies are expected to confirm the exclusion is harmless.

Distances are read a block of rows at a time (``DiscreteSpace.rows``) or at
broadcast point ids (``pairs``), and a singular kernel at broadcast ids
(``KernelSpec.at``), so no operator calls a kernel once per point.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ValidationError
from .exponents import PointFunction
from .space import (_RADIUS_JITTER, DiscreteSpace, _distinct, _known_keys, _mapping, _number,
                    _quasi_constants, _row_blocks, _sorted_row_blocks, _sorted_rows)

__all__ = [
    "KernelSpec",
    "hardy_transforms",
    "hardy_tail_transforms",
    "maximal_functions",
    "ball_potentials",
    "distance_potentials",
    "singular_integrals",
    "kernel_regularity_check",
    "hilbert_kernel",
    "power_dist_kernel",
    "explicit_kernel",
    "power_modulus",
    "table_modulus",
    "kernel_from_spec",
]


def _rows(space: DiscreteSpace, rows) -> np.ndarray:
    """A (P, n) block of finite test-function values, one function per row."""
    block = np.asarray(rows, dtype=float)
    if block.ndim != 2 or block.shape[1] != space.n:
        raise DomainError(f"operator rows must form a (P, {space.n}) block")
    if not np.all(np.isfinite(block)):
        raise DomainError("operator rows must be finite everywhere")
    return block


def _apply_kernel(kernel: np.ndarray, fmu: np.ndarray) -> np.ndarray:
    """kernel @ row for each row of fmu.  One mat-vec per row on the shared
    kernel: at probe sizes a single matrix product over the block starts
    BLAS's thread pool and is slower than the mat-vecs."""
    out = np.empty_like(fmu)
    for k, row in enumerate(fmu):
        out[k] = kernel @ row
    return out


def _hardy(space: DiscreteSpace, v: PointFunction, w: PointFunction, rows,
           below: bool) -> np.ndarray:
    """v(x) times the sum of f w mu of each row of a (P, n) block over
    {y : d0(y) < d0(x)} when ``below``, else over {y : d0(y) > d0(x)}: one
    cumsum for the whole block, along the basepoint order for the ball and
    against it for the tail.  The tail is summed from the far end, not taken
    as the total less the closed ball, so a tail far below the total does
    not cancel to 0."""
    integrand = _rows(space, rows) * w.values
    integrand *= space.mu
    row = space._basepoint_row
    csum = np.zeros((len(integrand), space.n + 1))
    if below:
        np.cumsum(integrand[:, row.order], axis=1, out=csum[:, 1:])
        out = csum[:, row.below]
    else:
        # csum[:, k] sums the k points farthest from x0
        np.cumsum(integrand[:, row.order[::-1]], axis=1, out=csum[:, 1:])
        out = csum[:, space.n - row.upto]
    out *= v.values
    return out


def hardy_transforms(space: DiscreteSpace, v: PointFunction, w: PointFunction,
                     rows) -> np.ndarray:
    """Forward Hardy transform of each row f of a (P, n) block:
    v(x) * sum of f w mu over the open ball {y : d0(y) < d0(x)}.

    At the basepoint the ball is empty, so the value there is 0.
    """
    return _hardy(space, v, w, rows, below=True)


def hardy_tail_transforms(space: DiscreteSpace, v: PointFunction, w: PointFunction,
                          rows) -> np.ndarray:
    """Tail Hardy transform of each row f of a (P, n) block:
    v(x) * sum of f w mu over the tail {y : d0(y) > d0(x)}."""
    return _hardy(space, v, w, rows, below=False)


def maximal_functions(space: DiscreteSpace, rows) -> np.ndarray:
    """Centered maximal function of each row f of a (P, n) block: per point,
    the largest ball average of |f| over the radius sweep (each distinct
    distance, plus the whole space).

    One sweep over sorted positions per block of centers serves every row:
    at step j, each center x adds |f| mu at the j-th point of its sorted row
    to its running sums, which so take their terms in the order of a
    per-center cumsum and match it bit for bit.  Closed balls are realized at
    the last position of each tie group; elsewhere the running sum is divided
    by inf, and 0 never exceeds an average.
    """
    absf_mu = np.ascontiguousarray((np.abs(_rows(space, rows)) * space.mu).T)
    out = np.zeros_like(absf_mu)
    for blk in _sorted_row_blocks(space):
        best = out[blk.start:blk.start + len(blk.order)]
        total = np.zeros_like(best)
        average = np.empty_like(best)
        measures = np.where(blk.ends, blk.prefix[:, 1:], np.inf)
        for order, measure in zip(blk.order.T, measures.T):
            total += absf_mu[order]
            np.divide(total, measure[:, None], out=average)
            # fmax, not maximum: an overflowed sum over an infinite measure is NaN
            np.fmax(best, average, out=best)
    return out.T.copy()


def _potential(space: DiscreteSpace, alpha: PointFunction, rows, tables) -> np.ndarray:
    """Each row of a (P, n) block through the kernel table**(alpha(x) - 1),
    built once per call from ``tables``, the pairs (first row, block of the
    table's rows); entries where the table is 0 (only the diagonal) are
    excluded."""
    if alpha.kind not in ("alpha", "test"):
        raise DomainError("order field must be alpha-kind")
    kernel = np.zeros((space.n, space.n))
    for start, table in tables:
        block = slice(start, start + len(table))
        np.power(table, alpha.values[block, None] - 1.0, out=kernel[block], where=table > 0)
    return _apply_kernel(kernel, _rows(space, rows) * space.mu)


def ball_potentials(space: DiscreteSpace, alpha: PointFunction, rows) -> np.ndarray:
    """Ball potential of each row f of a (P, n) block: kernel
    (mu B(x, d(x,y)))**(alpha(x) - 1), diagonal excluded.  The open ball
    B(x, d(x, y)) holds x for y != x, so its measure is 0 only on the
    diagonal, and no off-diagonal pair is skipped."""
    return _potential(space, alpha, rows, ((blk.start, blk.open_measure())
                                           for blk in _sorted_row_blocks(space)))


def distance_potentials(space: DiscreteSpace, alpha: PointFunction, rows) -> np.ndarray:
    """Distance potential of each row f of a (P, n) block: kernel
    d(x, y)**(alpha(x) - 1), diagonal excluded.

    Meant for spaces whose measure is upper Ahlfors 1-regular, where it is
    pointwise comparable to the ball potential.
    """
    return _potential(space, alpha, rows, _row_blocks(space))


# ---------------------------------------------------------------------------
# singular integrals


@dataclass(frozen=True)
class KernelSpec:
    """A kernel on off-diagonal pairs plus its smoothness modulus.

    ``at(space, xs, ys)`` returns k at the broadcast point ids, as
    ``K[xs, ys]`` indexes a kernel table; entries at distance 0 are unused
    (the truncation removes them).  ``omega`` is the smoothness modulus on
    (0, inf).
    """

    at: Callable[[DiscreteSpace, np.ndarray, np.ndarray], np.ndarray]
    omega: Callable[[np.ndarray], np.ndarray]


def hilbert_kernel() -> KernelSpec:
    """k(x, y) = 1 / (coord(x) - coord(y)) on coordinate-labelled spaces."""

    def at(space: DiscreteSpace, xs, ys) -> np.ndarray:
        if space.coords is None:
            raise DomainError("Hilbert kernel needs coordinate labels")
        diff = space.coords[xs] - space.coords[ys]
        return np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)

    return KernelSpec(at, power_modulus(1.0))


def power_dist_kernel(exponent: float) -> KernelSpec:
    """k(x, y) = d(x, y)**exponent (positive, distance-driven)."""

    def at(space: DiscreteSpace, xs, ys) -> np.ndarray:
        d = space.pairs(xs, ys)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, d ** exponent, 0.0)

    return KernelSpec(at, power_modulus(1.0))


def explicit_kernel(matrix: np.ndarray) -> KernelSpec:
    k = np.asarray(matrix, dtype=float)

    def at(space: DiscreteSpace, xs, ys) -> np.ndarray:
        if k.shape != (space.n, space.n):
            raise DomainError("kernel table does not match the space")
        return k[xs, ys]

    return KernelSpec(at, power_modulus(1.0))


def power_modulus(a: float) -> Callable[[np.ndarray], np.ndarray]:
    """omega(t) = t**a (nondecreasing for a > 0, Dini-summable for a > 0)."""
    if a <= 0:
        raise DomainError("modulus power must be positive")
    return lambda t: np.asarray(t, dtype=float) ** a


def table_modulus(ts, vals) -> Callable[[np.ndarray], np.ndarray]:
    """Piecewise-linear modulus through the given knots, constant outside."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if ts.ndim != 1 or ts.shape != vals.shape or np.any(np.diff(ts) <= 0):
        raise DomainError("modulus table needs strictly increasing knots")
    return lambda t: np.interp(np.asarray(t, dtype=float), ts, vals)


def singular_integrals(space: DiscreteSpace, kernel: KernelSpec, rows,
                       eps: float) -> np.ndarray:
    """Truncated singular integral of each row f of a (P, n) block: sum over
    {y : d(x, y) > eps} of k(x, y) f(y) mu(y), the truncated kernel built
    once per call, a block of rows at a time.  eps is compared with the
    relative radius jitter, so each distance level lies wholly on one side
    of it.  The principal value is approached by shrinking eps."""
    if eps <= 0:
        raise DomainError("truncation radius must be positive")
    ids = np.arange(space.n)
    table = np.empty((space.n, space.n))
    for start, d in _row_blocks(space):
        xs = ids[start:start + len(d), None]
        table[start:start + len(d)] = np.where(d > eps * (1.0 + _RADIUS_JITTER),
                                               kernel.at(space, xs, ids), 0.0)
    return _apply_kernel(table, _rows(space, rows) * space.mu)


def kernel_regularity_check(space: DiscreteSpace, kernel: KernelSpec, sample_pairs: int,
                            seed: int = 0, a1: Optional[float] = None):
    """Sampled size/smoothness constants of a kernel plus the Dini sum.

    size_c   : sup over sampled pairs of |k(x,y)| mu B(x, d(x,y))
    smooth_c : sup over sampled triples (x1, x2, y), gated at
               d(x2, y) >= 2 a1 d(x1, x2), of
               (|k(x1,y)-k(x2,y)| + |k(y,x1)-k(y,x2)|) mu B(x2, d(x2,y))
               / omega(d(x2,x1) / d(x2,y))
    dini_sum : sum over j = 1..40 of omega(2**-j) log 2, the dyadic proxy of
               the integral of omega(t)/t over (0, 1).
    ``a1`` defaults to the space's quasi-triangle constant: 1 on a line
    space, the exhaustive or seed-0 sampled search on a table.
    """
    if sample_pairs < 1:
        raise DomainError("need at least one sampled pair")
    if a1 is None:
        _, _, a1, _ = _quasi_constants(space)
    rng = np.random.default_rng(seed)
    n = space.n

    @cache
    def open_measure(x: int) -> np.ndarray:
        return _sorted_rows(space, x, x + 1).open_measure()[0]

    size_c = 0.0
    xs = rng.integers(0, n, sample_pairs)
    ys = rng.integers(0, n, sample_pairs)
    for x in _distinct(xs):
        yy = ys[xs == x]
        yy = yy[space.d_from(x)[yy] > 0]
        if yy.size:
            size_c = max(size_c, float(np.max(np.abs(kernel.at(space, x, yy))
                                              * open_measure(x)[yy])))

    smooth_c = 0.0
    x1s = rng.integers(0, n, sample_pairs)
    x2s = rng.integers(0, n, sample_pairs)
    for x1, x2 in zip(x1s, x2s):
        d2 = space.d_from(x2)
        dx = d2[x1]
        if dx <= 0:
            continue
        ys = np.flatnonzero((d2 >= 2.0 * a1 * dx) & (d2 > 0))
        if not ys.size:
            continue
        num = np.abs(kernel.at(space, x1, ys) - kernel.at(space, x2, ys))
        num += np.abs(kernel.at(space, ys, x1) - kernel.at(space, ys, x2))
        quot = num * open_measure(x2)[ys] / kernel.omega(dx / d2[ys])
        quot = quot[np.isfinite(quot)]
        if quot.size:
            smooth_c = max(smooth_c, float(quot.max()))

    j = np.arange(1, 41)
    dini_sum = float((kernel.omega(2.0 ** -j) * np.log(2.0)).sum())
    return size_c, smooth_c, dini_sum


# the keys each kernel type and each modulus type reads besides "type"; a
# spec's type is looked up by comparison, as it may be any JSON value
_KERNEL_KEYS = {"hilbert": (), "power-dist": ("exponent",), "explicit-table": ("table",)}
_MODULUS_KEYS = {"power": ("a",), "table": ("t", "value")}


def kernel_from_spec(spec: dict) -> KernelSpec:
    """Kernel spec: {"type": "hilbert" | "explicit-table" | "power-dist",
    "exponent": g, "table": [[...]], "omega": {"type": "power", "a": 1.0} |
    {"type": "table", "t": [...], "value": [...]}}.  A key the named kernel
    or modulus type does not read is refused by name."""
    spec = _mapping(spec, "kernel spec")
    omega_spec = _mapping(spec.get("omega", {"type": "power", "a": 1.0}), "omega")
    ktype, otype = spec.get("type"), omega_spec.get("type")
    if ktype not in tuple(_KERNEL_KEYS):
        raise ValidationError(f"unknown kernel type {ktype!r}")
    if otype not in tuple(_MODULUS_KEYS):
        raise ValidationError(f"unknown modulus type {otype!r}")
    _known_keys(spec, "", ("type", "omega", *_KERNEL_KEYS[ktype]))
    _known_keys(omega_spec, "omega", ("type", *_MODULUS_KEYS[otype]))
    if otype == "power":
        omega = power_modulus(_number(omega_spec.get("a", 1.0), "omega.a"))
    else:
        if "t" not in omega_spec or "value" not in omega_spec:
            raise ValidationError("table modulus needs 't' and 'value'")
        omega = table_modulus(omega_spec["t"], omega_spec["value"])
    if ktype == "hilbert":
        k = hilbert_kernel()
    elif ktype == "power-dist":
        k = power_dist_kernel(_number(spec.get("exponent"), "exponent"))
    else:
        if "table" not in spec:
            raise ValidationError("explicit-table kernel needs 'table'")
        k = explicit_kernel(np.asarray(spec["table"], dtype=float))
    return replace(k, omega=omega)
