"""Discretized quasimetric measure spaces and their geometric constants.

A space is a finite point set with a (possibly asymmetric) distance table
and a positive weight per point.  Every geometric query here is a pure read:
balls, annuli, the radial partition around the basepoint, and estimates of
the quasi-triangle, doubling, reverse-doubling and Ahlfors-regularity
constants.  Constants are reported as estimates together with the attaining
configuration, never as booleans: at a fixed resolution only the estimate is
observable, finiteness is a refinement trend.

Distance rows are sorted in one place: ``_sorted_row_blocks`` reads them a
block at a time, each row sorted once, and every sweep, ball measure and
basepoint order (``radial_order``, ``muB0``) is read from its blocks, so no
(n, n) table of sorted rows is kept.  Radius sweeps use the sorted distinct
distances seen from each center.  Sup-type estimates (doubling) read closed balls there, inf-type estimates
(reverse doubling, Ahlfors) read open balls: on atomic data closed balls
collapse the swept annulus while open balls at atom scale inflate ratios, so
each estimator takes the reading that matches its continuum quantity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "DiscreteSpace",
    "BallView",
    "GeometryReport",
    "RadialPartition",
    "ball",
    "geometry_constants",
    "doubling_reverse_doubling",
    "ahlfors_regularity",
    "radial_partition",
    "comparison_annulus",
    "uniform_grid",
    "cantor_space",
    "explicit_space",
    "space_from_spec",
]

# Exhaustive triple search is O(n^3); beyond this size a seeded sampler is used.
EXHAUSTIVE_TRIPLE_LIMIT = 512


@dataclass(frozen=True)
class DiscreteSpace:
    """Finite quasimetric measure space.

    Parameters
    ----------
    dist : (n, n) array
        Nonnegative distance table, zero exactly on the diagonal.  Symmetry
        and the triangle inequality are *not* assumed; their defect is what
        ``geometry_constants`` estimates.
    mu : (n,) array
        Strictly positive measure weight per point.
    x0 : int
        Basepoint index used by all radial constructions.
    L : float
        Nominal diameter.  ``inf`` marks a truncated model of an unbounded
        space; then ``trunc_radius`` gives the radius actually represented.
    coords : (n,) array, optional
        Coordinate labels (used by coordinate kernels such as the Hilbert
        kernel); purely informational otherwise.
    """

    dist: np.ndarray
    mu: np.ndarray
    x0: int = 0
    L: float = np.inf
    trunc_radius: Optional[float] = None
    coords: Optional[np.ndarray] = None
    labels: Optional[Sequence[str]] = None

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "mu", mu)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        n = dist.shape[0]
        if dist.ndim != 2 or dist.shape != (n, n):
            raise ValidationError("distance table must be square")
        if mu.shape != (n,):
            raise ValidationError("mu must have one weight per point")
        if not np.all(np.isfinite(dist)) or np.any(dist < 0):
            raise ValidationError("distances must be finite and nonnegative")
        if np.any(np.diag(dist) != 0.0):
            raise ValidationError("dist(x, x) must be 0")
        # with a zero diagonal and no negative entry, only the diagonal may be 0
        if dist.size - np.count_nonzero(dist) != n:
            raise ValidationError("dist(x, y) = 0 with x != y violates separation")
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ValidationError("point weights must be positive and finite")
        if not (0 <= self.x0 < n):
            raise DomainError(f"basepoint {self.x0} out of range for {n} points")
        if np.isinf(self.L) and self.trunc_radius is None:
            raise ValidationError("infinite-diameter model requires trunc_radius")

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def total_measure(self) -> float:
        return float(self.mu.sum())

    @property
    def infinite_diameter(self) -> bool:
        return bool(np.isinf(self.L))

    @property
    def L_eff(self) -> float:
        """Radius of the represented domain: L when finite, else trunc_radius."""
        return float(self.trunc_radius) if self.infinite_diameter else float(self.L)

    @cached_property
    def _basepoint_row(self):
        """The basepoint's row, sorted once: its order and ball measures."""
        row = next(_sorted_row_blocks(self, self.x0, self.x0 + 1))
        order, measures = row.order[0], row.open_measure()[0]
        order.flags.writeable = measures.flags.writeable = False
        return order, measures

    @cached_property
    def radial_order(self) -> np.ndarray:
        """Point ids in stable ascending order of d0 (read-only): the order
        behind the radial regions {d0 <= t} and {t < d0}."""
        return self._basepoint_row[0]

    @cached_property
    def muB0(self) -> np.ndarray:
        """Open-ball measures mu B(x0, d0(x)) per point, 0 at the basepoint
        (read-only)."""
        return self._basepoint_row[1]

    @cached_property
    def _geometry_sweeps(self) -> dict:
        """Results of the doubling/Ahlfors row sweep by (A, q), kept on first
        use: ``geometry_constants`` and the distance-potential functionals
        ask for the same sweep.  Each result is a tuple of floats and tuples."""
        return {}

    def d_from(self, center: int) -> np.ndarray:
        if not (0 <= center < self.n):
            raise DomainError(f"point id {center} out of range")
        return self.dist[center]

    @property
    def d0(self) -> np.ndarray:
        """Distances from the basepoint."""
        return self.dist[self.x0]

    def radial_distances(self) -> np.ndarray:
        """Distances from the basepoint with the zero at the basepoint floored
        to half the nearest-neighbor distance.

        Radial profiles (and their negative powers) are evaluated through
        this vector: the basepoint atom represents a cell of that size, so
        flooring is the quadrature of the improper integral rather than an
        ad-hoc regularization.
        """
        d0 = self.d0.copy()
        pos = d0[d0 > 0]
        if pos.size:
            d0[d0 == 0] = 0.5 * pos.min()
        return d0


@dataclass(frozen=True)
class BallView:
    """Membership and measure of one ball B(center, radius)."""

    center: int
    radius: float
    closed: bool
    members: np.ndarray
    measure: float


def ball(space: DiscreteSpace, center: int, radius: float, closed: bool = False) -> BallView:
    """Ball around ``center``: {y : d(center, y) < radius}, ``<=`` if closed.

    Radius 0 with an open ball is empty (the center itself is at distance 0,
    which is not ``< 0``).
    """
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    d = space.d_from(center)
    mask = d <= radius if closed else d < radius
    members = np.flatnonzero(mask)
    return BallView(center, float(radius), closed, members, float(space.mu[mask].sum()))


@dataclass
class GeometryReport:
    a0: float
    a1: float
    doubling_c: float
    rdc_A: float
    rdc_B: float
    ahlfors_upper_c1: float
    ahlfors_lower_c2: float
    ahlfors_exponent: float
    annuli_nonempty: bool
    a0_pair: tuple = ()
    a1_triple: tuple = ()
    doubling_witness: tuple = ()
    rdc_witness: tuple = ()


# rows sorted together: a block holds a few (block, n) arrays, never an
# (n, n) one
_BLOCK_ROWS = 64


class _SortedRows(NamedTuple):
    """A block of distance rows, each sorted once.

    start  : id of the block's first row
    order  : (b, n) stable ascending order of each row
    ds     : (b, n) the sorted distances
    prefix : (b, n + 1) mu summed over the first k points of that order
    ends   : (b, n) True at the last sorted position of each tie group
    """

    start: int
    order: np.ndarray
    ds: np.ndarray
    prefix: np.ndarray
    ends: np.ndarray

    def open_measure(self) -> np.ndarray:
        """(b, n) mu B(x, d(x, y)), the open ball, per row in column order y."""
        b, n = self.ds.shape
        starts = np.ones((b, n), dtype=bool)
        starts[:, 1:] = self.ends[:, :-1]
        # an open ball at a distance holds everything before its tie group
        group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
        out = np.empty((b, n))
        np.put_along_axis(out, self.order,
                          np.take_along_axis(self.prefix, group_start, axis=1), axis=1)
        return out


def _sorted_row_blocks(space: DiscreteSpace, first: int = 0, stop: Optional[int] = None):
    """Rows ``first`` up to ``stop`` (default: all) of the distance table in
    blocks of ``_BLOCK_ROWS``, each row sorted once."""
    n = space.n
    stop = n if stop is None else stop
    for start in range(first, stop, _BLOCK_ROWS):
        d = space.dist[start:min(start + _BLOCK_ROWS, stop)]
        order = np.argsort(d, axis=1, kind="stable")
        ds = np.take_along_axis(d, order, axis=1)
        prefix = np.zeros((d.shape[0], n + 1))
        np.cumsum(space.mu[order], axis=1, out=prefix[:, 1:])
        ends = np.ones(ds.shape, dtype=bool)
        np.not_equal(ds[:, 1:], ds[:, :-1], out=ends[:, :-1])
        yield _SortedRows(start, order, ds, prefix, ends)


def _a0(space: DiscreteSpace):
    """Quasi-symmetry constant sup d(x, y) / d(y, x) and its first attaining
    pair in row-major order, one block of rows at a time."""
    d = space.dist
    a0, a0_pair = -np.inf, (0, 0)
    for start in range(0, space.n, _BLOCK_ROWS):
        with np.errstate(divide="ignore", invalid="ignore"):
            # the column block is copied first: reading it transposed in
            # place strides across the whole table
            ratios = (d[start:start + _BLOCK_ROWS]
                      / np.ascontiguousarray(d[:, start:start + _BLOCK_ROWS]).T)
        ratios[~np.isfinite(ratios)] = 0.0
        j = int(ratios.argmax())
        if ratios.flat[j] > a0:
            a0 = float(ratios.flat[j])
            a0_pair = (start + j // space.n, j % space.n)
    return a0, a0_pair


def _a1(space: DiscreteSpace, seed: int = 0, sample_triples: int = 10**6):
    """Quasi-triangle constant sup d(x, y) / (d(x, z) + d(z, y)) and its
    attaining triple: exhaustive up to ``EXHAUSTIVE_TRIPLE_LIMIT`` points,
    over the first ``sample_triples`` seeded random triples beyond."""
    d = space.dist
    n = space.n
    a1 = 0.0
    a1_triple = (0, 0, 0)
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        hops = np.empty((n, n))
        two_hop = np.empty(n)
        for x in range(n):
            np.add(d[x][:, None], d, out=hops)
            hops.min(axis=0, out=two_hop)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(two_hop > 0, d[x] / two_hop, 0.0)
            y = int(r.argmax())
            if r[y] > a1:
                z = int(np.argmin(d[x] + d[:, y]))
                a1, a1_triple = float(r[y]), (x, y, z)
    else:
        flat = d.ravel()
        rng = np.random.default_rng(seed)
        remaining = sample_triples
        chunk = 200_000
        while remaining > 0:
            m = min(chunk, remaining)
            xs, ys, zs = (rng.integers(0, n, m) for _ in range(3))
            denom = np.take(flat, xs * n + zs) + np.take(flat, zs * n + ys)
            r = np.divide(np.take(flat, xs * n + ys), denom, out=np.full(m, -np.inf),
                          where=denom > 0)
            j = int(r.argmax())
            if r[j] > a1:
                a1, a1_triple = float(r[j]), (int(xs[j]), int(ys[j]), int(zs[j]))
            remaining -= m
    return a1, a1_triple


# distance tables carry float noise (twice a stored distance need not equal
# the stored double); radius comparisons absorb it with a relative jitter
_RADIUS_JITTER = 1e-9


def _jittered_measures(ds: np.ndarray, prefix: np.ndarray, at: np.ndarray,
                       side: str) -> np.ndarray:
    """Ball measures at the radii ``ds`` of the positions ``at``, jittered:
    the closed ball B[x, r (1 + jitter)] at the tie groups' ends ("right"),
    the open ball B(x, r (1 - jitter)) at their starts ("left").

    A ball ends at its tie group's bound unless near-ties within the jitter
    lie past it.  One near-tie is stepped over in the whole block at once;
    the rare positions with more are searched row by row.
    """
    more = np.zeros_like(at)
    if side == "right":
        t = ds * (1.0 + _RADIUS_JITTER)
        near = at[:, :-1] & (ds[:, 1:] <= t[:, :-1])
        if not near.any():
            return prefix[:, 1:]
        m = prefix[:, 1:].copy()
        m[:, :-1] = np.where(near, prefix[:, 2:], m[:, :-1])
        more[:, :-2] = near[:, :-1] & (ds[:, 2:] <= t[:, :-2])
    else:
        t = ds * (1.0 - _RADIUS_JITTER)
        near = at[:, 1:] & (ds[:, :-1] >= t[:, 1:])
        if not near.any():
            return prefix[:, :-1]
        m = prefix[:, :-1].copy()
        m[:, 1:] = np.where(near, prefix[:, :-2], m[:, 1:])
        more[:, 2:] = near[:, 1:] & (ds[:, :-2] >= t[:, 2:])
    for i in np.flatnonzero(more.any(axis=1)):
        k = np.flatnonzero(more[i])
        m[i, k] = prefix[i, np.searchsorted(ds[i], t[i, k], side=side)]
    return m


def _measures_at(ds: np.ndarray, prefix: np.ndarray, t: np.ndarray, side: str) -> np.ndarray:
    """``prefix[i, np.searchsorted(ds[i], t[i], side)]`` for each row ``i``."""
    out = np.empty(t.shape)
    for i in range(ds.shape[0]):
        prefix[i].take(np.searchsorted(ds[i], t[i], side=side), out=out[i])
    return out


def _first_max(block: np.ndarray, last: np.ndarray):
    """Value, row and column of the first maximum, in row-major order, of
    ``block`` with ``last`` appended as one more column."""
    row_max = block.max(axis=1)
    i = int(np.maximum(row_max, last).argmax())
    if row_max[i] >= last[i]:
        k = int(block[i].argmax())
        return block[i, k], i, k
    return last[i], i, block.shape[1]


def _geometry_sweep(space: DiscreteSpace, A: float, q: float):
    """Doubling, reverse doubling, Ahlfors regularity and the annulus test in
    one pass over the sorted row blocks: returns the tuples of
    ``doubling_reverse_doubling`` and ``ahlfors_regularity`` and whether no
    annulus is empty.

    The swept radii of a center are its distinct positive distances.  Closed
    balls are read at the last position of each tie group, open balls at the
    first, and each estimate is evaluated where its balls are read.  Each
    keeps the witness of the first center and then the first radius that
    attains it, as a loop over the centers in order would.  The result is
    kept on the space, so a second call with the same (A, q) reads it back.
    """
    if A <= 1:
        raise DomainError("reverse-doubling factor must exceed 1")
    if q <= 0:
        raise DomainError("Ahlfors exponent must be positive")
    if (A, q) in space._geometry_sweeps:
        return space._geometry_sweeps[A, q]
    n = space.n
    L = space.L_eff
    cap = L / A
    doubling_c, rdc_B, c1, c2 = 0.0, np.inf, 0.0, np.inf
    dbl_wit, rdc_wit, w1, w2 = (), (), (), ()
    annuli = True
    for blk in _sorted_row_blocks(space):
        ds, prefix, ends, start = blk.ds, blk.prefix, blk.ends, blk.start
        positive = ds > 0

        # doubling over closed balls B[x, r], B[x, 2r], at the tie groups' ends
        swept = ends & positive
        m_r = _jittered_measures(ds, prefix, swept, "right")
        m_2r = _measures_at(ds, prefix, 2.0 * ds * (1.0 + _RADIUS_JITTER), "right")
        ratios = np.divide(m_2r, m_r, out=np.full(ds.shape, -np.inf), where=swept)
        j = int(ratios.argmax())
        if ratios.flat[j] > doubling_c:
            doubling_c, dbl_wit = float(ratios.flat[j]), (start + j // n, float(ds.flat[j]))

        # reverse doubling over open balls B(x, r), B(x, A r) for r <= L_eff / A,
        # at the tie groups' starts
        swept = positive.copy()
        swept[:, 1:] &= ends[:, :-1]
        m_open = _jittered_measures(ds, prefix, swept, "left")
        m_A = _measures_at(ds, prefix, A * ds * (1.0 - _RADIUS_JITTER), "left")
        ratios = np.divide(m_A, m_open, out=np.full(ds.shape, np.inf),
                           where=swept & (ds <= cap))
        j = int(ratios.argmin())
        if ratios.flat[j] < rdc_B:
            rdc_B, rdc_wit = float(ratios.flat[j]), (start + j // n, float(ds.flat[j]))

        # Ahlfors over the same open balls, each row followed by one ball past
        # its largest distance (the whole space)
        whole = ds[:, -1] * (1.0 + 1e-6)
        m_whole = prefix[np.arange(ds.shape[0]),
                         (ds < (whole * (1.0 - _RADIUS_JITTER))[:, None]).sum(axis=1)]
        ok_whole = swept.any(axis=1)
        ratios = np.divide(m_open, ds**q, out=np.full(ds.shape, -np.inf), where=swept)
        ratios_whole = np.divide(m_whole, whole**q, out=np.full(whole.shape, -np.inf),
                                 where=ok_whole)
        value, i, k = _first_max(ratios, ratios_whole)
        if value > c1:
            c1, w1 = float(value), (start + i, float(ds[i, k] if k < n else whole[i]))
        ratios[~(swept & (ds <= L))] = np.inf
        ratios_whole[~(ok_whole & (whole <= L))] = np.inf
        value, i, k = _first_max(-ratios, -ratios_whole)
        if -value < c2:
            c2, w2 = float(-value), (start + i, float(ds[i, k] if k < n else whole[i]))

        # an empty annulus [r, A r) is a jump by more than A between
        # consecutive distinct distances of one center within (0, L_eff]
        if annuli:
            annuli = not np.any(swept[:, 1:] & positive[:, :-1] & (ds[:, 1:] <= L)
                                & (ds[:, 1:] > A * ds[:, :-1] * (1 + 1e-12)))
    result = (doubling_c, rdc_B, dbl_wit, rdc_wit), (c1, c2, w1, w2), annuli
    space._geometry_sweeps[A, q] = result
    return result


def doubling_reverse_doubling(space: DiscreteSpace, A_candidate: float = 2.0):
    """Doubling sup and reverse-doubling inf over the distinct-distance sweep.

    ``doubling_c = sup mu B(x, 2r) / mu B(x, r)`` with closed balls (the
    quadrature reading of the continuum ball; open balls at atom scale would
    inflate the sup by pure atom effects);
    ``rdc_B = inf mu B(x, A r) / mu B(x, r)`` with open balls over radii
    ``r <= L_eff / A`` (open balls keep the swept annulus nonempty, closed
    ones collapse it at the boundary radii).
    Every swept ball holds its center, so no ratio divides by 0.
    """
    doubling, _, _ = _geometry_sweep(space, A_candidate, 1.0)
    if space.n < 2:
        raise DomainError("need at least 2 points for doubling estimates")
    return doubling


def ahlfors_regularity(space: DiscreteSpace, exponent_q: float = 1.0):
    """Upper/lower Ahlfors constants over open balls at the distinct
    distances (plus the whole-space ball): c1 = sup mu B(x,r)/r^q,
    c2 = inf of the same ratio restricted to r <= L_eff."""
    _, ahlfors, _ = _geometry_sweep(space, 2.0, exponent_q)
    return ahlfors


def geometry_constants(space: DiscreteSpace, A: float = 2.0, ahlfors_exponent: float = 1.0,
                       seed: int = 0, sample_triples: int = 10**6) -> GeometryReport:
    """Estimate all geometric constants of the space in one report."""
    if space.n < 2:
        raise DomainError("need at least 2 points")
    a0, a0_pair = _a0(space)
    a1, a1_triple = _a1(space, seed, sample_triples)
    doubling, ahlfors, annuli_nonempty = _geometry_sweep(space, A, ahlfors_exponent)
    doubling_c, rdc_B, dbl_wit, rdc_wit = doubling
    c1, c2, _, _ = ahlfors
    return GeometryReport(
        a0=a0, a1=a1, doubling_c=doubling_c, rdc_A=A, rdc_B=rdc_B,
        ahlfors_upper_c1=c1, ahlfors_lower_c2=c2, ahlfors_exponent=ahlfors_exponent,
        annuli_nonempty=annuli_nonempty,
        a0_pair=a0_pair, a1_triple=a1_triple,
        doubling_witness=dbl_wit, rdc_witness=rdc_wit,
    )


@dataclass(frozen=True)
class RadialPartition:
    """The three-way radial cover around the basepoint at scale index k, plus
    the dyadic shell between radii A^k R and A^{k+1} R.

    inner   : points with d0 <  A^{k-1} R / a1
    middle  : points with A^{k-1} R / a1 <= d0 <= A^{k+2} R a1
    outer   : points with d0 >= A^{k+2} R a1
    shell   : points with A^k R < d0 <= A^{k+1} R

    inner | middle | outer covers the space exactly; shells are pairwise
    disjoint across k and cover every point with 0 < d0 <= R.
    """

    k: int
    inner: np.ndarray
    middle: np.ndarray
    outer: np.ndarray
    shell: np.ndarray
    collapsed: bool


def radial_partition(space: DiscreteSpace, A: float, k: int, a1: float = 1.0) -> RadialPartition:
    """Radial cover and dyadic shell at scale index ``k``.

    ``A`` must exceed 1 (the reverse-doubling factor); ``a1`` is the
    quasi-triangle constant (pass the estimate from ``geometry_constants``,
    or 1 for a metric space).

    The shell is taken half-open, ``(A^k R, A^{k+1} R]``: on a discrete space
    this makes shells exactly disjoint while changing each by a boundary
    sphere only.
    """
    if A <= 1:
        raise DomainError("scale factor A must exceed 1")
    if a1 <= 0:
        raise DomainError("quasi-triangle constant must be positive")
    R = 1.0 if space.infinite_diameter else space.L_eff
    d0 = space.d0
    r_in = A ** (k - 1) * R / a1
    r_out = A ** (k + 2) * R * a1
    inner = d0 < r_in
    outer = d0 >= r_out
    middle = (d0 >= r_in) & (d0 <= r_out)
    shell = (d0 > A**k * R) & (d0 <= A ** (k + 1) * R)
    collapsed = (not middle.any()) or inner.all() or outer.all()
    idx = np.flatnonzero
    return RadialPartition(k, idx(inner), idx(middle), idx(outer), idx(shell), collapsed)


def comparison_annulus(space: DiscreteSpace, x: int, A: float, a1: float = 1.0,
                       use_l_factor: bool = False):
    """Annulus of points comparable in basepoint-distance to ``x``:
    {y : d0(x) / (A^2 a1) <= d0(y) <= A^2 a1 d0(x)}.

    ``use_l_factor=True`` multiplies both bounds by L_eff (the alternative
    finite-diameter scaling; with L = 1 the two coincide).  Returns
    ``(member indices, degenerate)`` where degenerate flags x at the
    basepoint (the annulus collapses to the zero-distance set).
    """
    if A <= 1:
        raise DomainError("scale factor A must exceed 1")
    dx = float(space.d0[x] if 0 <= x < space.n else -1.0)
    if dx < 0:
        raise DomainError(f"point id {x} out of range")
    scale = space.L_eff if use_l_factor else 1.0
    lo = dx * scale / (A**2 * a1)
    hi = A**2 * a1 * scale * dx
    members = np.flatnonzero((space.d0 >= lo) & (space.d0 <= hi))
    return members, dx == 0.0


# ---------------------------------------------------------------------------
# generators


def _line_distances(coords: np.ndarray) -> np.ndarray:
    """|coords[x] - coords[y]| as one (n, n) table, built in place."""
    dist = np.subtract.outer(coords, coords)
    return np.abs(dist, out=dist)


def uniform_grid(n: int) -> DiscreteSpace:
    """Uniform n-point grid on [0, 1] (both endpoints included) with equal
    weights 1/n."""
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    coords = np.linspace(0.0, 1.0, n)
    dist = _line_distances(coords)
    return DiscreteSpace(dist=dist, mu=np.full(n, 1.0 / n), x0=0, L=1.0, coords=coords)


def cantor_space(depth: int) -> DiscreteSpace:
    """Middle-thirds Cantor approximation: left endpoints of the 2^depth
    surviving intervals, each carrying weight 2^-depth."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    bits = (np.arange(2**depth)[:, None] >> np.arange(depth)) & 1
    coords = np.sort((2.0 * bits / 3.0 ** (np.arange(depth) + 1)).sum(axis=1))
    dist = _line_distances(coords)
    mu = np.full(coords.size, 2.0 ** (-depth))
    return DiscreteSpace(dist=dist, mu=mu, x0=0, L=1.0, coords=coords)


def explicit_space(dist, mu, x0: int = 0, L: float = np.inf,
                   trunc_radius: Optional[float] = None, coords=None) -> DiscreteSpace:
    dist = np.asarray(dist, dtype=float)
    if np.isinf(L) and trunc_radius is None and dist.size:
        trunc_radius = float(dist.max())
    return DiscreteSpace(dist=dist, mu=np.asarray(mu, dtype=float), x0=x0, L=L,
                         trunc_radius=trunc_radius, coords=coords)


def space_from_spec(spec: dict) -> DiscreteSpace:
    """Build a space from its structured description.

    Generators: ``{"generator": "uniform-grid", "n": 64}`` or
    ``{"generator": "cantor", "depth": 6}``.  Explicit form:
    ``{"points": [{"id": 0, "coord": 0.0}, ...], "metric": "euclidean1d" |
    "explicit", "dist": row-major table, "mu": [...] | "lebesgue-grid",
    "x0": id, "L": number | "inf", "trunc_radius": number}``.
    """
    if not isinstance(spec, dict):
        raise ValidationError("space spec must be a mapping")
    gen = spec.get("generator")
    if gen is not None:
        if gen in ("uniform-grid", "uniform_grid"):
            if "n" not in spec:
                raise ValidationError("space.n: required for uniform-grid")
            return uniform_grid(int(spec["n"]))
        if gen == "cantor":
            if "depth" not in spec:
                raise ValidationError("space.depth: required for cantor")
            return cantor_space(int(spec["depth"]))
        raise ValidationError(f"space.generator: unknown generator {gen!r}")

    points = spec.get("points")
    if points is None:
        raise ValidationError("space.points: required for explicit spaces")
    n = len(points)
    ids = [p.get("id", i) for i, p in enumerate(points)]
    coords = None
    if any("coord" in p for p in points):
        coords = np.array([float(p["coord"]) for p in points])
    metric = spec.get("metric", "explicit")
    if metric == "euclidean1d":
        if coords is None:
            raise ValidationError("space.points: euclidean1d metric needs coords")
        dist = _line_distances(coords)
    elif metric == "explicit":
        if "dist" not in spec:
            raise ValidationError("space.dist: required for explicit metric")
        dist = np.asarray(spec["dist"], dtype=float).reshape(n, n)
    else:
        raise ValidationError(f"space.metric: unknown metric {metric!r}")
    mu_spec = spec.get("mu", "lebesgue-grid")
    if isinstance(mu_spec, str):
        if mu_spec != "lebesgue-grid":
            raise ValidationError(f"space.mu: unknown rule {mu_spec!r}")
        mu = np.full(n, 1.0 / n)
    else:
        mu = np.asarray(mu_spec, dtype=float)
    x0_id = spec.get("x0", ids[0])
    try:
        x0 = ids.index(x0_id)
    except ValueError:
        raise ValidationError(f"space.x0: id {x0_id!r} not among points") from None
    L_spec = spec.get("L", "inf")
    L = np.inf if L_spec == "inf" else float(L_spec)
    trunc = spec.get("trunc_radius")
    if np.isinf(L) and trunc is None:
        trunc = float(dist.max())
    return DiscreteSpace(dist=dist, mu=mu, x0=x0, L=L,
                         trunc_radius=None if trunc is None else float(trunc),
                         coords=coords, labels=[str(i) for i in ids])
