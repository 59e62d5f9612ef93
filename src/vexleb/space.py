"""Discretized quasimetric measure spaces and their geometric constants.

A space is a finite point set with a (possibly asymmetric) distance and a
positive weight per point.  A table-backed space stores its distances as an
(n, n) table ``dist``; a line space (``uniform_grid``, ``cantor_space``, a
``euclidean1d`` spec) stores only its coordinates and computes
d(x, y) = |coords[x] - coords[y]| a block of rows at a time, so it holds no
(n, n) array.  Every distance read goes through ``DiscreteSpace.rows`` (a
block of rows), ``cols`` (a transposed block of columns) or ``pairs`` (a
gather of single entries), which slice the table or compute from the
coordinates with the same float operation per entry, so both kinds give the
same values bit for bit.

Every geometric query here is a pure read: balls, annuli, and estimates of
the quasi-triangle, doubling, reverse-doubling and Ahlfors-regularity
constants.  Constants are reported as estimates together with the attaining
configuration, never as booleans: at a fixed resolution only the estimate is
observable, finiteness is a refinement trend.  The exception is exact: on a
line space |x - y| is a metric, so the asymmetry and quasi-triangle
constants are a0 = a1 = 1 and are not searched; on a table they are
searched, exhaustively or over seeded triples.

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
from numbers import Integral, Real
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "DiscreteSpace",
    "BallView",
    "GeometryReport",
    "ball",
    "geometry_constants",
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
    dist : (n, n) array or None
        Nonnegative distance table, zero exactly on the diagonal.  Symmetry
        and the triangle inequality are *not* assumed; their defect is what
        ``geometry_constants`` estimates.  ``None`` makes a line space:
        d(x, y) = |coords[x] - coords[y]|, computed on each read.
    mu : (n,) array
        Strictly positive measure weight per point.
    x0 : int
        Basepoint index used by all radial constructions.
    L : float
        Nominal diameter.  ``inf`` marks a truncated model of an unbounded
        space; then ``trunc_radius`` gives the radius actually represented.
    coords : (n,) array, optional
        Coordinates of a line space (finite and distinct); with a table,
        coordinate labels read only by coordinate kernels such as the
        Hilbert kernel.
    """

    dist: Optional[np.ndarray]
    mu: np.ndarray
    x0: int = 0
    L: float = np.inf
    trunc_radius: Optional[float] = None
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if self.dist is None:
            n = self._check_coords()
        else:
            n = self._check_table()
        if mu.shape != (n,):
            raise ValidationError("mu must have one weight per point")
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ValidationError("point weights must be positive and finite")
        if not (0 <= self.x0 < n):
            raise DomainError(f"basepoint {self.x0} out of range for {n} points")
        if np.isinf(self.L) and self.trunc_radius is None:
            raise ValidationError("infinite-diameter model requires trunc_radius")

    def _check_coords(self) -> int:
        """Size of a line space whose coordinates are finite and distinct."""
        c = self.coords
        if c is None:
            raise ValidationError("a space needs a distance table or coordinates")
        if c.ndim != 1:
            raise ValidationError("coordinates must form one vector")
        s = np.sort(c)
        # the largest distance is finite only if every distance is
        with np.errstate(over="ignore", invalid="ignore"):
            span = s[-1] - s[0] if c.size else 0.0
        if not np.isfinite(span):
            raise ValidationError("distances must be finite and nonnegative")
        if np.any(s[1:] == s[:-1]):
            raise ValidationError("dist(x, y) = 0 with x != y violates separation")
        return c.size

    def _check_table(self) -> int:
        dist = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", dist)
        n = dist.shape[0]
        if dist.ndim != 2 or dist.shape != (n, n):
            raise ValidationError("distance table must be square")
        if not np.all(np.isfinite(dist)) or np.any(dist < 0):
            raise ValidationError("distances must be finite and nonnegative")
        if np.any(np.diag(dist) != 0.0):
            raise ValidationError("dist(x, x) must be 0")
        # with a zero diagonal and no negative entry, only the diagonal may be 0
        if dist.size - np.count_nonzero(dist) != n:
            raise ValidationError("dist(x, y) = 0 with x != y violates separation")
        return n

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The (stop - start, n) block of d(x, y) for x in start:stop: a view
        of the table (not to be written), or computed from the coordinates."""
        if self.dist is not None:
            return self.dist[start:stop]
        block = np.subtract.outer(self.coords[start:stop], self.coords)
        return np.abs(block, out=block)

    def cols(self, start: int, stop: int) -> np.ndarray:
        """The (stop - start, n) block of d(y, x) for x in start:stop, the
        transposed column block.  On the line it is the row block: x - y and
        y - x round to the same magnitude."""
        if self.dist is None:
            return self.rows(start, stop)
        # copied first: read transposed in place, it strides across the table
        return np.ascontiguousarray(self.dist[:, start:stop]).T

    def pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """d(xs[i], ys[i]) for each i."""
        if self.dist is None:
            return np.abs(self.coords[xs] - self.coords[ys])
        return self.dist[xs, ys]

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
    def _sup_memo(self) -> dict:
        """The sup-functional reports evaluated on this space, keyed on the
        bytes each evaluation read (see ``conditions._sup_functional``)."""
        return {}

    def d_from(self, center: int) -> np.ndarray:
        if not (0 <= center < self.n):
            raise DomainError(f"point id {center} out of range")
        return self.rows(center, center + 1)[0]

    @cached_property
    def d0(self) -> np.ndarray:
        """Distances from the basepoint (read-only)."""
        d0 = self.rows(self.x0, self.x0 + 1)[0]
        d0.flags.writeable = False
        return d0

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
    ahlfors_upper_witness: tuple = ()
    ahlfors_lower_witness: tuple = ()


# rows sorted together: a block holds a few (block, n) arrays, never an
# (n, n) one
_BLOCK_ROWS = 64


class _SortedRows(NamedTuple):
    """A block of distance rows, each sorted once.

    start  : id of the block's first row
    d      : (b, n) the rows as read, unsorted
    order  : (b, n) stable ascending order of each row
    ds     : (b, n) the sorted distances
    prefix : (b, n + 1) mu summed over the first k points of that order
    ends   : (b, n) True at the last sorted position of each tie group
    """

    start: int
    d: np.ndarray
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


def _distinct(values) -> np.ndarray:
    """The sorted distinct entries of NaN-free ``values``, flattened: what
    ``np.unique`` returns, by its own sort-and-compare, without the
    ``numpy.ma`` import that ``np.unique`` makes on its first call."""
    s = np.sort(values, axis=None)
    keep = np.ones(s.shape, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _row_blocks(space: DiscreteSpace, first: int = 0, stop: Optional[int] = None):
    """(start, rows) for the distance rows ``first`` up to ``stop`` (default:
    all) in blocks of ``_BLOCK_ROWS``."""
    stop = space.n if stop is None else stop
    for start in range(first, stop, _BLOCK_ROWS):
        yield start, space.rows(start, min(start + _BLOCK_ROWS, stop))


def _sorted_row_blocks(space: DiscreteSpace, first: int = 0, stop: Optional[int] = None):
    """Distance rows ``first`` up to ``stop`` (default: all) in blocks of
    ``_BLOCK_ROWS``, each row sorted once."""
    n = space.n
    for start, d in _row_blocks(space, first, stop):
        order = np.argsort(d, axis=1, kind="stable")
        ds = np.take_along_axis(d, order, axis=1)
        prefix = np.zeros((d.shape[0], n + 1))
        np.cumsum(space.mu[order], axis=1, out=prefix[:, 1:])
        ends = np.ones(ds.shape, dtype=bool)
        np.not_equal(ds[:, 1:], ds[:, :-1], out=ends[:, :-1])
        yield _SortedRows(start, d, order, ds, prefix, ends)


def _a0(space: DiscreteSpace):
    """Quasi-symmetry constant sup d(x, y) / d(y, x) and its first attaining
    pair in row-major order, one block of rows at a time.  A ratio that
    overflows is an infinite a0; only the diagonal's 0 / 0 is masked."""
    a0, a0_pair = -np.inf, (0, 0)
    for start, d in _row_blocks(space):
        with np.errstate(invalid="ignore", over="ignore"):
            ratios = d / space.cols(start, start + len(d))
        ratios[np.isnan(ratios)] = 0.0
        j = int(ratios.argmax())
        if ratios.flat[j] > a0:
            a0 = float(ratios.flat[j])
            a0_pair = (start + j // space.n, j % space.n)
    return a0, a0_pair


def _a1(space: DiscreteSpace, seed: int = 0, sample_triples: int = 10**6):
    """Quasi-triangle constant sup d(x, y) / (d(x, z) + d(z, y)) and its
    attaining triple: exhaustive up to ``EXHAUSTIVE_TRIPLE_LIMIT`` points,
    over the first ``sample_triples`` seeded random triples beyond."""
    n = space.n
    a1 = 0.0
    a1_triple = (0, 0, 0)
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        d = space.rows(0, n)
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
        rng = np.random.default_rng(seed)
        remaining = sample_triples
        chunk = 200_000
        while remaining > 0:
            m = min(chunk, remaining)
            xs, ys, zs = (rng.integers(0, n, m) for _ in range(3))
            denom = space.pairs(xs, zs) + space.pairs(zs, ys)
            r = np.divide(space.pairs(xs, ys), denom, out=np.full(m, -np.inf),
                          where=denom > 0)
            j = int(r.argmax())
            if r[j] > a1:
                a1, a1_triple = float(r[j]), (int(xs[j]), int(ys[j]), int(zs[j]))
            remaining -= m
    return a1, a1_triple


def _quasi_constants(space: DiscreteSpace, seed: int = 0, sample_triples: int = 10**6):
    """(a0, a0_pair, a1, a1_triple).  A line space's distance |x - y| is a
    metric, so a0 = a1 = 1 exactly, attained by the pair (0, 1) and the
    triple (0, 1, 0) since fl(0 + d) = d; a table is searched by ``_a0`` and
    ``_a1``."""
    if space.dist is None:
        return 1.0, (0, 1), 1.0, (0, 1, 0)
    return (*_a0(space), *_a1(space, seed, sample_triples))


# distance tables carry float noise (twice a stored distance need not equal
# the stored double); radius comparisons absorb it with a relative jitter
_RADIUS_JITTER = 1e-9


def _jittered_measures(ds: np.ndarray, prefix: np.ndarray, at: np.ndarray,
                       side: str, stop: int) -> np.ndarray:
    """Ball measures at the radii ``ds`` of the positions ``at`` among the
    first ``stop`` columns, jittered: the closed ball B[x, r (1 + jitter)]
    at the tie groups' ends ("right"), the open ball B(x, r (1 - jitter)) at
    their starts ("left").  A (b, stop) array, possibly a view of ``prefix``.

    A ball ends at its tie group's bound unless near-ties within the jitter
    lie past it.  One near-tie is stepped over in the whole block at once;
    the rare positions with more are searched row by row.
    """
    n = ds.shape[1]
    more = np.zeros_like(at[:, :stop])
    if side == "right":
        t = ds[:, :stop] * (1.0 + _RADIUS_JITTER)
        s1 = min(stop, n - 1)
        near = at[:, :s1] & (ds[:, 1:s1 + 1] <= t[:, :s1])
        if not near.any():
            return prefix[:, 1:stop + 1]
        m = prefix[:, 1:stop + 1].copy()
        m[:, :s1] = np.where(near, prefix[:, 2:s1 + 2], m[:, :s1])
        s2 = min(stop, n - 2)
        more[:, :s2] = near[:, :s2] & (ds[:, 2:s2 + 2] <= t[:, :s2])
    else:
        t = ds[:, :stop] * (1.0 - _RADIUS_JITTER)
        near = at[:, 1:stop] & (ds[:, :stop - 1] >= t[:, 1:])
        if not near.any():
            return prefix[:, :stop]
        m = prefix[:, :stop].copy()
        m[:, 1:] = np.where(near, prefix[:, :stop - 1], m[:, 1:])
        more[:, 2:] = near[:, 1:] & (ds[:, :stop - 2] >= t[:, 2:])
    for i in np.flatnonzero(more.any(axis=1)):
        k = np.flatnonzero(more[i])
        m[i, k] = prefix[i, np.searchsorted(ds[i], t[i, k], side=side)]
    return m


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
    one pass over the sorted row blocks: returns (doubling_c, rdc_B,
    doubling witness, rdc witness), (c1, c2, c1 witness, c2 witness) and
    whether no annulus is empty.

    The swept radii of a center are its distinct positive distances.  Closed
    balls are read at the last position of each tie group, open balls at the
    first, and each estimate is evaluated where its balls are read.  Each
    keeps the witness of the first center and then the first radius that
    attains it, as a loop over the centers in order would.

    The two ball searches of each row block read only the columns that can
    still change an estimate.  Doubling reads the first k_2 columns, where
    k_2 - 1 is the block's largest column holding a row's first closed
    radius r with 2r (1 + jitter) >= the row's largest distance: from there
    on B[x, 2r] is the whole space and B[x, r] only grows, so no later ratio
    of the row is larger, and a later tie never replaces the first maximum.
    Reverse doubling reads the positive distances r <= L_eff / A, a prefix
    of each sorted row, and nothing in a block where every such prefix is
    empty.  Values and witnesses are those of the full sweep, bit for bit.
    """
    if A <= 1:
        raise DomainError("reverse-doubling factor must exceed 1")
    if q <= 0:
        raise DomainError("Ahlfors exponent must be positive")
    n = space.n
    L = space.L_eff
    cap = L / A
    doubling_c, rdc_B, c1, c2 = 0.0, np.inf, 0.0, np.inf
    dbl_wit, rdc_wit, w1, w2 = (), (), (), ()
    annuli = True
    for blk in _sorted_row_blocks(space):
        ds, prefix, ends, start = blk.ds, blk.prefix, blk.ends, blk.start
        b = ds.shape[0]
        positive = ds > 0
        closed = ends & positive
        swept = positive.copy()
        swept[:, 1:] &= ends[:, :-1]
        small = ds <= cap

        # the columns the searches read (see above): doubling's first k_2,
        # reverse doubling's 1 to k_A - 1 (column 0 is the center)
        t_2 = 2.0 * ds * (1.0 + _RADIUS_JITTER)
        k_2 = int((closed & (t_2 >= ds[:, -1:])).argmax(axis=1).max()) + 1
        k_A = int(np.count_nonzero(small, axis=1).max())
        t_A = A * ds[:, 1:k_A] * (1.0 - _RADIUS_JITTER)
        dbl, rdc = np.empty((b, k_2)), np.empty(t_A.shape)
        for i in range(b):
            prefix[i].take(ds[i].searchsorted(t_2[i, :k_2], side="right"), out=dbl[i])
            prefix[i].take(ds[i].searchsorted(t_A[i], side="left"), out=rdc[i])

        # doubling over closed balls B[x, r], B[x, 2r], at the tie groups' ends:
        # mu B[x, 2r] / mu B[x, r] in place
        np.divide(dbl, _jittered_measures(ds, prefix, closed, "right", k_2), out=dbl)
        np.putmask(dbl, ~closed[:, :k_2], -np.inf)
        i, k = divmod(int(dbl.argmax()), k_2)
        if dbl[i, k] > doubling_c:
            doubling_c, dbl_wit = float(dbl[i, k]), (start + i, float(ds[i, k]))

        # reverse doubling over open balls B(x, r), B(x, A r) for r <= L_eff / A,
        # at the tie groups' starts: mu B(x, A r) / mu B(x, r) in place
        m_open = _jittered_measures(ds, prefix, swept, "left", n)
        if k_A > 1:
            np.divide(rdc, m_open[:, 1:k_A], out=rdc)
            np.putmask(rdc, ~(swept[:, 1:k_A] & small[:, 1:k_A]), np.inf)
            i, k = divmod(int(rdc.argmin()), k_A - 1)
            if rdc[i, k] < rdc_B:
                rdc_B, rdc_wit = float(rdc[i, k]), (start + i, float(ds[i, k + 1]))

        # Ahlfors over the same open balls, each row followed by one ball past
        # its largest distance (the whole space)
        # its open ball holds every point unless the jittered radius does not
        # pass the largest distance (0, or subnormal); only those rows count
        whole = ds[:, -1] * (1.0 + 1e-6)
        bound = whole * (1.0 - _RADIUS_JITTER)
        inside = np.full(b, n)
        few = np.flatnonzero(bound <= ds[:, -1])
        inside[few] = (ds[few] < bound[few, None]).sum(axis=1)
        m_whole = prefix[np.arange(b), inside]
        ok_whole = swept.any(axis=1)
        ratios = ds**q
        # column 0 divides the empty ball at the center by 0; it is masked
        with np.errstate(invalid="ignore"):
            np.divide(m_open, ratios, out=ratios)
        np.putmask(ratios, ~swept, -np.inf)
        ratios_whole = np.divide(m_whole, whole**q, out=np.full(whole.shape, -np.inf),
                                 where=ok_whole)
        value, i, k = _first_max(ratios, ratios_whole)
        if value > c1:
            c1, w1 = float(value), (start + i, float(ds[i, k] if k < n else whole[i]))
        np.putmask(ratios, ~(swept & (ds <= L)), np.inf)
        ratios_whole[~(ok_whole & (whole <= L))] = np.inf
        value, i, k = _first_max(np.negative(ratios, out=ratios), -ratios_whole)
        if -value < c2:
            c2, w2 = float(-value), (start + i, float(ds[i, k] if k < n else whole[i]))

        # an empty annulus [r, A r) is a jump by more than A between
        # consecutive distinct distances of one center within (0, L_eff]
        if annuli:
            annuli = not np.any(swept[:, 1:] & positive[:, :-1] & (ds[:, 1:] <= L)
                                & (ds[:, 1:] > A * ds[:, :-1] * (1 + 1e-12)))
    return (doubling_c, rdc_B, dbl_wit, rdc_wit), (c1, c2, w1, w2), annuli


def geometry_constants(space: DiscreteSpace, A: float = 2.0, ahlfors_exponent: float = 1.0,
                       seed: int = 0, sample_triples: int = 10**6) -> GeometryReport:
    """Estimate all geometric constants of the space in one report.

    ``doubling_c = sup mu B[x, 2r] / mu B[x, r]`` over closed balls,
    ``rdc_B = inf mu B(x, A r) / mu B(x, r)`` over open balls with
    r <= L_eff / A, and the Ahlfors c1 = sup, c2 = inf of mu B(x, r) / r^q
    over open balls and the whole space, c2 only for r <= L_eff (the module
    docstring gives each reading's reason).  Every swept ball holds its
    center, so no ratio divides by 0.  Each witness is the first
    (center, radius) attaining its estimate.

    A line space reports a0 = a1 = 1 exactly, the values of its metric; a
    table-backed space has them searched, and only there do ``seed`` and
    ``sample_triples`` apply (to the triple sampler past
    ``EXHAUSTIVE_TRIPLE_LIMIT`` points)."""
    if space.n < 2:
        raise DomainError("need at least 2 points")
    a0, a0_pair, a1, a1_triple = _quasi_constants(space, seed, sample_triples)
    doubling, ahlfors, annuli_nonempty = _geometry_sweep(space, A, ahlfors_exponent)
    doubling_c, rdc_B, dbl_wit, rdc_wit = doubling
    c1, c2, w1, w2 = ahlfors
    return GeometryReport(
        a0=a0, a1=a1, doubling_c=doubling_c, rdc_A=A, rdc_B=rdc_B,
        ahlfors_upper_c1=c1, ahlfors_lower_c2=c2, ahlfors_exponent=ahlfors_exponent,
        annuli_nonempty=annuli_nonempty,
        a0_pair=a0_pair, a1_triple=a1_triple,
        doubling_witness=dbl_wit, rdc_witness=rdc_wit,
        ahlfors_upper_witness=w1, ahlfors_lower_witness=w2,
    )


def comparison_annulus(space: DiscreteSpace, x: int, A: float, a1: float = 1.0):
    """Annulus of points comparable in basepoint-distance to ``x``:
    {y : d0(x) / (A^2 a1) <= d0(y) <= A^2 a1 d0(x)}.

    Returns ``(member indices, degenerate)`` where degenerate flags x at the
    basepoint (the annulus collapses to the zero-distance set).
    """
    if A <= 1:
        raise DomainError("scale factor A must exceed 1")
    if a1 <= 0:
        raise DomainError("quasi-triangle constant must be positive")
    dx = float(space.d0[x] if 0 <= x < space.n else -1.0)
    if dx < 0:
        raise DomainError(f"point id {x} out of range")
    lo = dx / (A**2 * a1)
    hi = A**2 * a1 * dx
    members = np.flatnonzero((space.d0 >= lo) & (space.d0 <= hi))
    return members, dx == 0.0


# ---------------------------------------------------------------------------
# generators


def uniform_grid(n: int) -> DiscreteSpace:
    """Uniform n-point grid on [0, 1] (both endpoints included) with equal
    weights 1/n."""
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    return DiscreteSpace(dist=None, mu=np.full(n, 1.0 / n), x0=0, L=1.0,
                         coords=np.linspace(0.0, 1.0, n))


def cantor_space(depth: int) -> DiscreteSpace:
    """Middle-thirds Cantor approximation: left endpoints of the 2^depth
    surviving intervals, each carrying weight 2^-depth."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    bits = (np.arange(2**depth)[:, None] >> np.arange(depth)) & 1
    coords = np.sort((2.0 * bits / 3.0 ** (np.arange(depth) + 1)).sum(axis=1))
    mu = np.full(coords.size, 2.0 ** (-depth))
    return DiscreteSpace(dist=None, mu=mu, x0=0, L=1.0, coords=coords)


def explicit_space(dist, mu, x0: int = 0, L: float = np.inf,
                   trunc_radius: Optional[float] = None, coords=None) -> DiscreteSpace:
    dist = np.asarray(dist, dtype=float)
    if np.isinf(L) and trunc_radius is None and dist.size:
        trunc_radius = float(dist.max())
    return DiscreteSpace(dist=dist, mu=np.asarray(mu, dtype=float), x0=x0, L=L,
                         trunc_radius=trunc_radius, coords=coords)


def _number(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, Real) or (positive and not value > 0):
        kind = "positive number" if positive else "number"
        raise ValidationError(f"{where}: must be a {kind}, got {value!r}")
    return float(value)


def _count(spec: dict, key: str, least: int, gen: str) -> int:
    """A generator's size field: an integer (not a bool) of at least ``least``."""
    if key not in spec:
        raise ValidationError(f"space.{key}: required for {gen}")
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"space.{key}: must be an integer >= {least}, got {value!r}")
    return int(value)


def _generator(spec: dict):
    """(builder, size) of a generator spec, its size field checked; no space
    is built."""
    gen = spec["generator"]
    if gen in ("uniform-grid", "uniform_grid"):
        return uniform_grid, _count(spec, "n", 2, gen)
    if gen == "cantor":
        return cantor_space, _count(spec, "depth", 1, gen)
    raise ValidationError(f"space.generator: unknown generator {gen!r}")


def space_from_spec(spec: dict) -> DiscreteSpace:
    """Build a space from its structured description.

    Generators: ``{"generator": "uniform-grid", "n": 64}`` or
    ``{"generator": "cantor", "depth": 6}``, with an integer ``n >= 2`` or
    ``depth >= 1``.  Explicit form:
    ``{"points": [{"id": 0, "coord": 0.0}, ...], "metric": "euclidean1d" |
    "explicit", "dist": row-major table, "mu": [...] | "lebesgue-grid",
    "x0": id, "L": number | "inf", "trunc_radius": number}``.  Every
    malformed field raises a ValidationError that names it.
    """
    if not isinstance(spec, dict):
        raise ValidationError("space: must be a mapping")
    if spec.get("generator") is not None:
        build, size = _generator(spec)
        return build(size)

    points = spec.get("points")
    if not isinstance(points, list) or not points \
            or not all(isinstance(p, dict) for p in points):
        raise ValidationError(f"space.points: must be a nonempty list of mappings, got {points!r}")
    n = len(points)
    ids = [p.get("id", i) for i, p in enumerate(points)]
    coords = None
    if any("coord" in p for p in points):
        coords = np.array([_number(p.get("coord"), "space.points: coord") for p in points])
    metric = spec.get("metric", "explicit")
    dist = None
    if metric == "euclidean1d":
        if coords is None:
            raise ValidationError("space.points: euclidean1d metric needs coords")
    elif metric == "explicit":
        if "dist" not in spec:
            raise ValidationError("space.dist: required for explicit metric")
        try:
            dist = np.asarray(spec["dist"], dtype=float).reshape(n, n)
        except (TypeError, ValueError):
            raise ValidationError(f"space.dist: must list {n} x {n} numbers row by row") from None
    else:
        raise ValidationError(f"space.metric: unknown metric {metric!r}")
    mu_spec = spec.get("mu", "lebesgue-grid")
    if isinstance(mu_spec, str):
        if mu_spec != "lebesgue-grid":
            raise ValidationError(f"space.mu: unknown rule {mu_spec!r}")
        mu = np.full(n, 1.0 / n)
    else:
        mu = np.array([_number(m, "space.mu") for m in mu_spec]) \
            if isinstance(mu_spec, (list, tuple, np.ndarray)) else None
        if mu is None or mu.shape != (n,) or np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ValidationError(f"space.mu: must list {n} positive finite weights, "
                                  f"got {mu_spec!r}")
    x0_id = spec.get("x0", ids[0])
    try:
        x0 = ids.index(x0_id)
    except ValueError:
        raise ValidationError(f"space.x0: id {x0_id!r} not among points") from None
    L_spec = spec.get("L", "inf")
    L = np.inf if L_spec == "inf" else _number(L_spec, "space.L", positive=True)
    trunc = spec.get("trunc_radius")
    if trunc is not None:
        trunc = _number(trunc, "space.trunc_radius", positive=True)
    elif np.isinf(L):
        # an infinite span is refused with the coordinates below
        with np.errstate(over="ignore"):
            trunc = float(dist.max() if dist is not None else np.ptp(coords))
    try:
        return DiscreteSpace(dist=dist, mu=mu, x0=x0, L=L, trunc_radius=trunc, coords=coords)
    except ValidationError as exc:
        # the weights are checked above: the coordinates or the table are at fault
        raise ValidationError(f"space.{'points' if dist is None else 'dist'}: {exc}") from None
