"""Discretized quasimetric measure spaces and their geometric constants.

A space is a finite point set with a (possibly asymmetric) distance and a
positive weight per point.  A table-backed space stores its distances as an
(n, n) table ``dist``; a line space (``uniform_grid``, ``cantor_space``, a
``euclidean1d`` spec) stores only its coordinates and computes
d(x, y) = |coords[x] - coords[y]| a block of rows at a time, so it holds no
(n, n) array.  Every distance read goes through ``DiscreteSpace.rows`` (a
block of rows) or ``pairs`` (d at broadcast point ids, so a transposed block
is ``pairs(ids, block[:, None])``), which slice the table or compute from
the coordinates with the same float operation per entry, so both kinds give
the same values bit for bit.

Every geometric query here is a pure read: balls, annuli, and estimates of
the quasi-triangle, doubling, reverse-doubling and Ahlfors-regularity
constants.  Constants are reported as estimates together with the attaining
configuration, never as booleans: at a fixed resolution only the estimate is
observable, finiteness is a refinement trend.  The exception is exact: on a
line space |x - y| is a metric, so the asymmetry and quasi-triangle
constants are a0 = a1 = 1 and are not searched; on a table they are
searched, exhaustively or over seeded triples.

Distance rows are sorted in one place: ``_sorted_rows`` sorts a block of
them, each row once, and every sweep, ball measure and basepoint order is
read from its blocks (``_sorted_row_blocks`` gives them in order), so no
(n, n) table of sorted rows is kept.  The basepoint's row is sorted and its
tie groups searched once per space (``_basepoint_row``): ``muB0``, the
local exponents, the Hardy transforms and the condition sweeps read their
balls around x0 from its order, sorted distances and per-point counts.  The
geometry sweep hands each block to the block consumers it is given, so a
scenario's Muckenhoupt functional reads the rows the geometry sorts: one
materialization sorts each row once.
With one weight on every point, each block's ``prefix`` is one read-only
row per space, broadcast (no reader may write it).  The geometry sweep and
``muckenhoupt_ar`` read the rows in slices of about 2**15 distances on one
thread and 2**16 on two, by one worker loop that takes the next slice as it
comes free (``_sweep_candidates``).  The calling thread runs it; for a
space of 1024 points or more, in a process that may run on two CPUs, one
helper thread runs it too.  Every slice offers its own estimates with their
first witnesses, and ``geometry_constants`` folds them in row order by
``max`` and ``min``, which replace an estimate only by a strictly larger or
smaller one, so the report is the same bit for bit on one thread or two.
Radius sweeps use the sorted distinct distances seen from each center.
Sup-type estimates (doubling) read closed balls there, inf-type estimates
(reverse doubling, Ahlfors) read open balls: on atomic data closed balls
collapse the swept annulus while open balls at atom scale inflate ratios, so
each estimator takes the reading that matches its continuum quantity.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from operator import itemgetter
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


def _positive_finite_total(mu: np.ndarray) -> bool:
    """Whether every weight is positive and their total finite (so each
    weight, and each ball measure, is finite too)."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = mu.sum()
    return not np.any(mu <= 0) and bool(np.isfinite(total))


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
        Strictly positive measure weight per point, with a finite total.
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
        if not _positive_finite_total(mu):
            raise ValidationError("point weights must be positive with a finite total")
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

    def pairs(self, xs, ys) -> np.ndarray:
        """d(x, y) at the broadcast point ids xs, ys, as ``dist[xs, ys]``
        indexes the table."""
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
    def _basepoint_row(self) -> "_BasepointRow":
        """The basepoint's row, sorted once, with its tie groups searched
        once (read-only arrays)."""
        row = _sorted_rows(self, self.x0, self.x0 + 1)
        ds, d0 = row.ds[0], row.d[0]
        below = ds.searchsorted(d0, "left")
        out = _BasepointRow(row.order[0], ds, below, ds.searchsorted(d0, "right"),
                            row.prefix[0, below])
        for a in out:
            a.flags.writeable = False
        return out

    @cached_property
    def _constant_prefix(self) -> Optional[np.ndarray]:
        """0 then cumsum(mu) if every weight is mu[0] exactly, else None (read-only)."""
        if np.any(self.mu != self.mu[0]):
            return None
        row = np.concatenate(([0.0], np.cumsum(self.mu)))
        row.flags.writeable = False
        return row

    @property
    def muB0(self) -> np.ndarray:
        """Open-ball measures mu B(x0, d0(x)) per point, 0 at the basepoint
        (read-only)."""
        return self._basepoint_row.muB0

    @cached_property
    def _sweep(self) -> np.ndarray:
        """The radii of every condition sweep on this space (read-only; see
        ``conditions.t_sweep``)."""
        L = self.L_eff
        d = _distinct(self.d0)
        d = d[d <= L]
        mids = 0.5 * (d[:-1] + d[1:]) if d.size > 1 else np.array([])
        ts = _distinct(np.concatenate([[0.0], d, mids, [L]]))
        ts.flags.writeable = False
        return ts

    @cached_property
    def _sup_memo(self) -> dict:
        """The sup-functional reports evaluated on this space, keyed on the
        bytes each evaluation read (see ``conditions._sup_functional``)."""
        return {}

    @cached_property
    def _local_memo(self) -> dict:
        """``exponents.local_exponents`` on this space by (bytes of p, a)."""
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


class _BasepointRow(NamedTuple):
    """The basepoint's distance row, sorted once, and its tie groups."""

    order: np.ndarray  # point ids in stable ascending order of d0
    ds: np.ndarray     # d0 in that order
    below: np.ndarray  # per point x, how many lie strictly closer to x0
    upto: np.ndarray   # per point x, how many lie at most as far
    muB0: np.ndarray   # mu B(x0, d0(x)): mu summed over order[:below[x]]


class _SortedRows(NamedTuple):
    """A block of distance rows, each sorted once.

    start  : id of the block's first row
    d      : (b, n) the rows as read, unsorted
    order  : (b, n) stable ascending order of each row
    ds     : (b, n) the sorted distances
    prefix : (b, n + 1) mu summed over the first k points of that order;
             with constant mu one shared read-only row, never to be written
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


def _sorted_rows(space: DiscreteSpace, start: int, stop: int) -> _SortedRows:
    """Distance rows ``start`` up to ``stop`` as one block, each row sorted
    once."""
    d = space.rows(start, stop)
    order = np.argsort(d, axis=1, kind="stable")
    # one flat take gathers the sorted rows several times faster than
    # np.take_along_axis, which builds an index grid per call
    b, n = d.shape
    ds = d.take(order + np.arange(0, b * n, n)[:, None])
    if space._constant_prefix is None:
        prefix = np.zeros((b, n + 1))
        np.cumsum(space.mu.take(order), axis=1, out=prefix[:, 1:])
    else:
        prefix = np.broadcast_to(space._constant_prefix, (b, n + 1))
    ends = np.ones(ds.shape, dtype=bool)
    np.not_equal(ds[:, 1:], ds[:, :-1], out=ends[:, :-1])
    return _SortedRows(start, d, order, ds, prefix, ends)


def _sorted_row_blocks(space: DiscreteSpace, first: int = 0, stop: Optional[int] = None):
    """Distance rows ``first`` up to ``stop`` (default: all) in blocks of
    ``_BLOCK_ROWS``, each row sorted once."""
    stop = space.n if stop is None else stop
    for start in range(first, stop, _BLOCK_ROWS):
        yield _sorted_rows(space, start, min(start + _BLOCK_ROWS, stop))


def _a0(space: DiscreteSpace):
    """Quasi-symmetry constant sup d(x, y) / d(y, x) and its first attaining
    pair in row-major order, one block of rows at a time.  A ratio that
    overflows is an infinite a0; only the diagonal's 0 / 0 is masked."""
    a0, a0_pair = -np.inf, (0, 0)
    ids = np.arange(space.n)
    for start, d in _row_blocks(space):
        with np.errstate(invalid="ignore", over="ignore"):
            ratios = d / space.pairs(ids, ids[start:start + len(d), None])
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
    if side == "right":
        t = ds[:, :stop] * (1.0 + _RADIUS_JITTER)
        s1 = min(stop, n - 1)
        near = at[:, :s1] & (ds[:, 1:s1 + 1] <= t[:, :s1])
        if not near.any():
            return prefix[:, 1:stop + 1]
        m = prefix[:, 1:stop + 1].copy()
        m[:, :s1] = np.where(near, prefix[:, 2:s1 + 2], m[:, :s1])
        s2 = min(stop, n - 2)
        more, skip = near[:, :s2] & (ds[:, 2:s2 + 2] <= t[:, :s2]), 0
    else:
        t = ds[:, :stop] * (1.0 - _RADIUS_JITTER)
        near = at[:, 1:stop] & (ds[:, :stop - 1] >= t[:, 1:])
        if not near.any():
            return prefix[:, :stop]
        m = prefix[:, :stop].copy()
        m[:, 1:] = np.where(near, prefix[:, :stop - 1], m[:, 1:])
        more, skip = near[:, 1:] & (ds[:, :stop - 2] >= t[:, 2:]), 2
    # more[:, j] marks position skip + j past more than one near-tie
    for i in np.flatnonzero(more.any(axis=1)):
        k = skip + np.flatnonzero(more[i])
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    reports one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The geometry sweep reads its rows in slices of about this many distances,
# max(1, entries // n) rows, on one thread and on two.  On one, a slice's
# 256 KB arrays stay in cache; twice as large ran 15-25% slower at 768 to
# 2048 points.  On two, the threads hand the GIL over at each numpy call,
# and twice the slice halves the hand-offs (about 2400 thread switches in a
# 2048-point sweep, not 4700); four times held 6 MB more.
_SLICE_ENTRIES = (2**15, 2**16)
# From this many points the sweep runs its slices on two threads
# (``_sweep_candidates``) when two CPUs are usable.  Each thread holds the
# arrays of its own slice, so the slice size bounds the memory it adds.
_THREADED_FROM = 1024


def _sweep_candidates(space: DiscreteSpace, candidates) -> list:
    """``candidates(blk)`` in row order of every slice of max(1, entries // n)
    rows (``_SLICE_ENTRIES`` by thread count), each sorted by ``_sorted_rows``.

    One worker reads the slices, taking the next one under a lock.  The
    calling thread runs it; from ``_THREADED_FROM`` points on, with two
    usable CPUs, one helper thread runs it too, under the caller's
    ``np.geterr()``, so a thread that gets less CPU reads fewer slices and
    the other never waits on it.  A failing worker records its exception,
    the others stop after the slice they are reading, and the caller raises
    it after the join.  The fold reads the list in row order however the
    slices were shared, so the threads change no value or witness."""
    n = space.n
    threaded = n >= _THREADED_FROM and _usable_cpus() > 1
    rows = max(1, _SLICE_ENTRIES[threaded] // n)
    slices = range(0, n, rows)
    out, failed = [None] * len(slices), []
    starts, lock, errors = iter(slices), threading.Lock(), np.geterr()

    def work() -> None:
        # A worker holds its slice until the next one is sorted.  Freed
        # first, its memory went back to the system and the next slice
        # faulted it in again: a 2048-point sweep took 60-70 thousand page
        # faults instead of 40-50 thousand, and 9% longer.
        try:
            while True:
                with lock:
                    start = None if failed else next(starts, None)
                if start is None:
                    return
                blk = _sorted_rows(space, start, min(start + rows, n))
                out[start // rows] = candidates(blk)
        except BaseException as exc:  # raised on the calling thread
            failed.append(exc)

    def helper() -> None:
        with np.errstate(**errors):
            work()

    thread = threading.Thread(target=helper, name="vexleb-geometry-sweep")
    if threaded:
        thread.start()
    work()
    if threaded:
        thread.join()
    if failed:
        raise failed[0]
    return out


def _block_candidates(blk: _SortedRows, n: int, L: float, A: float, q: float):
    """The estimates of one sorted row block, each with its first witness
    in row-major order: (doubling, witness), (reverse doubling, witness),
    (Ahlfors c1, witness), (Ahlfors c2, witness) and whether no annulus of
    its rows is empty.  An estimate with nothing to read is 0 for a sup,
    inf for an inf, with the empty witness ``()``: the values that
    ``geometry_constants`` starts its ``max`` and ``min`` from."""
    ds, prefix, ends, start = blk.ds, blk.prefix, blk.ends, blk.start
    b = ds.shape[0]
    positive = ds > 0
    closed = ends & positive
    swept = positive.copy()
    swept[:, 1:] &= ends[:, :-1]
    small = ds <= L / A

    # the columns the searches read (see geometry_constants): doubling's first
    # k_2, reverse doubling's 1 to k_A - 1 (column 0 is the center)
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
    doubling = float(dbl[i, k]), (start + i, float(ds[i, k]))

    # reverse doubling over open balls B(x, r), B(x, A r) for r <= L_eff / A,
    # at the tie groups' starts: mu B(x, A r) / mu B(x, r) in place
    m_open = _jittered_measures(ds, prefix, swept, "left", n)
    reverse = np.inf, ()
    if k_A > 1:
        np.divide(rdc, m_open[:, 1:k_A], out=rdc)
        np.putmask(rdc, ~(swept[:, 1:k_A] & small[:, 1:k_A]), np.inf)
        i, k = divmod(int(rdc.argmin()), k_A - 1)
        reverse = float(rdc[i, k]), (start + i, float(ds[i, k + 1]))

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
    upper = float(value), (start + i, float(ds[i, k] if k < n else whole[i]))
    np.putmask(ratios, ~(swept & (ds <= L)), np.inf)
    ratios_whole[~(ok_whole & (whole <= L))] = np.inf
    value, i, k = _first_max(np.negative(ratios, out=ratios), -ratios_whole)
    lower = float(-value), (start + i, float(ds[i, k] if k < n else whole[i]))

    # an empty annulus [r, A r) is a jump by more than A between
    # consecutive distinct distances of one center within (0, L_eff]
    annuli = not np.any(swept[:, 1:] & positive[:, :-1] & (ds[:, 1:] <= L)
                        & (ds[:, 1:] > A * ds[:, :-1] * (1 + 1e-12)))
    return doubling, reverse, upper, lower, annuli


def geometry_constants(space: DiscreteSpace, A: float = 2.0, ahlfors_exponent: float = 1.0,
                       seed: int = 0, sample_triples: int = 10**6, *,
                       _consumers=()) -> GeometryReport:
    """Estimate all geometric constants of the space in one report.

    ``doubling_c = sup mu B[x, 2r] / mu B[x, r]`` over closed balls,
    ``rdc_B = inf mu B(x, A r) / mu B(x, r)`` over open balls with
    r <= L_eff / A, and the Ahlfors c1 = sup, c2 = inf of mu B(x, r) / r^q
    over open balls and the whole space, c2 only for r <= L_eff (the module
    docstring gives each reading's reason).  Every swept ball holds its
    center, so no ratio divides by 0.  All four, and the annulus test, come
    from one pass over the sorted row blocks.

    The swept radii of a center are its distinct positive distances.  Closed
    balls are read at the last position of each tie group, open balls at the
    first, and each estimate is evaluated where its balls are read.  Each
    witness is the first center and then the first radius that attains its
    estimate, as a loop over the centers in order would find it: every slice
    offers its own first witness (``_block_candidates``), and ``max`` and
    ``min`` fold the slices in row order, a later one replacing an estimate
    only when strictly larger (sup) or smaller (inf), so a NaN never does.

    The two ball searches of each row block read only the columns that can
    still change an estimate.  Doubling reads the first k_2 columns, where
    k_2 - 1 is the block's largest column holding a row's first closed
    radius r with 2r (1 + jitter) >= the row's largest distance: from there
    on B[x, 2r] is the whole space and B[x, r] only grows, so no later ratio
    of the row is larger, and a later tie never replaces the first maximum.
    Reverse doubling reads the positive distances r <= L_eff / A, a prefix
    of each sorted row, and nothing in a block where every such prefix is
    empty.  Values and witnesses are those of the full sweep, bit for bit.

    A line space reports a0 = a1 = 1 exactly, the values of its metric; a
    table-backed space has them searched, and only there do ``seed`` and
    ``sample_triples`` apply (to the triple sampler past
    ``EXHAUSTIVE_TRIPLE_LIMIT`` points).  ``_consumers`` is private: each is
    called with every ``_SortedRows`` block of the pass, which it must not
    write, so a functional of the same balls sorts no row again.  From
    ``_THREADED_FROM`` points on a helper thread reads some of the blocks
    (``_sweep_candidates``), so a consumer must serialize what it updates."""
    if space.n < 2:
        raise DomainError("need at least 2 points")
    if A <= 1:
        raise DomainError("reverse-doubling factor must exceed 1")
    if ahlfors_exponent <= 0:
        raise DomainError("Ahlfors exponent must be positive")
    a0, a0_pair, a1, a1_triple = _quasi_constants(space, seed, sample_triples)
    n, L = space.n, space.L_eff

    def candidates(blk):
        for consume in _consumers:
            consume(blk)
        return _block_candidates(blk, n, L, A, ahlfors_exponent)

    dbl, rdc, upper, lower, annuli = zip(*_sweep_candidates(space, candidates))
    sup, inf, value = (0.0, ()), (np.inf, ()), itemgetter(0)
    doubling_c, dbl_wit = max([sup, *dbl], key=value)
    rdc_B, rdc_wit = min([inf, *rdc], key=value)
    c1, w1 = max([sup, *upper], key=value)
    c2, w2 = min([inf, *lower], key=value)
    return GeometryReport(
        a0=a0, a1=a1, doubling_c=doubling_c, rdc_A=A, rdc_B=rdc_B,
        ahlfors_upper_c1=c1, ahlfors_lower_c2=c2, ahlfors_exponent=ahlfors_exponent,
        annuli_nonempty=all(annuli),
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


# ---------------------------------------------------------------------------
# spec reading: every mapping a scenario holds goes through these checks,
# each naming the field at ``where`` in its error


def _mapping(value, where: str, known=None) -> dict:
    """``value``, checked to be a mapping and, given ``known``, its keys."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be a mapping, got {type(value).__name__}")
    return value if known is None else _known_keys(value, where, known)


def _known_keys(data: dict, where: str, known) -> dict:
    """``data``, each key outside ``known`` refused by name: ``where.key``,
    or the bare key with ``where`` empty."""
    unknown = [f"{where}.{key}" if where else str(key) for key in data if key not in known]
    if unknown:
        raise ValidationError(f"{', '.join(unknown)}: unknown key(s), expected one of {known}")
    return data


def _number(value, where: str, above: Optional[float] = None) -> float:
    """``value`` as a float: a real number, not a bool, above ``above`` if given."""
    if isinstance(value, bool) or not isinstance(value, Real) \
            or (above is not None and not value > above):
        bound = "" if above is None else f" above {above}"
        raise ValidationError(f"{where}: must be a number{bound}, got {value!r}")
    return float(value)


def _integer(value, where: str, least: int) -> int:
    """``value`` as an int: an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{where}: must be an integer >= {least}, got {value!r}")
    return int(value)


# each generator by name (looked up by comparison: a spec may hold any JSON
# value): builder, size key, least size, and the size a resolution n sets
_GENERATORS = {
    "uniform-grid": (uniform_grid, "n", 2, int),
    "uniform_grid": (uniform_grid, "n", 2, int),
    "cantor": (cantor_space, "depth", 1, lambda n: max(1, int(np.log2(max(2, int(n)))))),
}


def _generator(spec: dict):
    """(builder, size) of a generator spec, which holds only ``generator``
    and its size, an integer of at least the least size; no space is built."""
    gen = spec["generator"]
    if gen not in tuple(_GENERATORS):
        raise ValidationError(f"space.generator: unknown generator {gen!r}")
    build, key, least, _ = _GENERATORS[gen]
    _known_keys(spec, "space", ("generator", key))
    return build, _integer(spec.get(key), f"space.{key}", least)


# the keys of the explicit form, and those each metric adds
_EXPLICIT_KEYS = ("points", "metric", "mu", "x0", "L", "trunc_radius")
_METRIC_KEYS = {"euclidean1d": (), "explicit": ("dist",)}


def space_from_spec(spec: dict) -> DiscreteSpace:
    """Build a space from its structured description.

    Generators: ``{"generator": "uniform-grid", "n": 64}`` or
    ``{"generator": "cantor", "depth": 6}``, with an integer ``n >= 2`` or
    ``depth >= 1``.  Explicit form:
    ``{"points": [{"id": 0, "coord": 0.0}, ...], "metric": "euclidean1d" |
    "explicit", "dist": row-major table, "mu": [...] | "lebesgue-grid",
    "x0": id, "L": number | "inf", "trunc_radius": number}``, where
    ``dist`` belongs to the explicit metric only.  Every malformed field
    raises a ValidationError that names it, and so does every key the form,
    its metric or a point does not read.
    """
    if _mapping(spec, "space").get("generator") is not None:
        build, size = _generator(spec)
        return build(size)

    metric = spec.get("metric", "explicit")
    if metric not in tuple(_METRIC_KEYS):
        raise ValidationError(f"space.metric: unknown metric {metric!r}")
    _known_keys(spec, "space", _EXPLICIT_KEYS + _METRIC_KEYS[metric])
    points = spec.get("points")
    if not isinstance(points, list) or not points:
        raise ValidationError(f"space.points: must be a nonempty list of mappings, got {points!r}")
    points = [_mapping(p, f"space.points[{i}]", ("id", "coord")) for i, p in enumerate(points)]
    n = len(points)
    index: dict = {}  # each point's id: a number or a string, none repeated
    for i, p in enumerate(points):
        pid = p.get("id", i)
        if isinstance(pid, bool) or not isinstance(pid, (str, Real)) \
                or index.setdefault(pid, i) != i:
            raise ValidationError(f"space.points[{i}].id: must be a number or a string that "
                                  f"no earlier point has, got {pid!r}")
    coords = None
    if any("coord" in p for p in points):
        coords = np.array([_number(p.get("coord"), f"space.points[{i}].coord")
                           for i, p in enumerate(points)])
    dist = None
    if metric == "euclidean1d":
        if coords is None:
            raise ValidationError("space.points: euclidean1d metric needs coords")
    else:
        if "dist" not in spec:
            raise ValidationError("space.dist: required for explicit metric")
        try:
            dist = np.asarray(spec["dist"], dtype=float).reshape(n, n)
        except (TypeError, ValueError):
            raise ValidationError(f"space.dist: must list {n} x {n} numbers row by row") from None
    if n < 2:
        raise ValidationError(f"space.points: need at least 2 points, got {n}")
    mu_spec = spec.get("mu", "lebesgue-grid")
    if isinstance(mu_spec, str):
        if mu_spec != "lebesgue-grid":
            raise ValidationError(f"space.mu: unknown rule {mu_spec!r}")
        mu = np.full(n, 1.0 / n)
    else:
        mu = np.array([_number(m, "space.mu") for m in mu_spec]) \
            if isinstance(mu_spec, (list, tuple, np.ndarray)) else None
        if mu is None or mu.shape != (n,) or not _positive_finite_total(mu):
            raise ValidationError(f"space.mu: must list {n} positive weights with a finite "
                                  f"total, got {mu_spec!r}")
    x0_id = spec.get("x0", next(iter(index)))
    if isinstance(x0_id, bool) or not isinstance(x0_id, (str, Real)) or x0_id not in index:
        raise ValidationError(f"space.x0: must be the id of a point, got {x0_id!r}")
    x0 = index[x0_id]
    L_spec = spec.get("L", "inf")
    L = np.inf if L_spec == "inf" else _number(L_spec, "space.L", above=0)
    trunc = spec.get("trunc_radius")
    if trunc is not None:
        trunc = _number(trunc, "space.trunc_radius", above=0)
    elif np.isinf(L):
        # an infinite span is refused with the coordinates below
        with np.errstate(over="ignore"):
            trunc = float(dist.max() if dist is not None else np.ptp(coords))
    try:
        return DiscreteSpace(dist=dist, mu=mu, x0=x0, L=L, trunc_radius=trunc, coords=coords)
    except ValidationError as exc:
        # the weights are checked above: the coordinates or the table are at fault
        raise ValidationError(f"space.{'points' if dist is None else 'dist'}: {exc}") from None
