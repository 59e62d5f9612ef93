"""Discretized quasimetric measure spaces and their geometric constants.

A space is a finite point set with a (possibly asymmetric) distance table
and a positive weight per point.  Every geometric query here is a pure read:
balls, annuli, the radial partition around the basepoint, and estimates of
the quasi-triangle, doubling, reverse-doubling and Ahlfors-regularity
constants.  Constants are reported as estimates together with the attaining
configuration, never as booleans: at a fixed resolution only the estimate is
observable, finiteness is a refinement trend.

Radius sweeps use the sorted distinct distances seen from each center.
Sup-type estimates (doubling) read closed balls there, inf-type estimates
(reverse doubling, Ahlfors) read open balls: on atomic data closed balls
collapse the swept annulus while open balls at atom scale inflate ratios, so
each estimator takes the reading that matches its continuum quantity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "DiscreteSpace",
    "BallIndex",
    "BallView",
    "GeometryReport",
    "RadialPartition",
    "ball",
    "sweep_radii",
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
class BallIndex:
    """Every row of the distance table sorted once, with its ball measures.

    order        : (n, n) stable ascending order of each row ``dist[x]``
    prefix       : (n, n + 1) mu summed over the first k points of that order
    ends         : (n, n) True at the last sorted position of each group of
                   tied distances, where a closed ball is realized
    open_measure : (n, n) mu B(x, d(x, y)), the open ball, in column order y
    """

    order: np.ndarray
    prefix: np.ndarray
    ends: np.ndarray
    open_measure: np.ndarray

    @classmethod
    def build(cls, dist: np.ndarray, mu: np.ndarray) -> "BallIndex":
        n = dist.shape[0]
        order = np.argsort(dist, axis=1, kind="stable")
        ds = np.take_along_axis(dist, order, axis=1)
        prefix = np.zeros((n, n + 1))
        np.cumsum(mu[order], axis=1, out=prefix[:, 1:])
        starts = np.ones((n, n), dtype=bool)
        starts[:, 1:] = ds[:, 1:] != ds[:, :-1]
        ends = np.ones((n, n), dtype=bool)
        ends[:, :-1] = starts[:, 1:]
        # an open ball at a distance holds everything before its tie group
        group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
        open_measure = np.empty((n, n))
        np.put_along_axis(open_measure, order,
                          np.take_along_axis(prefix, group_start, axis=1), axis=1)
        return cls(order, prefix, ends, open_measure)


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
        off = dist + np.eye(n)
        if np.any(off <= 0):
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
    def ball_index(self) -> BallIndex:
        """The sorted rows and ball measures of every center, built on first use.

        It holds about 25 bytes per pair of points (25 n^2 bytes: 105 MB at
        n = 2048), so only operators that need every row at once read it
        (``ball_potential``, ``maximal_function`` and the ball-measure rows
        of the kernel checks); per-center queries sort their own row.
        """
        return BallIndex.build(self.dist, self.mu)

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


def _sorted_row(space: DiscreteSpace, center: int):
    """Distances from ``center`` sorted ascending with matching mu prefix sums."""
    d = space.d_from(center)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    prefix = np.concatenate([[0.0], np.cumsum(space.mu[order])])
    return ds, prefix, order


def _ball_measures(ds: np.ndarray, prefix: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Measures of open balls at the given radii from one sorted row."""
    idx = np.searchsorted(ds, radii, side="left")
    return prefix[idx]


def sweep_radii(space: DiscreteSpace, center: int, r_cap: Optional[float] = None,
                include_whole: bool = True) -> np.ndarray:
    """Radius sweep for one center: midpoints between consecutive distinct
    distances, optionally plus a radius just past the largest distance (the
    whole-space ball)."""
    ds = np.unique(space.d_from(center))
    if ds.size < 2:
        radii = np.array([], dtype=float)
    else:
        radii = 0.5 * (ds[:-1] + ds[1:])
    if include_whole and ds.size:
        radii = np.append(radii, ds[-1] * (1.0 + 1e-9) + 1e-300)
    if r_cap is not None:
        radii = radii[radii <= r_cap]
    return radii


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
    skipped_balls: int = 0


def _quasi_constants(space: DiscreteSpace, seed: int, sample_triples: int):
    d = space.dist
    n = space.n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = d / d.T
    ratios[~np.isfinite(ratios)] = 0.0
    a0 = float(ratios.max())
    a0_pair = np.unravel_index(int(ratios.argmax()), ratios.shape)

    a1 = 0.0
    a1_triple = (0, 0, 0)
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        for x in range(n):
            two_hop = np.min(d[x][:, None] + d, axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(two_hop > 0, d[x] / two_hop, 0.0)
            y = int(r.argmax())
            if r[y] > a1:
                z = int(np.argmin(d[x] + d[:, y]))
                a1, a1_triple = float(r[y]), (x, y, z)
    else:
        rng = np.random.default_rng(seed)
        remaining = max(sample_triples, 10**6)
        chunk = 200_000
        while remaining > 0:
            m = min(chunk, remaining)
            xs, ys, zs = (rng.integers(0, n, m) for _ in range(3))
            denom = d[xs, zs] + d[zs, ys]
            ok = denom > 0
            if ok.any():
                r = d[xs[ok], ys[ok]] / denom[ok]
                j = int(r.argmax())
                if r[j] > a1:
                    kk = np.flatnonzero(ok)[j]
                    a1, a1_triple = float(r[j]), (int(xs[kk]), int(ys[kk]), int(zs[kk]))
            remaining -= m
    return a0, tuple(int(i) for i in a0_pair), a1, a1_triple


# distance tables carry float noise (twice a stored distance need not equal
# the stored double); radius comparisons absorb it with a relative jitter
_RADIUS_JITTER = 1e-9


def _closed_measures(ds: np.ndarray, prefix: np.ndarray, radii: np.ndarray) -> np.ndarray:
    return prefix[np.searchsorted(ds, radii * (1.0 + _RADIUS_JITTER), side="right")]


def _open_measures(ds: np.ndarray, prefix: np.ndarray, radii: np.ndarray) -> np.ndarray:
    return prefix[np.searchsorted(ds, radii * (1.0 - _RADIUS_JITTER), side="left")]


def doubling_reverse_doubling(space: DiscreteSpace, A_candidate: float = 2.0):
    """Doubling sup and reverse-doubling inf over the distinct-distance sweep.

    ``doubling_c = sup mu B(x, 2r) / mu B(x, r)`` with closed balls (the
    quadrature reading of the continuum ball; open balls at atom scale would
    inflate the sup by pure atom effects);
    ``rdc_B = inf mu B(x, A r) / mu B(x, r)`` with open balls over radii
    ``r <= L_eff / A`` (open balls keep the swept annulus nonempty, closed
    ones collapse it at the boundary radii).
    Swept balls with zero measure are skipped and counted.
    """
    if A_candidate <= 1:
        raise DomainError("reverse-doubling factor must exceed 1")
    if space.n < 2:
        raise DomainError("need at least 2 points for doubling estimates")
    doubling_c, rdc_B = 0.0, np.inf
    dbl_wit, rdc_wit = (), ()
    skipped = 0
    cap = space.L_eff / A_candidate
    for x in range(space.n):
        ds, prefix, _ = _sorted_row(space, x)
        radii = np.unique(ds[ds > 0])
        if radii.size == 0:
            continue
        m_r = _closed_measures(ds, prefix, radii)
        m_2r = _closed_measures(ds, prefix, 2.0 * radii)
        ok = m_r > 0
        skipped += int((~ok).sum())
        if ok.any():
            ratios = m_2r[ok] / m_r[ok]
            j = int(ratios.argmax())
            if ratios[j] > doubling_c:
                doubling_c, dbl_wit = float(ratios[j]), (x, float(radii[ok][j]))
        small = radii <= cap
        if small.any():
            m_open = _open_measures(ds, prefix, radii[small])
            m_A = _open_measures(ds, prefix, A_candidate * radii[small])
            pos = m_open > 0
            skipped += int((~pos).sum())
            if pos.any():
                ratios = m_A[pos] / m_open[pos]
                j = int(ratios.argmin())
                if ratios[j] < rdc_B:
                    rdc_B, rdc_wit = float(ratios[j]), (x, float(radii[small][pos][j]))
    if doubling_c == 0.0:
        raise DomainError("no admissible radii; space too degenerate for doubling sweep")
    return doubling_c, rdc_B, dbl_wit, rdc_wit, skipped


def ahlfors_regularity(space: DiscreteSpace, exponent_q: float = 1.0):
    """Upper/lower Ahlfors constants over open balls at the distinct
    distances (plus the whole-space ball): c1 = sup mu B(x,r)/r^q,
    c2 = inf of the same ratio restricted to r <= L_eff."""
    if exponent_q <= 0:
        raise DomainError("Ahlfors exponent must be positive")
    c1, c2 = 0.0, np.inf
    w1, w2 = (), ()
    for x in range(space.n):
        ds, prefix, _ = _sorted_row(space, x)
        pos = np.unique(ds[ds > 0])
        if pos.size == 0:
            continue
        radii = np.append(pos, pos[-1] * (1.0 + 1e-6))
        m = _open_measures(ds, prefix, radii)
        ok = m > 0
        ratios = np.where(ok, m / radii**exponent_q, -np.inf)
        j = int(ratios.argmax())
        if ratios[j] > c1:
            c1, w1 = float(ratios[j]), (x, float(radii[j]))
        low = ok & (radii <= space.L_eff)
        if low.any():
            rl = ratios[low]
            j = int(rl.argmin())
            if rl[j] < c2:
                c2, w2 = float(rl[j]), (x, float(radii[low][j]))
    return c1, c2, w1, w2


def _annuli_nonempty(space: DiscreteSpace, A: float) -> bool:
    """No annulus at scale A within the resolved range is empty: from every
    center, consecutive distinct positive distances never jump by more than a
    factor A (an empty annulus [r, A r) exists exactly at such a jump)."""
    for x in range(space.n):
        ds = np.unique(space.d_from(x))
        ds = ds[(ds > 0) & (ds <= space.L_eff)]
        if ds.size >= 2 and np.any(ds[1:] > A * ds[:-1] * (1 + 1e-12)):
            return False
    return True


def geometry_constants(space: DiscreteSpace, A: float = 2.0, ahlfors_exponent: float = 1.0,
                       seed: int = 0, sample_triples: int = 10**6) -> GeometryReport:
    """Estimate all geometric constants of the space in one report."""
    if space.n < 2:
        raise DomainError("need at least 2 points")
    a0, a0_pair, a1, a1_triple = _quasi_constants(space, seed, sample_triples)
    doubling_c, rdc_B, dbl_wit, rdc_wit, skipped = doubling_reverse_doubling(space, A)
    c1, c2, _, _ = ahlfors_regularity(space, ahlfors_exponent)
    return GeometryReport(
        a0=a0, a1=a1, doubling_c=doubling_c, rdc_A=A, rdc_B=rdc_B,
        ahlfors_upper_c1=c1, ahlfors_lower_c2=c2, ahlfors_exponent=ahlfors_exponent,
        annuli_nonempty=_annuli_nonempty(space, A),
        a0_pair=a0_pair, a1_triple=a1_triple,
        doubling_witness=dbl_wit, rdc_witness=rdc_wit, skipped_balls=skipped,
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


def uniform_grid(n: int) -> DiscreteSpace:
    """Uniform n-point grid on [0, 1] (both endpoints included) with equal
    weights 1/n."""
    if n < 2:
        raise DomainError("grid needs at least 2 points")
    coords = np.linspace(0.0, 1.0, n)
    dist = np.abs(coords[:, None] - coords[None, :])
    return DiscreteSpace(dist=dist, mu=np.full(n, 1.0 / n), x0=0, L=1.0, coords=coords)


def cantor_space(depth: int) -> DiscreteSpace:
    """Middle-thirds Cantor approximation: left endpoints of the 2^depth
    surviving intervals, each carrying weight 2^-depth."""
    if depth < 1:
        raise DomainError("depth must be at least 1")
    bits = (np.arange(2**depth)[:, None] >> np.arange(depth)) & 1
    coords = np.sort((2.0 * bits / 3.0 ** (np.arange(depth) + 1)).sum(axis=1))
    dist = np.abs(coords[:, None] - coords[None, :])
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
        dist = np.abs(coords[:, None] - coords[None, :])
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
