import dataclasses
import os
import sys
import threading
import warnings
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vexleb as vx
from vexleb import space as space_module
from vexleb.conditions import _Muckenhoupt
from vexleb.errors import DomainError, ValidationError
from vexleb.space import (_BLOCK_ROWS, _SLICE_ENTRIES, EXHAUSTIVE_TRIPLE_LIMIT, _a1,
                          _sorted_row_blocks, _sorted_rows)


def brute_ball(space, center, r, closed=False):
    d = space.d_from(center)
    return set(np.flatnonzero(d <= r if closed else d < r).tolist())


# Per-center reference loops for the geometry sweep: each sorts one row,
# takes the distinct distances with np.unique and searches every radius.
JITTER = 1e-9


def sorted_row(space, x):
    d = space.d_from(x)
    order = np.argsort(d, kind="stable")
    return d[order], np.concatenate([[0.0], np.cumsum(space.mu[order])])


def closed_measures(ds, prefix, radii):
    return prefix[np.searchsorted(ds, radii * (1.0 + JITTER), side="right")]


def open_measures(ds, prefix, radii):
    return prefix[np.searchsorted(ds, radii * (1.0 - JITTER), side="left")]


def reference_doubling(space, A):
    doubling_c, rdc_B = 0.0, np.inf
    dbl_wit, rdc_wit = (), ()
    skipped = 0
    cap = space.L_eff / A
    for x in range(space.n):
        ds, prefix = sorted_row(space, x)
        radii = np.unique(ds[ds > 0])
        if radii.size == 0:
            continue
        m_r = closed_measures(ds, prefix, radii)
        m_2r = closed_measures(ds, prefix, 2.0 * radii)
        ok = m_r > 0
        skipped += int((~ok).sum())
        if ok.any():
            ratios = m_2r[ok] / m_r[ok]
            j = int(ratios.argmax())
            if ratios[j] > doubling_c:
                doubling_c, dbl_wit = float(ratios[j]), (x, float(radii[ok][j]))
        small = radii <= cap
        if small.any():
            m_open = open_measures(ds, prefix, radii[small])
            m_A = open_measures(ds, prefix, A * radii[small])
            pos = m_open > 0
            skipped += int((~pos).sum())
            if pos.any():
                ratios = m_A[pos] / m_open[pos]
                j = int(ratios.argmin())
                if ratios[j] < rdc_B:
                    rdc_B, rdc_wit = float(ratios[j]), (x, float(radii[small][pos][j]))
    # every swept ball holds its center, so none has measure 0
    assert skipped == 0
    return doubling_c, rdc_B, dbl_wit, rdc_wit


def reference_ahlfors(space, q):
    c1, c2 = 0.0, np.inf
    w1, w2 = (), ()
    for x in range(space.n):
        ds, prefix = sorted_row(space, x)
        pos = np.unique(ds[ds > 0])
        if pos.size == 0:
            continue
        radii = np.append(pos, pos[-1] * (1.0 + 1e-6))
        m = open_measures(ds, prefix, radii)
        ok = m > 0
        ratios = np.where(ok, m / radii**q, -np.inf)
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


def reference_annuli_nonempty(space, A):
    for x in range(space.n):
        ds = np.unique(space.d_from(x))
        ds = ds[(ds > 0) & (ds <= space.L_eff)]
        if ds.size >= 2 and np.any(ds[1:] > A * ds[:-1] * (1 + 1e-12)):
            return False
    return True


def reference_quasi(space, seed, sample_triples):
    """a0 from the full table d / d.T; a1 with one n x n temporary per center,
    or over the seeded triples with 2-D gathers."""
    d, n = space.rows(0, space.n), space.n
    # only the diagonal's 0 / 0 is masked: an overflowing ratio is a0 = inf
    with np.errstate(invalid="ignore", over="ignore"):
        ratios = d / d.T
    ratios[np.isnan(ratios)] = 0.0
    a0_pair = tuple(int(i) for i in np.unravel_index(int(ratios.argmax()), ratios.shape))
    a1, a1_triple = 0.0, (0, 0, 0)
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        for x in range(n):
            two_hop = np.min(d[x][:, None] + d, axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(two_hop > 0, d[x] / two_hop, 0.0)
            y = int(r.argmax())
            if r[y] > a1:
                a1, a1_triple = float(r[y]), (x, y, int(np.argmin(d[x] + d[:, y])))
    else:
        rng = np.random.default_rng(seed)
        remaining = sample_triples
        while remaining > 0:
            m = min(200_000, remaining)
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
    return float(ratios.max()), a0_pair, a1, a1_triple


def reference_report(space, A, q, seed=0, sample_triples=10**6):
    if space.dist is None:
        # |x - y| is a metric: a0 = a1 = 1, attained at (0, 1) and (0, 1, 0)
        a0, a0_pair, a1, a1_triple = 1.0, (0, 1), 1.0, (0, 1, 0)
    else:
        a0, a0_pair, a1, a1_triple = reference_quasi(space, seed, sample_triples)
    doubling_c, rdc_B, dbl_wit, rdc_wit = reference_doubling(space, A)
    c1, c2, w1, w2 = reference_ahlfors(space, q)
    return vx.GeometryReport(
        a0=a0, a1=a1, doubling_c=doubling_c, rdc_A=A, rdc_B=rdc_B,
        ahlfors_upper_c1=c1, ahlfors_lower_c2=c2, ahlfors_exponent=q,
        annuli_nonempty=reference_annuli_nonempty(space, A),
        a0_pair=a0_pair, a1_triple=a1_triple,
        doubling_witness=dbl_wit, rdc_witness=rdc_wit,
        ahlfors_upper_witness=w1, ahlfors_lower_witness=w2)


@st.composite
def tied_spaces(draw, sizes, modes=("ties", "near-ties", "on searched radii")):
    """Asymmetric explicit tables with tied distances and uneven weights.  A
    third of them carry near-ties at relative 1e-10 to 3e-9, inside the
    radius jitter; another third has distances exactly on the radii searched
    from other distances.  Some have a diameter cap below the largest
    distance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
    dist = rng.uniform(0.2, 1.3, 5)[rng.integers(0, 5, (n, n))]
    mode = draw(st.sampled_from(modes))
    if mode == "near-ties":
        dist *= 1.0 + rng.choice([-1.0, 0.0, 1.0], (n, n)) * rng.uniform(1e-10, 3e-9, (n, n))
    elif mode == "on searched radii":
        r = np.unique(dist)
        searched = np.concatenate([r * (1.0 + JITTER), r * (1.0 - JITTER), 2.0 * r * (1.0 + JITTER)]
                                  + [A * r * (1.0 - JITTER) for A in (1.5, 2.0, 3.0)])
        moved = rng.uniform(size=(n, n)) < 0.3
        dist[moved] = rng.choice(searched, int(moved.sum()))
    np.fill_diagonal(dist, 0.0)
    L = draw(st.sampled_from([np.inf, 0.8, 1.25]))
    return vx.explicit_space(dist, rng.uniform(0.1, 1.0, n), 0, L)


@st.composite
def line_spaces(draw, sizes, below_neighbours=False):
    """``euclidean1d`` specs with unsorted coordinates on a lattice of
    quarter steps (many tied distances) and uneven weights.  With
    ``below_neighbours`` the diameter is infinite and truncated so that
    L_eff / A lies below every nearest-neighbour distance for A >= 1.5: no
    center has a radius to sweep for reverse doubling."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
    coords = rng.permutation(np.cumsum(rng.integers(1, 4, n) * 0.25))
    spec = {"metric": "euclidean1d", "mu": rng.uniform(0.1, 1.0, n).tolist(),
            "points": [{"id": i, "coord": float(c)} for i, c in enumerate(coords)]}
    if below_neighbours:
        spec["trunc_radius"] = draw(st.sampled_from([0.1, 0.25, 0.37]))
    else:
        spec["L"] = draw(st.sampled_from(["inf", float(np.ptp(coords)) * 0.6]))
    return vx.space_from_spec(spec)


@st.composite
def geometry_spaces(draw):
    kind = draw(st.sampled_from(["grid", "cantor", "tied", "tied", "block edge", "line",
                                 "no reverse-doubling radius"]))
    if kind == "grid":
        return vx.uniform_grid(draw(st.integers(2, 90)))
    if kind == "cantor":
        return vx.cantor_space(draw(st.integers(1, 7)))
    if kind == "tied":
        return draw(tied_spaces(st.integers(2, 40)))
    if kind == "line":
        return draw(line_spaces(st.integers(_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 2)))
    if kind == "no reverse-doubling radius":
        return draw(line_spaces(st.integers(2, 40), below_neighbours=True))
    edges = [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    return draw(tied_spaces(st.sampled_from(edges)))


@st.composite
def sorted_row_spaces(draw):
    """Geometry spaces plus grids and tied tables whose sizes put a row block
    edge just before, at and after a multiple of ``_BLOCK_ROWS``, with the
    basepoint anywhere."""
    edges = st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
    sp = draw(st.one_of(geometry_spaces(), edges.map(vx.uniform_grid), tied_spaces(edges)))
    return dataclasses.replace(sp, x0=draw(st.integers(0, sp.n - 1)))


# The sorted rows and basepoint ball measures as built before every row sort
# read the shared row blocks: one full-table sort, one basepoint sort.
def reference_ball_index(space):
    dist, mu, n = space.rows(0, space.n), space.mu, space.n
    order = np.argsort(dist, axis=1, kind="stable")
    ds = np.take_along_axis(dist, order, axis=1)
    prefix = np.zeros((n, n + 1))
    np.cumsum(mu[order], axis=1, out=prefix[:, 1:])
    starts = np.ones((n, n), dtype=bool)
    starts[:, 1:] = ds[:, 1:] != ds[:, :-1]
    ends = np.ones((n, n), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    group_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
    open_measure = np.empty((n, n))
    np.put_along_axis(open_measure, order,
                      np.take_along_axis(prefix, group_start, axis=1), axis=1)
    return order, prefix, ends, open_measure


def reference_muB0(space):
    d0 = space.d0
    order = np.argsort(d0, kind="stable")
    prefix = np.concatenate([[0.0], np.cumsum(space.mu[order])])
    return prefix[np.searchsorted(d0[order], d0, side="left")]


def held_arrays(value):
    """The arrays in a value, searched through mappings, tuples and objects."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        parts = value.values()
    elif isinstance(value, tuple):
        parts = value
    elif hasattr(value, "__dict__"):
        parts = vars(value).values()
    else:
        return []
    return [a for part in parts for a in held_arrays(part)]


class TestSharedSortedRows:
    @given(sorted_row_spaces())
    @settings(max_examples=60, deadline=None)
    def test_row_blocks_equal_full_table_build(self, sp):
        ref = reference_ball_index(sp)
        starts = []
        for blk in _sorted_row_blocks(sp):
            starts.append(blk.start)
            rows = slice(blk.start, blk.start + _BLOCK_ROWS)
            for got, full in zip((blk.order, blk.prefix, blk.ends, blk.open_measure()), ref):
                assert got.dtype == full.dtype and np.array_equal(got, full[rows])
        assert starts == list(range(0, sp.n, _BLOCK_ROWS))

    @given(sorted_row_spaces())
    @settings(max_examples=60, deadline=None)
    def test_basepoint_row_equals_per_row_sort(self, sp):
        assert np.array_equal(sp._basepoint_row.order, np.argsort(sp.d0, kind="stable"))
        assert np.array_equal(sp.muB0, reference_muB0(sp))
        blk = next(b for b in _sorted_row_blocks(sp) if b.start <= sp.x0 < b.start + _BLOCK_ROWS)
        assert np.array_equal(sp.muB0, blk.open_measure()[sp.x0 - blk.start])

    def test_space_keeps_no_square_table(self):
        # every reader of sorted rows reduces row blocks; a line space keeps
        # no n x n array at all
        sp = vx.uniform_grid(2 * _BLOCK_ROWS + 5)
        n = sp.n
        rows = np.random.default_rng(0).uniform(-1, 1, (3, n))
        vx.maximal_functions(sp, rows)
        vx.ball_potentials(sp, vx.PointFunction.constant(n, 0.5, "alpha"), rows)
        vx.kernel_regularity_check(sp, vx.hilbert_kernel(), 50, a1=1.0)
        p = vx.PointFunction(2.0 + sp.coords, "exponent")
        for at in (None, 3):
            vx.class_check(sp, p, "log-holder", at=at)
        assert [name for name, value in vars(sp).items()
                if any(a.size >= n * n for a in held_arrays(value))] == []

    def test_basepoint_arrays_are_read_only(self):
        sp = vx.uniform_grid(16)
        for shared in (sp.muB0, sp._basepoint_row.order):
            with pytest.raises(ValueError, match="read-only"):
                shared[1] = 0


@st.composite
def basepoint_spaces(draw):
    """(space, cap radius a or None, exponent field): tied tables with the
    basepoint anywhere (ties at the basepoint distance), Cantor sets, and
    truncated infinite line models on a lattice whose cap radius a lies below
    the truncation radius.  On an infinite model p is constant beyond a."""
    kind = draw(st.sampled_from(["tied", "cantor", "truncated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = None
    if kind == "tied":
        sp = draw(tied_spaces(st.integers(2, 40)))
        sp = dataclasses.replace(sp, x0=draw(st.integers(0, sp.n - 1)))
    elif kind == "cantor":
        sp = vx.cantor_space(draw(st.integers(1, 6)))
    else:
        n = draw(st.integers(2, 40))
        coords = rng.permutation(np.cumsum(rng.integers(1, 4, n) * 0.25))
        trunc = float(np.ptp(coords)) * draw(st.sampled_from([0.5, 1.0]))
        sp = vx.explicit_space(np.abs(coords[:, None] - coords[None, :]),
                               rng.uniform(0.1, 1.0, n), int(rng.integers(0, n)), np.inf,
                               trunc_radius=trunc, coords=coords)
        a = trunc * draw(st.sampled_from([0.3, 0.6, 0.9]))
    cap = sp.L_eff if a is None else a
    values = rng.uniform(1.2, 4.0, sp.n)
    if sp.infinite_diameter:
        values[sp.d0 > cap] = 2.5
    return sp, a, vx.PointFunction(values, "exponent")


def basepoint_loop_order(sp):
    """Point ids by basepoint distance, ties by id: a plain stable sort."""
    return sorted(range(sp.n), key=lambda y: (sp.d0[y], y))


class TestBasepointRowReaders:
    """Every reader of the sorted basepoint row against a plain loop over the
    points, bit for bit."""

    @given(basepoint_spaces())
    @settings(max_examples=80, deadline=None)
    def test_local_exponents_equal_loop(self, case):
        sp, a, p = case
        d0, pv = sp.d0, p.values
        cap = sp.L_eff if a is None or not sp.infinite_diameter else a
        beyond = [y for y in range(sp.n) if d0[y] > cap]
        p_c = pv[beyond[0]] if sp.infinite_diameter and beyond else None
        le = vx.local_exponents(sp, p, a)
        for x in range(sp.n):
            ball_min = min(pv[y] for y in range(sp.n) if d0[y] <= d0[x])
            ring = [pv[y] for y in range(sp.n) if d0[x] <= d0[y] <= cap]
            tail_min = min(ring) if ring else (pv[x] if p_c is None else p_c)
            capped = p_c if p_c is not None and d0[x] > cap else ball_min
            assert le.ball_min.values[x] == ball_min
            assert le.tail_min.values[x] == tail_min
            assert le.ball_min_capped.values[x] == capped

    @given(basepoint_spaces())
    @settings(max_examples=80, deadline=None)
    def test_muB0_equals_loop_and_ball(self, case):
        sp = case[0]
        order = basepoint_loop_order(sp)
        for x in range(sp.n):
            inside, total = [], 0.0
            for y in order:
                if sp.d0[y] < sp.d0[x]:
                    inside.append(y)
                    total += sp.mu[y]
            assert sp.muB0[x] == total
            # ``ball`` sums its members in id order with numpy's pairwise
            # sum, so its measure agrees to rounding, its members exactly
            b = vx.ball(sp, sp.x0, sp.d0[x])
            assert np.array_equal(b.members, np.sort(inside))
            assert sp.muB0[x] == pytest.approx(b.measure, rel=1e-12, abs=0.0)

    @given(basepoint_spaces())
    @settings(max_examples=80, deadline=None)
    def test_hardy_transforms_equal_loop(self, case):
        sp, _, _ = case
        rng = np.random.default_rng(sp.n)
        f = rng.uniform(-1.0, 2.0, (2, sp.n))
        v, w = (vx.PointFunction(rng.uniform(0.1, 3.0, sp.n), "weight") for _ in range(2))
        fwd = vx.hardy_transforms(sp, v, w, f)
        tail = vx.hardy_tail_transforms(sp, v, w, f)
        order = basepoint_loop_order(sp)
        for k in range(2):
            terms = [(y, f[k, y] * w.values[y] * sp.mu[y]) for y in order]
            for x in range(sp.n):
                below = above = 0.0
                for y, term in terms:
                    if sp.d0[y] < sp.d0[x]:
                        below += term
                # the tail is summed against the basepoint order, from the
                # farthest point in
                for y, term in reversed(terms):
                    if sp.d0[y] > sp.d0[x]:
                        above += term
                assert fwd[k, x] == below * v.values[x]
                assert tail[k, x] == above * v.values[x]


class TestBall:
    def test_zero_radius_open_is_empty(self):
        sp = vx.uniform_grid(16)
        b = vx.ball(sp, 3, 0.0)
        assert b.members.size == 0 and b.measure == 0.0

    def test_huge_radius_is_whole_space(self):
        sp = vx.uniform_grid(16)
        b = vx.ball(sp, 3, 5.0)
        assert b.members.size == 16
        assert b.measure == pytest.approx(sp.mu.sum())

    def test_grid_half_ball_measure(self):
        sp = vx.uniform_grid(1024)
        b = vx.ball(sp, 0, 0.5)
        assert abs(b.measure - 0.5) <= 1.0 / 1024
        assert b.members.size == len(brute_ball(sp, 0, 0.5))

    def test_closed_flag(self):
        sp = vx.uniform_grid(9)
        r = sp.d_from(0)[4]
        assert set(vx.ball(sp, 0, r, closed=True).members.tolist()) == brute_ball(sp, 0, r, True)
        assert set(vx.ball(sp, 0, r).members.tolist()) == brute_ball(sp, 0, r, False)

    def test_invalid_center(self):
        sp = vx.uniform_grid(8)
        with pytest.raises(DomainError):
            vx.ball(sp, 99, 0.5)

    @given(st.integers(2, 40), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_radius(self, n, r1, r2):
        if r1 > r2:
            r1, r2 = r2, r1
        sp = vx.uniform_grid(n)
        b1, b2 = vx.ball(sp, 0, r1), vx.ball(sp, 0, r2)
        assert set(b1.members.tolist()) <= set(b2.members.tolist())
        assert b1.measure <= b2.measure + 1e-15


@contextmanager
def sweep_threads(gate=None, cpus=2, entries=None):
    """The geometry sweep with its size gate at ``gate`` and its slices of
    ``entries`` distances on one thread or two (each kept if None), and
    ``cpus`` usable CPUs, whatever the machine has."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(os, "sched_getaffinity",
                                              lambda pid: set(range(cpus)), create=True))
        for name, value in (("_THREADED_FROM", gate),
                            ("_SLICE_ENTRIES", entries and (entries, entries))):
            if value is not None:
                stack.enter_context(mock.patch.object(space_module, name, value))
        yield


def check_report_equals_loops(sp, A, q):
    # repr: the same values and the same Python types
    got = vx.geometry_constants(sp, A=A, ahlfors_exponent=q)
    assert repr(got) == repr(reference_report(sp, A, q))


class TestGeometryAgainstPerCenterLoops:
    @given(geometry_spaces(), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 1.7]))
    @settings(max_examples=80, deadline=None)
    def test_report_equals_loops_exactly(self, sp, A, q):
        check_report_equals_loops(sp, A, q)

    @given(geometry_spaces(), st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from([0.5, 1.0, 1.7]))
    @settings(max_examples=80, deadline=None)
    def test_threaded_report_equals_loops_exactly(self, sp, A, q):
        # every space two threads wide, in 16-row slices, so that the fold
        # meets slice edges on these small spaces
        with sweep_threads(gate=0, entries=16 * sp.n):
            check_report_equals_loops(sp, A, q)

    @given(tied_spaces(st.integers(EXHAUSTIVE_TRIPLE_LIMIT + 1, EXHAUSTIVE_TRIPLE_LIMIT + 8)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_sampled_triples_equal_loops_exactly(self, sp, seed):
        got = vx.geometry_constants(sp, seed=seed, sample_triples=1000)
        assert repr(got) == repr(reference_report(sp, 2.0, 1.0, seed=seed, sample_triples=1000))

    @given(tied_spaces(st.integers(10, 40), modes=("on searched radii",)),
           st.sampled_from([1.5, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_distances_on_searched_radii(self, sp, A):
        # the searched radii are rounded as the loops round them
        g = vx.geometry_constants(sp, A=A)
        got = (g.doubling_c, g.rdc_B, g.doubling_witness, g.rdc_witness)
        assert repr(got) == repr(reference_doubling(sp, A))

    def test_largest_ratio_just_short_of_the_whole_space(self):
        # From 0, B[0, 0.96] takes the heavy point 3 and B[0, 1.0] is the
        # whole space: the sup sits at r = 0.48, the last radius read in row
        # 0.  Every other row reaches the whole space from its first radius.
        dist = np.array([[0.0, 0.46, 0.48, 0.94, 1.0],
                         [0.7, 0.0, 0.8, 0.6, 1.0],
                         [0.7, 0.8, 0.0, 0.6, 1.0],
                         [0.6, 0.7, 0.8, 0.0, 1.0],
                         [0.7, 0.8, 1.0, 0.6, 0.0]])
        sp = vx.explicit_space(dist, [1.0, 1.0, 1.0, 100.0, 1.0], 0, 1.0)
        g = vx.geometry_constants(sp)
        assert g.doubling_c == 103 / 3 and g.doubling_witness == (0, 0.48)
        got = (g.doubling_c, g.rdc_B, g.doubling_witness, g.rdc_witness)
        assert repr(got) == repr(reference_doubling(sp, 2.0))

    @given(line_spaces(st.integers(2, 40), below_neighbours=True), st.sampled_from([1.5, 3.0]))
    @settings(max_examples=20, deadline=None)
    def test_no_radius_below_the_cap(self, sp, A):
        # L_eff / A under every nearest-neighbour distance: nothing to sweep
        assert sp.L_eff / A < np.diff(np.sort(sp.coords)).min()
        g = vx.geometry_constants(sp, A=A)
        assert (g.rdc_B, g.rdc_witness) == (np.inf, ())

    @pytest.mark.parametrize("A, q", [(2.0, 1.0), (1.5, 0.5), (3.0, 1.0)])
    def test_subnormal_largest_distances(self, A, q):
        # the whole-space radius 1.000001 d rounds back to a subnormal largest
        # distance d, so that row's ball is counted: on a line of subnormal
        # coordinates for every row, in an asymmetric table for rows 0 and 2
        # of one block whose rows 1 and 3 have normal largest distances.
        # The measures are small enough that mu B / r**q stays finite.
        tiny = 5e-324
        line = vx.DiscreteSpace(None, np.array([1.0, 2.0, 3.0, 0.5, 1.5]) * 1e-30, 2, 1e-320,
                                coords=np.array([0.0, 1.0, 3.0, 4.0, 9.0]) * tiny)
        dist = np.array([[0.0, 2.0, 1.0, 3.0],
                         [0.5, 0.0, 1.5, 0.25],
                         [3.0, 1.0, 0.0, 2.0],
                         [0.75, 1.25, 0.5, 0.0]])
        dist[[0, 2]] *= tiny
        table = vx.explicit_space(dist, np.array([1.0, 0.3, 2.0, 0.7]) * 1e-30, 0, 1.0)
        for sp in (line, table):
            assert repr(vx.geometry_constants(sp, A=A, ahlfors_exponent=q)) \
                == repr(reference_report(sp, A, q))
        # d(1, 0) / d(0, 1) = 0.5 / 1e-323 overflows: the asymmetry is infinite,
        # first attained at (1, 0)
        g = vx.geometry_constants(table, A=A, ahlfors_exponent=q)
        assert g.a0 == np.inf and g.a0_pair == (1, 0)

    def test_single_point(self):
        sp = vx.explicit_space([[0.0]], [1.0], 0, 1.0)
        with pytest.raises(DomainError):
            vx.geometry_constants(sp)


def tied_table(n, seed=0, constant_mu=False):
    """An n-point asymmetric table of five distinct distances, uneven weights
    (or 1/n each) and a diameter below the largest distance."""
    rng = np.random.default_rng(seed)
    dist = rng.uniform(0.2, 1.3, 5)[rng.integers(0, 5, (n, n))]
    np.fill_diagonal(dist, 0.0)
    mu = np.full(n, 1.0 / n) if constant_mu else rng.uniform(0.1, 1.0, n)
    return vx.explicit_space(dist, mu, 0, 0.8)


def uneven_line(n, seed=0):
    """An n-point ``euclidean1d`` line space: shuffled coordinates on a 0.25
    lattice with uneven gaps, uneven weights, the basepoint inside."""
    rng = np.random.default_rng(seed)
    coords = rng.permutation(np.cumsum(rng.integers(1, 4, n) * 0.25))
    return vx.DiscreteSpace(dist=None, mu=rng.uniform(0.1, 1.0, n), x0=int(rng.integers(0, n)),
                            L=float(np.ptp(coords)), coords=coords)


class ThreadLog:
    """A block consumer noting each block's first row and the thread that
    read it."""

    def __init__(self):
        self.reads = []

    def __call__(self, blk):
        self.reads.append((blk.start, threading.get_ident()))


def on_helper(action):
    """A block consumer running ``action`` on the helper thread's first block;
    the calling thread's blocks wait until it has run, so the helper reads
    one block whatever the scheduling."""
    ran = threading.Event()

    def consume(blk):
        if threading.current_thread() is threading.main_thread():
            assert ran.wait(timeout=10)
        elif not ran.is_set():
            ran.set()
            action()
    return consume


def slice_starts(n, threaded):
    """The first rows of the geometry sweep's slices of an n-point space, on
    two threads or one."""
    return list(range(0, n, max(1, _SLICE_ENTRIES[threaded] // n)))


class TestThreadedSweep:
    @pytest.mark.parametrize("make", [lambda: vx.uniform_grid(300), lambda: vx.uniform_grid(1000),
                                      lambda: vx.uniform_grid(1100), lambda: vx.cantor_space(11),
                                      lambda: tied_table(1100), lambda: uneven_line(1100),
                                      lambda: tied_table(1100, constant_mu=True)],
                             ids=["grid300", "grid1000", "grid", "cantor", "tied", "line",
                                  "tied-constant"])
    def test_same_report_threaded_or_not(self, make):
        # 218, 65, 59, 32, 59, 59 and 59 rows a slice on two threads, half as
        # many on one.  With the gate lowered and two CPUs the sweep runs on
        # two threads; with the gate raised, or one CPU, on the calling
        # thread: the same report as the per-center loops.  The grids, the
        # Cantor set and the constant-weight table read one shared prefix
        # row; the uneven line and table sum a prefix per row
        sp = make()
        reports, logs = [], []
        for gate, cpus in ((0, 2), (sp.n + 1, 2), (0, 1)):
            log = ThreadLog()
            with sweep_threads(gate, cpus):
                reports.append(repr(vx.geometry_constants(sp, sample_triples=10**4,
                                                          _consumers=(log,))))
            logs.append(log.reads)
        assert reports == [repr(reference_report(sp, 2.0, 1.0, sample_triples=10**4))] * 3
        # the same slices on every path: each read once, on the calling
        # thread or on one helper, and in order on the calling thread alone
        main = threading.get_ident()
        assert sorted(start for start, _ in logs[0]) == slice_starts(sp.n, True)
        threads = {ident for _, ident in logs[0]}
        assert main in threads and len(threads) <= 2
        for serial in logs[1:]:
            assert serial == [(start, main) for start in slice_starts(sp.n, False)]

    def test_gate_from_1024_points(self):
        # with two usable CPUs a 1024-point space is read on two threads
        # (the calling thread waits for the helper's first slice), a
        # 1023-point one on the calling thread alone, in order
        main = threading.get_ident()
        for n, wait in ((1024, on_helper(lambda: None)), (1023, lambda blk: None)):
            log = ThreadLog()
            with sweep_threads(cpus=2):
                vx.geometry_constants(vx.uniform_grid(n), _consumers=(log, wait))
            assert sorted(start for start, _ in log.reads) == slice_starts(n, n == 1024)
            if n == 1024:
                threads = {ident for _, ident in log.reads}
                assert main in threads and len(threads) == 2
            else:
                assert log.reads == [(start, main) for start in slice_starts(n, False)]

    def test_slow_thread_reads_fewer_slices(self):
        # the threads take slices as they come free: a helper held on its
        # first block until the caller has read all 18 other slices leaves
        # them to the caller, where a fixed split would wait for it on every
        # other slice (and the held helper would time out)
        sp = vx.uniform_grid(1100)
        log, rest = ThreadLog(), threading.Event()
        main = threading.get_ident()

        def held(blk):
            log(blk)
            if threading.get_ident() != main:
                assert rest.wait(timeout=10)
            elif sum(ident == main for _, ident in log.reads) == len(slice_starts(sp.n, True)) - 1:
                rest.set()

        with sweep_threads(gate=0):
            vx.geometry_constants(sp, _consumers=(held,))
        assert sorted(start for start, _ in log.reads) == slice_starts(sp.n, True)
        assert len([start for start, ident in log.reads if ident != main]) <= 1

    @pytest.mark.parametrize("gate", [None, 1101], ids=["threaded", "serial"])
    def test_each_row_sorted_once(self, gate):
        # the geometry sweep and the Muckenhoupt functional it feeds read
        # every distance row from one sort, on two threads or one
        sp = vx.uniform_grid(1100)
        rows, sort = Counter(), _sorted_rows

        def counted(space, start, stop):
            rows.update(range(start, stop))
            return sort(space, start, stop)

        sup = _Muckenhoupt(sp, vx.PointFunction(1.0 + sp.coords, "weight"), 2.0)
        with sweep_threads(gate), mock.patch.object(space_module, "_sorted_rows", counted):
            vx.geometry_constants(sp, _consumers=(sup,))
        assert rows == Counter(range(sp.n))
        assert repr(sup.value) == repr(vx.muckenhoupt_ar(sp, vx.PointFunction(1.0 + sp.coords,
                                                                              "weight"), 2.0))

    def test_muckenhoupt_keeps_every_raise(self):
        # 16 threads raise one Muckenhoupt value at once, a row each, with
        # the interpreter switching threads every microsecond: every round
        # must end at the largest row sup (without the lock a raise was lost
        # in about one round of fifty)
        sp = vx.uniform_grid(64)
        w = vx.PointFunction(np.random.default_rng(3).uniform(0.1, 10.0, sp.n), "weight")
        blocks = [next(_sorted_row_blocks(sp, i, i + 1)) for i in range(16)]
        want = _Muckenhoupt(sp, w, 2.0)
        for blk in blocks:
            want(blk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                sup, start = _Muckenhoupt(sp, w, 2.0), threading.Barrier(len(blocks))

                def raise_one(blk, sup=sup, start=start):
                    start.wait(timeout=10)
                    sup(blk)

                threads = [threading.Thread(target=raise_one, args=(blk,)) for blk in blocks]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert sup.value == want.value
        finally:
            sys.setswitchinterval(interval)

    def test_helper_failure_reaches_caller(self):
        # a slice on the helper thread raises: the caller raises it, and no
        # thread is left behind
        sp = vx.uniform_grid(1100)

        def fail():
            raise KeyError("helper slice")

        before = threading.active_count()
        with sweep_threads(gate=0), pytest.raises(KeyError, match="helper slice"):
            vx.geometry_constants(sp, _consumers=(on_helper(fail),))
        assert threading.active_count() == before

    def test_caller_failure_stops_helper(self):
        # the calling thread raises in its first slice: the helper stops
        # after the slice it is reading instead of reading the other 18
        sp = vx.uniform_grid(1100)
        raised, helper = threading.Event(), []

        def fail(blk):
            if threading.current_thread() is threading.main_thread():
                raised.set()
                raise KeyError("caller slice")
            helper.append(blk.start)
            assert raised.wait(timeout=10)

        before = threading.active_count()
        with sweep_threads(gate=0), pytest.raises(KeyError, match="caller slice"):
            vx.geometry_constants(sp, _consumers=(fail,))
        assert threading.active_count() == before
        assert len(helper) <= 2

    @pytest.mark.parametrize("cpus", [2, 1], ids=["threaded", "serial"])
    def test_caller_interrupt_reaches_caller(self, cpus):
        # a KeyboardInterrupt in the calling thread's first slice stops the
        # helper after the slice it is reading, and the caller raises it
        # once no thread is left behind, on two threads or one
        sp = vx.uniform_grid(1100)
        raised, helper = threading.Event(), []

        def interrupt(blk):
            if threading.current_thread() is threading.main_thread():
                raised.set()
                raise KeyboardInterrupt
            helper.append(blk.start)
            assert raised.wait(timeout=10)

        before = threading.active_count()
        with sweep_threads(gate=0, cpus=cpus), pytest.raises(KeyboardInterrupt):
            vx.geometry_constants(sp, _consumers=(interrupt,))
        assert threading.active_count() == before
        assert len(helper) <= (2 if cpus == 2 else 0)

    def test_helper_warning_reaches_caller(self):
        # the helper runs under the caller's numpy error state and warning
        # filters: a division by zero in a helper slice warns, raises as an
        # error::RuntimeWarning, or raises a FloatingPointError under
        # np.errstate(divide="raise"), each on the calling thread
        sp = vx.uniform_grid(1100)
        states = []

        def divide():
            states.append(np.geterr())
            np.log(np.zeros(1))

        before = threading.active_count()
        with sweep_threads(gate=0):
            with pytest.warns(RuntimeWarning, match="divide by zero"):
                vx.geometry_constants(sp, _consumers=(on_helper(divide),))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="divide by zero"):
                    vx.geometry_constants(sp, _consumers=(on_helper(divide),))
            with np.errstate(divide="raise", under="ignore"), pytest.raises(FloatingPointError):
                vx.geometry_constants(sp, _consumers=(on_helper(divide),))
        assert len(states) == 3
        assert states[2]["divide"] == "raise" and states[2]["under"] == "ignore"
        assert threading.active_count() == before


def one_ulp_off(sp, at):
    """``sp`` with the weight at ``at`` one ulp above the others."""
    mu = sp.mu.copy()
    mu[at] = np.nextafter(mu[at], np.inf)
    return dataclasses.replace(sp, mu=mu)


class TestSharedPrefixRow:
    @pytest.mark.parametrize("make, shared", [
        (lambda: vx.uniform_grid(200), True), (lambda: vx.cantor_space(7), True),
        (lambda: tied_table(150, constant_mu=True), True),
        (lambda: one_ulp_off(vx.uniform_grid(200), 117), False),
        (lambda: one_ulp_off(tied_table(150, constant_mu=True), 0), False),
    ], ids=["grid", "cantor", "tied-constant", "grid-ulp-off", "tied-ulp-off"])
    def test_prefix_equals_per_row_cumsum(self, make, shared):
        # with every weight equal each block's prefix is the one shared row,
        # read-only, and holds the bits of a cumsum over each row's order;
        # a weight one ulp off sums a writable prefix per row
        sp = make()
        assert (sp._constant_prefix is not None) == shared
        for start, stop in ((0, 1), (3, 73), (sp.n - 5, sp.n)):
            blk = _sorted_rows(sp, start, stop)
            want = np.zeros((stop - start, sp.n + 1))
            np.cumsum(sp.mu.take(blk.order), axis=1, out=want[:, 1:])
            assert np.ascontiguousarray(blk.prefix).tobytes() == want.tobytes()
            if shared:
                assert blk.prefix.strides[0] == 0
                with pytest.raises(ValueError, match="read-only"):
                    blk.prefix[0, 1] = 0.0
            else:
                assert blk.prefix.flags.writeable

    @pytest.mark.parametrize("shared", [True, False], ids=["constant", "ulp-off"])
    def test_sweep_sums_no_block(self, shared):
        # the constant-weight sweep of 38 slices calls np.cumsum once, for
        # the shared row; a weight one ulp off calls it once per slice
        sp = vx.uniform_grid(1100)
        sp = sp if shared else one_ulp_off(sp, 500)
        with sweep_threads(gate=sp.n + 1), \
                mock.patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
            vx.geometry_constants(sp)
        assert cumsum.call_count == (1 if shared else len(slice_starts(sp.n, False)))


class TestGeometryConstants:
    def test_metric_grid(self):
        g = vx.geometry_constants(vx.uniform_grid(64))
        assert g.a0 == pytest.approx(1.0)
        assert g.a1 <= 1.0 + 1e-9

    def test_squared_distance_doubles_a1(self):
        c = np.linspace(0, 1, 65)
        sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]) ** 2, np.full(65, 1 / 65), 0, 1.0)
        # (u+v)^2 <= 2(u^2+v^2), tight at u = v; brute force over triples agrees
        g = vx.geometry_constants(sp)
        assert g.a1 == pytest.approx(2.0, abs=0.05)

    def test_asymmetric_pair(self):
        sp = vx.explicit_space([[0.0, 2.0], [1.0, 0.0]], [0.5, 0.5], 0, 2.0)
        assert vx.geometry_constants(sp).a0 == pytest.approx(2.0)

    def test_sampler_honours_sample_triples(self):
        # a smaller budget reads the first triples of the same seeded stream
        sp = vx.uniform_grid(520)
        d, n = sp.rows(0, sp.n), sp.n
        rng = np.random.default_rng(0)
        xs, ys, zs = (rng.integers(0, n, 1000) for _ in range(3))
        denom = d[xs, zs] + d[zs, ys]
        r = np.divide(d[xs, ys], denom, out=np.full(1000, -np.inf), where=denom > 0)
        j = int(r.argmax())
        expected = (float(r[j]), (int(xs[j]), int(ys[j]), int(zs[j])))
        assert _a1(sp, 0, 1000) == expected

    def test_sampled_path_matches_exhaustive(self):
        # a table of n just above the exhaustive limit uses the seeded sampler
        c = vx.uniform_grid(520).coords
        sp = vx.explicit_space(np.abs(c[:, None] - c[None, :]), np.full(520, 1 / 520), 0, 1.0)
        g = vx.geometry_constants(sp, sample_triples=200_000)
        assert g.a0 == pytest.approx(1.0)
        assert 0.99 <= g.a1 <= 1.0 + 1e-9


class TestDoublingReverseDoubling:
    def test_grid_doubling_near_two(self):
        for n in (128, 512):
            d = vx.geometry_constants(vx.uniform_grid(n), A=2.0).doubling_c
            assert abs(d - 2.0) <= 4.0 / n

    def test_single_point_errors(self):
        sp = vx.explicit_space([[0.0]], [1.0], 0, 1.0)
        with pytest.raises(DomainError):
            vx.geometry_constants(sp, A=2.0)

    def test_grid_reverse_doubling_above_one(self):
        sp = vx.uniform_grid(256)
        g = vx.geometry_constants(sp, A=2.0)
        rdc, wit = g.rdc_B, g.rdc_witness
        assert rdc > 1.0
        # minimum attained near the middle of the interval at a large radius
        x, r = wit
        assert abs(sp.coords[x] - 0.5) < 0.1 and r > 0.4


class TestAhlfors:
    def test_grid_exponent_one(self):
        g = vx.geometry_constants(vx.uniform_grid(512), ahlfors_exponent=1.0)
        c1, c2 = g.ahlfors_upper_c1, g.ahlfors_lower_c2
        assert c1 == pytest.approx(2.0, abs=0.02)
        assert c2 == pytest.approx(1.0, abs=0.02)

    def test_two_point_space_no_failure(self):
        sp = vx.explicit_space([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], 0, 1.0)
        g = vx.geometry_constants(sp, ahlfors_exponent=1.0)
        assert np.isfinite(g.ahlfors_upper_c1) and np.isfinite(g.ahlfors_lower_c2)

    def test_cantor_measure(self):
        sp = vx.cantor_space(8)
        q = np.log(2) / np.log(3)
        g = vx.geometry_constants(sp, ahlfors_exponent=q)
        assert 0.3 <= g.ahlfors_lower_c2 <= g.ahlfors_upper_c1 <= 4.0


class TestComparisonAnnulus:
    def test_direct_substitution(self):
        sp = vx.uniform_grid(512)
        x = int(np.argmin(np.abs(sp.coords - 0.1)))
        members, degenerate = vx.comparison_annulus(sp, x, 2.0, a1=1.0)
        dx = sp.d0[x]
        assert not degenerate
        inside = (sp.d0 >= dx / 4) & (sp.d0 <= 4 * dx)
        assert set(members.tolist()) == set(np.flatnonzero(inside).tolist())

    def test_basepoint_degenerates(self):
        sp = vx.uniform_grid(64)
        members, degenerate = vx.comparison_annulus(sp, 0, 2.0)
        assert degenerate and members.tolist() == [0]

    def test_contains_x_everywhere(self):
        sp = vx.uniform_grid(128)
        for x in range(sp.n):
            members, _ = vx.comparison_annulus(sp, x, 2.0, a1=1.0)
            assert x in set(members.tolist())

    @pytest.mark.parametrize("a1", [0.0, -1.0])
    def test_rejects_nonpositive_quasi_triangle_constant(self, a1):
        # a1 = 0 divides by zero, a1 < 0 empties every annulus but the
        # basepoint's
        sp = vx.uniform_grid(16)
        with pytest.raises(DomainError, match="quasi-triangle"):
            vx.comparison_annulus(sp, 3, 2.0, a1=a1)


class TestSpaceValidation:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            vx.explicit_space([[0.1, 1.0], [1.0, 0.0]], [0.5, 0.5], 0, 1.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValidationError):
            vx.explicit_space([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.0], 0, 1.0)

    def test_rejects_offdiagonal_zero(self):
        with pytest.raises(ValidationError):
            vx.explicit_space([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5], 0, 1.0)

    @pytest.mark.parametrize("dist, message", [
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], "square"),
        ([[0.0, -1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "nonnegative"),
        ([[0.0, 1.0, np.nan], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "finite"),
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 1e-300]], "dist\\(x, x\\) must be 0"),
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]], "separation"),
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, -0.0, 0.0]], "separation"),
    ])
    def test_each_table_check_names_its_fault(self, dist, message):
        with pytest.raises(ValidationError, match=message):
            vx.DiscreteSpace(dist=np.array(dist), mu=np.full(len(dist), 0.5), x0=0, L=2.0)

    @pytest.mark.parametrize("coords, message", [
        ([0.0, 1.0, -0.0], "separation"),
        ([0.0, np.nan, 1.0], "finite"),
        ([-1e308, 0.0, 1e308], "finite"),
        ([[0.0, 1.0, 2.0]], "one vector"),
        (None, "table or coordinates"),
    ])
    def test_each_coordinate_check_names_its_fault(self, coords, message):
        with pytest.raises(ValidationError, match=message):
            vx.DiscreteSpace(dist=None, mu=np.full(3, 0.5), x0=0, L=2.0, coords=coords)

    def test_infinite_needs_truncation(self):
        with pytest.raises(ValidationError):
            vx.DiscreteSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                             mu=np.array([0.5, 0.5]), x0=0, L=np.inf)

    @pytest.mark.parametrize("table", [False, True], ids=["line", "table"])
    def test_rejects_weights_whose_total_overflows(self, table):
        # each weight finite, their total not: the sweep's ball measures
        # would reach inf and read as doubling_c = 0, rdc_B = c1 = c2 = inf
        coords = np.linspace(0.0, 1.0, 1100)
        dist = np.abs(coords[:, None] - coords[None, :]) if table else None
        with pytest.raises(ValidationError, match="finite total"):
            vx.DiscreteSpace(dist=dist, mu=np.full(1100, 1e306), x0=0, L=1.0, coords=coords)


class TestSpaceFromSpec:
    def test_generator_roundtrip(self):
        sp = vx.space_from_spec({"generator": "uniform-grid", "n": 32})
        assert sp.n == 32 and sp.L == 1.0

    def test_explicit_euclidean(self):
        spec = {
            "points": [{"id": "a", "coord": 0.0}, {"id": "b", "coord": 0.5},
                       {"id": "c", "coord": 1.0}],
            "metric": "euclidean1d",
            "mu": [0.25, 0.5, 0.25],
            "x0": "b",
            "L": 1.0,
        }
        sp = vx.space_from_spec(spec)
        assert sp.x0 == 1
        assert sp.d_from(0)[2] == pytest.approx(1.0)

    def test_lebesgue_grid_rule(self):
        spec = {"points": [{"id": i, "coord": i / 3} for i in range(4)],
                "metric": "euclidean1d", "mu": "lebesgue-grid", "x0": 0, "L": 1.0}
        sp = vx.space_from_spec(spec)
        assert np.allclose(sp.mu, 0.25)

    def test_infinite_sentinel(self):
        spec = {"points": [{"id": i, "coord": float(i)} for i in range(4)],
                "metric": "euclidean1d", "mu": "lebesgue-grid", "x0": 0,
                "L": "inf", "trunc_radius": 3.0}
        sp = vx.space_from_spec(spec)
        assert sp.infinite_diameter and sp.L_eff == 3.0

    def test_explicit_row_major_table(self):
        spec = {"points": [{"id": 0}, {"id": 1}, {"id": 2}],
                "metric": "explicit",
                "dist": [0.0, 1.0, 3.0, 2.0, 0.0, 1.0, 3.0, 1.0, 0.0],
                "mu": [0.2, 0.3, 0.5], "x0": 0, "L": 3.0}
        sp = vx.space_from_spec(spec)
        assert sp.dist[0, 2] == 3.0 and sp.dist[1, 0] == 2.0
        # the worst asymmetry in the table is d(1,0)/d(0,1) = 2
        assert vx.geometry_constants(sp).a0 == pytest.approx(2.0)

    @pytest.mark.parametrize("spec, field", [
        ({"generator": "uniform-grid", "n": "abc"}, "space.n"),
        ({"generator": "uniform-grid", "n": 2.5}, "space.n"),
        ({"generator": "uniform-grid", "n": None}, "space.n"),
        ({"generator": "uniform-grid", "n": True}, "space.n"),
        ({"generator": "uniform-grid", "n": 1}, "space.n"),
        ({"generator": "cantor", "depth": "3"}, "space.depth"),
        ({"generator": "cantor", "depth": 0}, "space.depth"),
        ({"generator": "cantor", "depth": 2.0}, "space.depth"),
    ])
    def test_generator_sizes_name_their_field(self, spec, field):
        # an integer that is not a bool: n >= 2, depth >= 1
        with pytest.raises(ValidationError, match=field):
            vx.space_from_spec(spec)

    def test_unknown_metric_names_field(self):
        with pytest.raises(ValidationError, match="metric"):
            vx.space_from_spec({"points": [{"id": 0}], "metric": "hyperbolic"})
