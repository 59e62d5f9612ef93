"""Empirical boundedness checks: norm-ratio probes and refinement studies
pairing condition values with ratios.

Every ratio reported here is a lower bound on the true operator norm between
the weighted spaces; claims are therefore framed as trends across
resolutions, never as exact norms.  All sampling is seeded and the probe
order is fixed, so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .conditions import classify_trend
from .errors import DomainError, PreconditionError
from .exponents import PointFunction, conjugate
from .norms import REL_TOL, luxemburg_norms
from .space import DiscreteSpace, _distinct

__all__ = ["NormEstimate", "empirical_ratio", "refinement_study", "StudyReport"]

# radial power profiles mixed into the probe family
_PROBE_POWERS = np.round(np.arange(-0.4, 0.95, 0.1), 10)
_MAX_BALL_PROBES = 64
# seeded random mixtures closing the probe family
_MIXTURES = 8
# weighted blocks stay below 2**_TOP, with room above for their norms
_TOP = 960
# below this a float's spacing exceeds the norms' tolerance times the ratio
_LEAST_RATIO = np.finfo(float).smallest_subnormal / REL_TOL


@dataclass
class NormEstimate:
    ratio: float
    best_f: Optional[PointFunction]
    method: str
    trials: int
    discarded: int = 0
    converged: bool = True


def empirical_ratio(space: DiscreteSpace, op: Callable[[np.ndarray], np.ndarray],
                    p: PointFunction, q: PointFunction, v: PointFunction,
                    w: PointFunction, seed: int = 0) -> NormEstimate:
    """Best ratio ||v Op f||_q / ||w f||_p over a fixed table of probes.

    Its ball cuts are one (R, n) mask d0 <= r at up to 64 quantile radii r.
    Rows, in order: the R ball indicators; radial powers d0**s, s in
    -0.4..0.9; when w > 0, the R conjugate weights w**(-p') cut to the
    balls, formed in logs and scaled to peak 1 on their ball (the ratio does
    not depend on a row's scale); 8 mixtures of ball indicators, powers and
    point masses drawn from ``seed``: 2R + 22 <= 150 rows, or R + 22.
    Probes with vanishing weighted norm are discarded and counted.

    Every denominator ||w f||_p is taken first, then every numerator, each
    weighted block scaled by a power of four (``_scale``).  ``op`` maps
    a (P, n) block of probes, one per row, to the block of their images; it
    is called once, on the probes with a nonzero denominator, in probe
    order.  ``converged`` is False when any of those norms stopped short of
    its tolerance.  A positive ratio that scales back to inf, or below
    ``_LEAST_RATIO``, where the spacing of the floats exceeds the norms'
    ``REL_TOL`` (0 and the subnormals below about 4.9e-314), raises
    ``FloatingPointError``.
    """
    d0, n = space.d0, space.n
    radii = _distinct(d0)
    if radii.size > _MAX_BALL_PROBES:
        radii = _distinct(np.quantile(radii, np.linspace(0.0, 1.0, _MAX_BALL_PROBES),
                                      method="nearest"))
    balls = d0 <= radii[:, None]
    dre = space.radial_distances()
    probes = [balls.astype(float)] + [dre ** s for s in _PROBE_POWERS]
    if np.all(w.values > 0):
        # log w**(-p') up to a constant, from w / w(x0) in binary mantissas
        # and exponents: no quotient leaves the floats, and at constant p a
        # rescaling of w by a power of two leaves every bit
        pc, (m, e), x0 = conjugate(p).values, np.frexp(w.values), space.x0
        logs = -pc * (np.log(m / m[x0]) + (e - e[x0]) * np.log(2.0)) \
            + (pc[x0] - pc) * np.log(w.values[x0])
        logs = np.where(balls, logs, -np.inf)
        logs -= logs.max(axis=1, keepdims=True)
        probes.append(np.exp(logs, out=logs))
    rng = np.random.default_rng(seed)
    for _ in range(_MIXTURES):
        f = rng.uniform(0.0, 1.0) * (d0 <= rng.choice(radii)).astype(float)
        f = f + rng.uniform(0.0, 1.0) * dre ** rng.choice(_PROBE_POWERS)
        masses = rng.integers(0, n, size=3)
        f[masses] += rng.uniform(0.5, 2.0, size=3)
        probes.append(f)

    block = np.vstack(probes)
    kw = _scale(w.values, block)
    dens = luxemburg_norms(space, p, np.ldexp(w.values, -kw) * block)
    kept = [i for i, den in enumerate(dens) if den.value != 0.0]
    outs = np.asarray(op(block[kept]), dtype=float)
    if outs.shape != (len(kept), n):
        raise DomainError(f"operator must map a ({len(kept)}, {n}) block to one of that shape, "
                          f"got {outs.shape}")
    kv = _scale(v.values, outs)
    nums = luxemburg_norms(space, q, np.ldexp(v.values, -kv) * outs)
    ratios = [num.value / dens[i].value for i, num in zip(kept, nums)]
    best = max(ratios, default=0.0)
    best_f = PointFunction(block[kept[ratios.index(best)]], "test") if best > 0.0 else None
    with np.errstate(over="ignore"):
        ratio = float(np.ldexp(best, kv - kw))
    if best > 0.0 and not _LEAST_RATIO <= ratio < np.inf:
        raise FloatingPointError(
            f"the ratio {best!r} * 2**{kv - kw} of the scaled norms lies outside "
            f"[{_LEAST_RATIO:.3g}, inf), where a float holds it to the norms' tolerance "
            f"{REL_TOL:g}")
    return NormEstimate(ratio, best_f, "probe", len(block),
                        discarded=len(block) - len(kept),
                        converged=all(res.converged for res in dens + nums))


def _scale(weight: np.ndarray, rows: np.ndarray) -> int:
    """The least even k >= 0 that keeps max(weight) max |rows| 2**-k below
    2**_TOP.  A power of four scales every Luxemburg norm exactly, the
    bisection's square roots included."""
    peak = max(rows.max(initial=0.0), -rows.min(initial=0.0))
    k = max(0, int(np.frexp(weight.max())[1] + np.frexp(peak)[1]) - _TOP)
    return k + k % 2


@dataclass
class StudyReport:
    resolutions: List[int]
    condition_values: dict
    ratios: List[Optional[float]]
    geometry: List[dict]
    condition_trends: dict
    ratio_trend: str
    # the finest resolution's condition reports (curves included); not serialized
    reports: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "resolutions": list(self.resolutions),
            "condition_values": {k: list(v) for k, v in self.condition_values.items()},
            "ratios": list(self.ratios),
            "geometry": list(self.geometry),
            "condition_trends": dict(self.condition_trends),
            "ratio_trend": self.ratio_trend,
        }


def refinement_study(scenario, resolutions: Sequence[int]) -> StudyReport:
    """Re-run a scenario's conditions and empirical ratio across strictly
    increasing resolutions and classify each series as bounded / divergent /
    undecided by the two-resolution trend rule.  Each resolution must
    materialize more points than the one before: a space that ignores the
    resolution would yield a flat series, read as bounded.  The ratio trend
    is undecided when any ratio's norms did not converge."""
    res = [int(r) for r in resolutions]
    if len(res) < 3 or any(b <= a for a, b in zip(res, res[1:])):
        raise PreconditionError("resolutions must be strictly increasing with >= 3 entries")
    cond_values: dict = {}
    ratios: List[Optional[float]] = []
    geometry: List[dict] = []
    points = 0
    converged = True
    for n in res:
        mat = scenario.materialize(n)
        if mat.space.n <= points:
            raise PreconditionError(
                f"scenario.resolutions: resolution {n} gives {mat.space.n} points, no more "
                f"than the {points} before it; the space does not refine")
        points = mat.space.n
        reports = mat.evaluate_conditions()
        for name, rep in reports.items():
            cond_values.setdefault(name, []).append(rep.value)
        est = mat.evaluate_ratio()
        ratios.append(None if est is None else est.ratio)
        converged = converged and (est is None or est.converged)
        geometry.append(mat.geometry_summary())
    cond_trends = {k: classify_trend(v) for k, v in cond_values.items()}
    ratio_vals = [r for r in ratios if r is not None]
    # a ratio whose norms stopped short of their tolerance cannot carry a trend
    ratio_trend = classify_trend(ratio_vals) if len(ratio_vals) >= 2 and converged \
        else "undecided"
    return StudyReport(res, cond_values, ratios, geometry, cond_trends, ratio_trend, reports)
