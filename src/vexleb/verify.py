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
from .norms import luxemburg_norms
from .space import DiscreteSpace, _distinct

__all__ = [
    "NormEstimate",
    "empirical_ratio",
    "refinement_study",
    "StudyReport",
]

# radial power profiles mixed into the probe family
_PROBE_POWERS = np.round(np.arange(-0.4, 0.95, 0.1), 10)
_MAX_BALL_PROBES = 64


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
                    w: PointFunction, trials: int = 32, seed: int = 0) -> NormEstimate:
    """Best ratio ||v Op f||_q / ||w f||_p over the fixed probe family plus
    seeded random fields.

    Probes, in order: indicators of closed basepoint balls at up to 64
    quantile radii, radial powers d0**s for s in -0.4..0.9, the conjugate
    weight functions w**(-p'(.)) cut to the same balls (each scaled by its
    largest entry when w**(-p') overflows), then ``trials`` random
    nonnegative mixtures of ball indicators, powers and point masses.
    Probes with vanishing weighted norm are discarded and counted.

    The norms are taken in two batches: every denominator ||w f||_p first,
    then every numerator.  ``op`` maps a (P, n) block of test functions, one
    per row, to the (P, n) block of their images; it is called once, on the
    probes with a nonzero denominator, in probe order.  ``converged`` is
    False when any of those norms stopped short of its tolerance.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    d0 = space.d0
    radii = _distinct(d0)
    if radii.size > _MAX_BALL_PROBES:
        qs = np.linspace(0.0, 1.0, _MAX_BALL_PROBES)
        radii = np.quantile(radii, qs, method="nearest")
        radii = _distinct(radii)
    dre = space.radial_distances()

    probes: List[np.ndarray] = []
    for r in radii:
        probes.append((d0 <= r).astype(float))
    for s in _PROBE_POWERS:
        probes.append(dre ** s)
    if np.all(w.values > 0):
        pc = conjugate(p).values
        with np.errstate(over="ignore"):
            wconj = w.values ** (-pc)
        finite = np.all(np.isfinite(wconj))
        for r in radii:
            ball = d0 <= r
            if finite:
                probes.append(wconj * ball)
            else:
                # w**(-p') leaves the floats: the row in logs, scaled by its
                # largest entry on the ball, which leaves its ratio unchanged
                logs = -pc[ball] * np.log(w.values[ball])
                row = np.zeros_like(wconj)
                row[ball] = np.exp(logs - logs.max())
                probes.append(row)

    rng = np.random.default_rng(seed)
    n = space.n
    for _ in range(trials):
        f = rng.uniform(0.0, 1.0) * (d0 <= rng.choice(radii)).astype(float)
        f = f + rng.uniform(0.0, 1.0) * dre ** rng.choice(_PROBE_POWERS)
        masses = rng.integers(0, n, size=3)
        f[masses] += rng.uniform(0.5, 2.0, size=3)
        probes.append(f)

    block = np.array(probes)
    dens = luxemburg_norms(space, p, w.values * block)
    kept = [i for i, den in enumerate(dens) if den.value != 0.0]
    outs = np.asarray(op(block[kept]), dtype=float)
    if outs.shape != (len(kept), n):
        raise DomainError(f"operator must map a ({len(kept)}, {n}) block to one of that shape, "
                          f"got {outs.shape}")
    nums = luxemburg_norms(space, q, v.values * outs)
    best, best_f = 0.0, None
    for i, num in zip(kept, nums):
        r = num.value / dens[i].value
        if r > best:
            best, best_f = r, block[i]
    return NormEstimate(best, None if best_f is None else PointFunction(best_f, "test"),
                        "probe", len(probes), discarded=len(probes) - len(kept),
                        converged=all(res.converged for res in dens + nums))


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
