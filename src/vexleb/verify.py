"""Empirical boundedness checks: norm-ratio probes, nonlinear power
iteration for constant exponents, the explicit necessity test functions, and
refinement studies pairing condition values with ratios.

Every ratio reported here is a lower bound on the true operator norm between
the weighted spaces; claims are therefore framed as trends across
resolutions, never as exact norms.  All sampling is seeded and the probe
order is fixed, so results are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .conditions import (classify_trend, hardy_condition, maximal_singular_conditions,
                         potential_conditions)
from .errors import DomainError, PreconditionError
from .exponents import PointFunction, conjugate
from .norms import luxemburg_norm, luxemburg_norms
from .operators import ball_potentials, hardy_transforms, maximal_functions
from .space import DiscreteSpace, _distinct

__all__ = [
    "NormEstimate",
    "empirical_ratio",
    "power_iteration_pq",
    "necessity_probe",
    "refinement_study",
    "StudyReport",
    "PROBE_VARIANTS",
]

PROBE_VARIANTS = ("hardy", "potential-ball", "potential-tail", "maximal")

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
    weight functions w**(-p'(.)) cut to the same balls, then ``trials``
    random nonnegative mixtures of ball indicators, powers and point masses.
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
        wconj = w.values ** (-pc)
        for r in radii:
            probes.append(wconj * (d0 <= r))

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


def power_iteration_pq(space: DiscreteSpace, kernel: np.ndarray, p_const: float,
                       q_const: float, iters: int = 200, tol: float = 1e-12) -> NormEstimate:
    """Nonlinear power iteration for the L^p -> L^q norm of a nonnegative
    kernel operator K f(x) = sum k(x,y) f(y) mu(y).

    The iteration alternates the operator with the duality maps of the two
    norms; for positive kernels it converges to the norm, and for
    p = q = 2 it reduces to the classical power method on the normal matrix.
    Non-convergence within ``iters`` returns the best iterate, flagged.
    """
    if not (1.0 < p_const < np.inf and 1.0 < q_const < np.inf):
        raise DomainError("constant exponents must lie in (1, inf)")
    k = np.asarray(kernel, dtype=float)
    if k.shape != (space.n, space.n) or np.any(k < 0):
        raise DomainError("kernel must be a nonnegative matrix matching the space")
    mu = space.mu

    def norm(vals: np.ndarray, expo: float) -> float:
        return float((np.abs(vals) ** expo * mu).sum() ** (1.0 / expo))

    f = np.ones(space.n)
    f /= norm(f, p_const)
    sigma_prev, sigma = -1.0, 0.0
    it = 0
    for it in range(1, iters + 1):
        u = k @ (f * mu)
        nu = norm(u, q_const)
        if nu == 0.0:
            return NormEstimate(0.0, PointFunction(f, "test"), "power-iteration", it)
        sigma = nu / norm(f, p_const)
        if abs(sigma - sigma_prev) <= tol * max(sigma, 1e-300):
            return NormEstimate(float(sigma), PointFunction(f, "test"),
                                "power-iteration", it)
        sigma_prev = sigma
        h = (u / nu) ** (q_const - 1.0)
        z = k.T @ (h * mu)
        f = z ** (1.0 / (p_const - 1.0))
        nf = norm(f, p_const)
        if nf == 0.0:
            break
        f /= nf
    return NormEstimate(float(sigma), PointFunction(f, "test"), "power-iteration",
                        it, converged=False)


def _const(space, value, kind="exponent"):
    return PointFunction.constant(space.n, value, kind)


def necessity_probe(space: DiscreteSpace, variant: str, p_const: float, q_const: float,
                    v: PointFunction, w: PointFunction, t: float):
    """Evaluate the explicit necessity test function of a condition at cut t.

    Returns (probe_ratio, condition_value_at_t).  The probe is the conjugate
    weight function cut at the ball (or its tail companion); for a condition
    whose value diverges under refinement, the probe ratio must diverge too.
    The condition value is the curve of the functional the variant names,
    with cap radius L_eff, read at the last sweep knot <= t.

    Variants:
      "hardy"          f = w**-p' on {d0 <= t}; ratio ||v H f||_q / ||w f||_p
                       with H the unweighted forward Hardy sum; condition is
                       ``hardy_condition`` of (v, 1/w).
      "potential-ball" the same f through the ball potential of order
                       alpha = 1/p - 1/q; condition is the ball half of
                       ``potential_conditions``.
      "potential-tail" f = w**-p' muB0**((alpha-1)(p'-1)) on {d0 > t};
                       condition is the tail half.
      "maximal"        the ball probe through the maximal function with
                       q = p; condition is the ball half of
                       ``maximal_singular_conditions``.
    """
    if variant not in PROBE_VARIANTS:
        raise DomainError(f"unknown probe variant {variant!r}")
    if p_const <= 1 or q_const < p_const:
        raise DomainError("need constant exponents 1 < p <= q")
    if np.any(w.values <= 0):
        raise DomainError("probe weight must be positive on its support")
    if t < 0:
        raise DomainError(f"cut t must be nonnegative, got {t!r}")

    a = space.L_eff
    pp = p_const / (p_const - 1.0)
    head = space.d0 <= t
    p_pf, q_pf = _const(space, p_const), _const(space, q_const)
    wf = PointFunction(w.values, "weight")
    alpha = 1.0 / p_const - 1.0 / q_const
    if variant.startswith("potential") and alpha <= 0:
        raise DomainError(f"{variant} probe needs q > p")
    f = w.values ** (-pp) * head
    if variant == "hardy":
        ones = _const(space, 1.0, "weight")
        out = hardy_transforms(space, ones, ones, f[None, :])
        rep = hardy_condition(space, p_pf, q_pf, v, PointFunction(1.0 / w.values, "weight"), a=a)
    elif variant == "maximal":
        q_pf = p_pf
        out = maximal_functions(space, f[None, :])
        rep = maximal_singular_conditions(space, p_pf, v, wf, a=a)[0]
    else:
        half = int(variant == "potential-tail")
        if half:
            muB0 = np.where(space.muB0 > 0, space.muB0, np.inf)
            f = w.values ** (-pp) * muB0 ** ((alpha - 1.0) * (pp - 1.0)) * ~head
        out = ball_potentials(space, _const(space, alpha, "alpha"), f[None, :])
        rep = potential_conditions(space, p_pf, q_pf, v, wf, alpha, a=a)[half]
    num = luxemburg_norm(space, q_pf, PointFunction(v.values * out[0], "test")).value
    den = luxemburg_norm(space, p_pf, PointFunction(w.values * f, "test")).value
    value = float(rep.curve[np.searchsorted(rep.ts, t, side="right") - 1])
    return (0.0 if den == 0 else num / den), value


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
