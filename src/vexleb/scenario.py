"""Scenario descriptions: which space, fields, operator and conditions to
evaluate, at which resolutions.  Scenarios are plain JSON-compatible dicts;
this module validates them and materializes the referenced objects at a
given resolution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, List, Optional

import numpy as np

from . import conditions as cond
from . import operators as ops
from .errors import PreconditionError, ValidationError
from .exponents import PointFunction, field_from_spec, sobolev_exponent
from .space import DiscreteSpace, geometry_constants, space_from_spec
from .verify import empirical_ratio

__all__ = ["Scenario", "Materialized", "OPERATOR_TAGS", "CONDITION_TAGS"]

OPERATOR_TAGS = ("hardy", "hardy-tail", "maximal", "potential-ball",
                 "potential-distance", "singular")

# condition tag -> (needs_alpha, needs_radial_weights, compatible operators)
CONDITION_TAGS = {
    "hardy": (False, False, ("hardy",)),
    "hardy-tail": (False, False, ("hardy-tail",)),
    "potential-ball": (True, False, ("potential-ball", "hardy")),
    "potential-tail": (True, False, ("potential-ball", "hardy-tail")),
    "distance-ball": (True, False, ("potential-distance",)),
    "distance-tail": (True, False, ("potential-distance",)),
    "radial-potential": (True, True, ("potential-ball", "hardy")),
    "radial-potential-basepoint": (True, True, ("potential-ball",)),
    "radial-distance-potential": (True, True, ("potential-distance",)),
    "radial-maximal": (False, True, ("maximal", "singular")),
    "radial-maximal-basepoint": (False, True, ("maximal", "singular")),
    "variable-order-ball": (True, True, ("potential-ball",)),
    "variable-order-tail": (True, True, ("potential-ball",)),
    "maximal-ball": (False, False, ("maximal", "singular")),
    "maximal-tail": (False, False, ("maximal", "singular")),
    "annulus-comparison": (False, False, OPERATOR_TAGS),
    "muckenhoupt": (False, False, OPERATOR_TAGS),
}

_PAIR_TAGS = ("power-pair", "log-pair")


@dataclass
class Scenario:
    """Validated scenario: everything needed to run condition evaluations and
    refinement studies.  ``weights`` may name a built-in pair family instead
    of explicit v/w field specs."""

    name: str
    space_spec: dict
    p_spec: Optional[dict]
    alpha_spec: Optional[dict]
    v_spec: Optional[dict]
    w_spec: Optional[dict]
    pair: Optional[dict]
    operator: Optional[str]
    conditions: List[str]
    resolutions: List[int]
    seed: int
    params: dict = field(default_factory=dict)
    compose_hardy: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ValidationError("scenario must be a mapping")
        name = data.get("name", "scenario")
        # the name becomes the report's file name inside --out-dir
        if not isinstance(name, str) or not name or "/" in name or "\\" in name:
            raise ValidationError(f"scenario.name: must be a plain file name, got {name!r}")
        space_spec = data.get("space")
        if space_spec is None:
            raise ValidationError("scenario.space: required")
        exps = _mapping(data, "exponents")
        weights = _mapping(data, "weights")
        pair = None
        v_spec = weights.get("v")
        w_spec = weights.get("w")
        if "pair" in weights:
            pair = dict(weights["pair"]) if isinstance(weights["pair"], dict) \
                else {"family": weights["pair"]}
            fam = pair.get("family")
            if fam not in _PAIR_TAGS:
                raise ValidationError(f"weights.pair.family: unknown family {fam!r}")
        operator = data.get("operator")
        if operator is not None and operator not in OPERATOR_TAGS:
            raise ValidationError(
                f"scenario.operator: unknown tag {operator!r} (expected one of {OPERATOR_TAGS})")
        conds = list(data.get("conditions", []))
        for c in conds:
            if c not in CONDITION_TAGS:
                raise ValidationError(f"scenario.conditions: unknown tag {c!r}")
            needs_alpha, needs_radial, compat = CONDITION_TAGS[c]
            if needs_alpha and "alpha" not in exps:
                raise ValidationError(
                    f"scenario.exponents.alpha: required by condition {c!r}")
            if needs_radial and pair is None and not _radial_spec(v_spec, w_spec):
                raise ValidationError(
                    f"scenario.weights: condition {c!r} needs radial profile weights "
                    "(a pair family, or power-of-dist / log-power expressions)")
            if operator is not None and operator not in compat:
                raise ValidationError(
                    f"scenario: condition {c!r} is incompatible with operator "
                    f"{operator!r} (expects one of {compat})")
        if ("p" not in exps) and (conds or operator):
            raise ValidationError("scenario.exponents.p: required")
        if conds and pair is None:
            if v_spec is None:
                raise ValidationError("scenario.weights.v: required by the listed conditions")
            if w_spec is None:
                raise ValidationError("scenario.weights.w: required by the listed conditions")
        resolutions = data.get("resolutions", [64, 256, 1024])
        if not isinstance(resolutions, (list, tuple)) or not all(
                isinstance(r, Integral) and not isinstance(r, bool) for r in resolutions):
            raise ValidationError(
                f"scenario.resolutions: must be a list of integers, got {resolutions!r}")
        resolutions = [int(r) for r in resolutions]
        if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
            raise ValidationError("scenario.resolutions: must be strictly increasing")
        return cls(
            name=name, space_spec=space_spec, p_spec=exps.get("p"),
            alpha_spec=exps.get("alpha"), v_spec=v_spec, w_spec=w_spec, pair=pair,
            operator=operator, conditions=conds, resolutions=resolutions,
            seed=int(data.get("seed", 0)), params=dict(data.get("params", {})),
            compose_hardy=bool(data.get("compose_hardy", False)),
        )

    def to_dict(self) -> dict:
        exps = {}
        if self.p_spec is not None:
            exps["p"] = self.p_spec
        if self.alpha_spec is not None:
            exps["alpha"] = self.alpha_spec
        weights = {}
        if self.pair is not None:
            weights["pair"] = self.pair
        if self.v_spec is not None:
            weights["v"] = self.v_spec
        if self.w_spec is not None:
            weights["w"] = self.w_spec
        out = {"name": self.name, "space": self.space_spec, "exponents": exps,
               "weights": weights, "conditions": list(self.conditions),
               "resolutions": list(self.resolutions), "seed": self.seed}
        if self.operator is not None:
            out["operator"] = self.operator
        if self.params:
            out["params"] = self.params
        if self.compose_hardy:
            out["compose_hardy"] = True
        return out

    def materialize(self, n: Optional[int] = None) -> "Materialized":
        space_spec = dict(self.space_spec)
        if n is not None and "generator" in space_spec:
            if space_spec["generator"] in ("uniform-grid", "uniform_grid"):
                space_spec["n"] = int(n)
            elif space_spec["generator"] == "cantor":
                space_spec["depth"] = max(1, int(np.log2(max(2, int(n)))))
        space = space_from_spec(space_spec)
        return Materialized(self, space)


def _mapping(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(
            f"scenario.{key}: must be a mapping, got {type(value).__name__}")
    return value


def _radial_spec(v_spec, w_spec) -> bool:
    def ok(s):
        if s is None:
            return False
        e = s.get("expr", "")
        return e.startswith(("power-of-dist", "log-power", "const"))
    return ok(v_spec) and ok(w_spec)


class Materialized:
    """A scenario bound to one concrete space resolution."""

    def __init__(self, scenario: Scenario, space: DiscreteSpace):
        self.scenario = scenario
        self.space = space
        self.p = None if scenario.p_spec is None else field_from_spec(space, scenario.p_spec)
        self.alpha = None if scenario.alpha_spec is None \
            else field_from_spec(space, scenario.alpha_spec)
        self.q = self.p if self.alpha is None or self.p is None \
            else sobolev_exponent(self.p, self.alpha)
        self._build_weights()

    def _build_weights(self):
        sc, space = self.scenario, self.space
        self.v_profile = self.w_profile = None
        if sc.pair is not None:
            fam = sc.pair["family"]
            if fam == "power-pair":
                if self.p is None or self.alpha is None:
                    raise ValidationError("power-pair weights need exponents.p and alpha")
                pv = float(self.p.values[space.x0])
                av = float(self.alpha.values[space.x0])
                pair = cond.power_weight_pair(pv, av, float(sc.pair.get("beta", 0.0)),
                                              sc.pair.get("gamma"))
            else:
                if self.p is None:
                    raise ValidationError("log-pair weights need exponents.p")
                px0 = float(self.p.values[space.x0])
                pair = cond.log_adjusted_weight_pair(px0 / (px0 - 1.0),
                                                     float(sc.pair.get("L", space.L_eff)))
            if not pair.admissible:
                raise PreconditionError(f"weight pair inadmissible: {pair.reason}")
            self.v_profile, self.w_profile = pair.v_profile, pair.w_profile
            dre = space.radial_distances()
            self.v = PointFunction(np.asarray(pair.v_profile(dre), dtype=float), "weight")
            self.w = PointFunction(np.asarray(pair.w_profile(dre), dtype=float), "weight")
        else:
            self.v = None if sc.v_spec is None else field_from_spec(space, sc.v_spec)
            self.w = None if sc.w_spec is None else field_from_spec(space, sc.w_spec)
            if _radial_spec(sc.v_spec, sc.w_spec):
                self.v_profile = _profile_from_spec(space, sc.v_spec)
                self.w_profile = _profile_from_spec(space, sc.w_spec)
        if sc.compose_hardy:
            if self.v is None or self.w is None or self.alpha is None:
                raise ValidationError("compose_hardy needs v, w and alpha")
            self.v, self.w = cond.potential_to_hardy_weights(
                self.space, self.v, self.w, float(self.alpha.values[space.x0]))

    # -- evaluation hooks used by refinement studies and the runner ---------

    def evaluate_conditions(self) -> dict:
        out = {}
        sp, p, q, v, w = self.space, self.p, self.q, self.v, self.w
        alpha0 = None if self.alpha is None else float(self.alpha.values[sp.x0])
        for tag in self.scenario.conditions:
            if tag == "hardy":
                out[tag] = cond.hardy_condition(sp, p, q, v, w)
            elif tag == "hardy-tail":
                out[tag] = cond.hardy_tail_condition(sp, p, q, v, w)
            elif tag in ("potential-ball", "potential-tail"):
                ball, tail = cond.potential_conditions(sp, p, q, v, w, alpha0)
                out[tag] = ball if tag == "potential-ball" else tail
            elif tag in ("distance-ball", "distance-tail"):
                ball, tail = cond.distance_potential_conditions(sp, p, q, v, w, self.alpha)
                out[tag] = ball if tag == "distance-ball" else tail
            elif tag.startswith("radial-"):
                variant = tag[len("radial-"):]
                out[tag] = cond.radial_condition(
                    sp, p, self.v_profile, self.w_profile, variant,
                    alpha=alpha0, q=q,
                    require_monotone=bool(self.scenario.params.get("require_monotone", False)))
            elif tag in ("variable-order-ball", "variable-order-tail"):
                one, two = cond.variable_order_conditions(
                    sp, p, q, v, self.w_profile, self.alpha,
                    require_monotone=bool(self.scenario.params.get("require_monotone", False)))
                out[tag] = one if tag == "variable-order-ball" else two
            elif tag in ("maximal-ball", "maximal-tail"):
                ball, tail = cond.maximal_singular_conditions(sp, p, v, w)
                out[tag] = ball if tag == "maximal-ball" else tail
            elif tag == "annulus-comparison":
                b1, b2, skipped = cond.annulus_weight_comparison(
                    sp, v, w, float(self.scenario.params.get("A", 2.0)),
                    a1=float(self.scenario.params.get("a1", 1.0)))
                rep = cond.ConditionReport(tag, min(b1, b2), 0.0, np.array([0.0]),
                                           np.array([min(b1, b2)]), sp.n,
                                           meta={"b1": b1, "b2": b2, "skipped": skipped})
                out[tag] = rep
            elif tag == "muckenhoupt":
                r = float(self.scenario.params.get("r", 2.0))
                val = cond.muckenhoupt_ar(sp, self.w, r)
                out[tag] = cond.ConditionReport(tag, val, 0.0, np.array([0.0]),
                                                np.array([val]), sp.n, meta={"r": r})
        return out

    def operator_closure(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        sp = self.space
        tag = self.scenario.operator
        if tag is None:
            return None
        ones = PointFunction.constant(sp.n, 1.0, "weight")
        if tag == "hardy":
            v, w = self.v or ones, self.w or ones
            return lambda fv: ops.hardy_transform(sp, v, w, PointFunction(fv, "test")).values.values
        if tag == "hardy-tail":
            v, w = self.v or ones, self.w or ones
            return lambda fv: ops.hardy_tail_transform(sp, v, w, PointFunction(fv, "test")).values.values
        if tag == "maximal":
            return lambda fv: ops.maximal_function(sp, PointFunction(fv, "test")).values.values
        if tag == "potential-ball":
            return lambda fv: ops.ball_potential(sp, self.alpha, PointFunction(fv, "test")).values.values
        if tag == "potential-distance":
            return lambda fv: ops.distance_potential(sp, self.alpha, PointFunction(fv, "test")).values.values
        if tag == "singular":
            kernel = ops.kernel_from_spec(self.scenario.params.get(
                "kernel", {"type": "hilbert"}))
            pos = sp.d0[sp.d0 > 0]
            eps = float(self.scenario.params.get("eps", 2.0 * pos.min() if pos.size else 1.0))
            return lambda fv: ops.singular_integral(sp, kernel, PointFunction(fv, "test"),
                                                    eps).values.values
        raise ValidationError(f"unknown operator tag {tag!r}")

    def evaluate_ratio(self) -> Optional[float]:
        op = self.operator_closure()
        if op is None or self.p is None:
            return None
        ones = PointFunction.constant(self.space.n, 1.0, "weight")
        tag = self.scenario.operator
        if tag in ("hardy", "hardy-tail"):
            # weights live inside the transform; the ratio is ||T f||_q / ||f||_p
            est = empirical_ratio(self.space, op, self.p, self.q, ones, ones,
                                  trials=8, seed=self.scenario.seed)
        else:
            est = empirical_ratio(self.space, op, self.p, self.q,
                                  self.v or ones, self.w or ones,
                                  trials=8, seed=self.scenario.seed)
        return est.ratio

    def geometry_summary(self) -> dict:
        g = geometry_constants(self.space, A=float(self.scenario.params.get("A", 2.0)))
        return {"n": self.space.n, "a0": g.a0, "a1": g.a1,
                "doubling_c": g.doubling_c, "rdc_B": g.rdc_B,
                "ahlfors_c1": g.ahlfors_upper_c1, "ahlfors_c2": g.ahlfors_lower_c2,
                "annuli_nonempty": g.annuli_nonempty}


def _profile_from_spec(space: DiscreteSpace, spec: dict) -> Callable:
    expr = spec.get("expr", "")
    if expr.startswith("const"):
        c = float(expr.split()[-1])
        return lambda t: np.full_like(np.asarray(t, dtype=float), c)
    import re
    m = re.match(r"^\s*([a-z-]+)\(\s*x0\s*,\s*([^)]*)\)\s*$", expr)
    if not m:
        raise ValidationError(f"cannot parse radial profile {expr!r}")
    name, g = m.group(1), float(m.group(2))
    if name == "power-of-dist":
        return lambda t: np.asarray(t, dtype=float) ** g
    if name == "log-power":
        L = space.L_eff
        return lambda t: np.asarray(t, dtype=float) ** g * np.log(2.0 * L / np.asarray(t, dtype=float))
    raise ValidationError(f"unknown radial profile {name!r}")
