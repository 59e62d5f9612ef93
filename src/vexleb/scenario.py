"""Scenario descriptions: which space, fields, operator and conditions to
evaluate, at which resolutions.  Scenarios are plain JSON-compatible dicts;
this module validates them and materializes the referenced objects at a
given resolution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import conditions as cond
from . import operators as ops
from .errors import PreconditionError, ValidationError
from .exponents import (PointFunction, field_from_spec, parse_field_spec, radial_profile,
                        sobolev_exponent)
from .space import DiscreteSpace, geometry_constants, space_from_spec
from .verify import NormEstimate, empirical_ratio

__all__ = ["Scenario", "Materialized", "OPERATORS", "CONDITIONS"]


class Operator(NamedTuple):
    apply: Callable          # apply(materialized, rows) -> the (P, n) block of row images
    weighted: bool = False   # v and w act inside the operator, not on the norm ratio


def _singular(m: "Materialized", rows: np.ndarray) -> np.ndarray:
    kernel = ops.kernel_from_spec(m.scenario.params.get("kernel", {"type": "hilbert"}))
    pos = m.space.d0[m.space.d0 > 0]
    eps = float(m.scenario.params.get("eps", 2.0 * pos.min() if pos.size else 1.0))
    return ops.singular_integrals(m.space, kernel, rows, eps)


# Table entries reach ``ops`` and ``cond`` through the module when called, so
# a function replaced there (a tracer, a test double) is the one that runs.
# Each operator takes a (P, n) block of test functions and returns its block.
OPERATORS = {
    "hardy": Operator(lambda m, rows: ops.hardy_transforms(m.space, *m._weights, rows), True),
    "hardy-tail": Operator(
        lambda m, rows: ops.hardy_tail_transforms(m.space, *m._weights, rows), True),
    "maximal": Operator(lambda m, rows: ops.maximal_functions(m.space, rows)),
    "potential-ball": Operator(lambda m, rows: ops.ball_potentials(m.space, m.alpha, rows)),
    "potential-distance": Operator(
        lambda m, rows: ops.distance_potentials(m.space, m.alpha, rows)),
    "singular": Operator(_singular),
}
_OPERATOR_TAGS = tuple(OPERATORS)


class Condition(NamedTuple):
    needs_alpha: bool
    needs_radial: bool
    operators: tuple
    evaluate: Callable           # evaluate(materialized) -> report, or (ball, tail) reports
    half: Optional[int] = None   # which half of the (ball, tail) pair the tag reports


def _monotone(m: "Materialized") -> bool:
    return m.scenario.params.get("require_monotone", False)


def _radial(variant: str) -> Callable:
    return lambda m: cond.radial_condition(m.space, m.p, m.v_profile, m.w_profile, variant,
                                           alpha=m.alpha0, q=m.q, require_monotone=_monotone(m))


def _annulus(m: "Materialized"):
    params = m.scenario.params
    b1, b2, skipped = cond.annulus_weight_comparison(
        m.space, m.v, m.w, float(params.get("A", 2.0)), a1=float(params.get("a1", 1.0)))
    return cond.ConditionReport("annulus-comparison", min(b1, b2), 0.0, np.array([0.0]),
                                np.array([min(b1, b2)]), m.space.n,
                                meta={"b1": b1, "b2": b2, "skipped": skipped})


def _muckenhoupt(m: "Materialized"):
    r = float(m.scenario.params.get("r", 2.0))
    val = cond.muckenhoupt_ar(m.space, m.w, r)
    return cond.ConditionReport("muckenhoupt", val, 0.0, np.array([0.0]), np.array([val]),
                                m.space.n, meta={"r": r})


# the functionals of (ball, tail) pairs, each shared by the pair's two tags
_potential = lambda m: cond.potential_conditions(m.space, m.p, m.q, m.v, m.w, m.alpha0)
_distance = lambda m: cond.distance_potential_conditions(m.space, m.p, m.q, m.v, m.w, m.alpha)
_variable_order = lambda m: cond.variable_order_conditions(
    m.space, m.p, m.q, m.v, m.w_profile, m.alpha, require_monotone=_monotone(m))
_maximal = lambda m: cond.maximal_singular_conditions(m.space, m.p, m.v, m.w)
_MAXIMAL_OPS = ("maximal", "singular")

CONDITIONS = {
    "hardy": Condition(False, False, ("hardy",),
                       lambda m: cond.hardy_condition(m.space, m.p, m.q, m.v, m.w)),
    "hardy-tail": Condition(False, False, ("hardy-tail",),
                            lambda m: cond.hardy_tail_condition(m.space, m.p, m.q, m.v, m.w)),
    "potential-ball": Condition(True, False, ("potential-ball", "hardy"), _potential, 0),
    "potential-tail": Condition(True, False, ("potential-ball", "hardy-tail"), _potential, 1),
    "distance-ball": Condition(True, False, ("potential-distance",), _distance, 0),
    "distance-tail": Condition(True, False, ("potential-distance",), _distance, 1),
    "radial-potential": Condition(True, True, ("potential-ball", "hardy"), _radial("potential")),
    "radial-potential-basepoint": Condition(True, True, ("potential-ball",),
                                            _radial("potential-basepoint")),
    "radial-distance-potential": Condition(True, True, ("potential-distance",),
                                           _radial("distance-potential")),
    "radial-maximal": Condition(False, True, _MAXIMAL_OPS, _radial("maximal")),
    "radial-maximal-basepoint": Condition(False, True, _MAXIMAL_OPS, _radial("maximal-basepoint")),
    "variable-order-ball": Condition(True, True, ("potential-ball",), _variable_order, 0),
    "variable-order-tail": Condition(True, True, ("potential-ball",), _variable_order, 1),
    "maximal-ball": Condition(False, False, _MAXIMAL_OPS, _maximal, 0),
    "maximal-tail": Condition(False, False, _MAXIMAL_OPS, _maximal, 1),
    "annulus-comparison": Condition(False, False, _OPERATOR_TAGS, _annulus),
    "muckenhoupt": Condition(False, False, _OPERATOR_TAGS, _muckenhoupt),
}


def _power_pair(m: "Materialized", pair: dict):
    if m.p is None or m.alpha is None:
        raise ValidationError("power-pair weights need exponents.p and alpha")
    return cond.power_weight_pair(float(m.p.values[m.space.x0]), m.alpha0,
                                  float(pair.get("beta", 0.0)), pair.get("gamma"))


def _log_pair(m: "Materialized", pair: dict):
    if m.p is None:
        raise ValidationError("log-pair weights need exponents.p")
    px0 = float(m.p.values[m.space.x0])
    return cond.log_adjusted_weight_pair(px0 / (px0 - 1.0), float(pair.get("L", m.space.L_eff)))


# weight-pair families: each builds its ProfilePair from (materialization, pair spec)
_PAIR_FAMILIES = {"power-pair": _power_pair, "log-pair": _log_pair}


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
        if data.get("space") is None:
            raise ValidationError("scenario.space: required")
        space_spec = _mapping(data, "space")
        exps = _mapping(data, "exponents")
        weights = _mapping(data, "weights")
        pair = None
        v_spec = weights.get("v")
        w_spec = weights.get("w")
        parsed = {}
        for where, spec in (("exponents.p", exps.get("p")), ("exponents.alpha", exps.get("alpha")),
                            ("weights.v", v_spec), ("weights.w", w_spec)):
            try:
                parsed[where] = None if spec is None else parse_field_spec(spec)
            except ValidationError as exc:
                raise ValidationError(f"scenario.{where}: {exc}") from None
        radial_weights = all(f is not None and f[0].radial
                             for f in (parsed["weights.v"], parsed["weights.w"]))
        if "pair" in weights:
            pair = dict(weights["pair"]) if isinstance(weights["pair"], dict) \
                else {"family": weights["pair"]}
            fam = pair.get("family")
            if fam not in _PAIR_FAMILIES:
                raise ValidationError(f"weights.pair.family: unknown family {fam!r}")
            # gamma may be null: the family then picks the minimal one
            for key in ("beta", "gamma", "L"):
                value = pair.get(key)
                if key in pair and not (key == "gamma" and value is None) \
                        and not _is_number(value):
                    raise ValidationError(
                        f"scenario.weights.pair.{key}: must be a number, got {value!r}")
        operator = data.get("operator")
        if operator is not None and operator not in _OPERATOR_TAGS:
            raise ValidationError(
                f"scenario.operator: unknown tag {operator!r} (expected one of {_OPERATOR_TAGS})")
        conds = data.get("conditions", [])
        if not isinstance(conds, (list, tuple)) or not all(isinstance(c, str) for c in conds):
            raise ValidationError(f"scenario.conditions: must be a list of tags, got {conds!r}")
        conds = list(conds)
        for c in conds:
            if c not in CONDITIONS:
                raise ValidationError(f"scenario.conditions: unknown tag {c!r}")
            entry = CONDITIONS[c]
            if entry.needs_alpha and "alpha" not in exps:
                raise ValidationError(
                    f"scenario.exponents.alpha: required by condition {c!r}")
            if entry.needs_radial and pair is None and not radial_weights:
                raise ValidationError(
                    f"scenario.weights: condition {c!r} needs radial profile weights "
                    "(a pair family, or const / power-of-dist / log-power expressions)")
            if operator is not None and operator not in entry.operators:
                raise ValidationError(
                    f"scenario: condition {c!r} is incompatible with operator "
                    f"{operator!r} (expects one of {entry.operators})")
        if ("p" not in exps) and (conds or operator):
            raise ValidationError("scenario.exponents.p: required")
        if conds and pair is None:
            if v_spec is None:
                raise ValidationError("scenario.weights.v: required by the listed conditions")
            if w_spec is None:
                raise ValidationError("scenario.weights.w: required by the listed conditions")
        resolutions = data.get("resolutions", [64, 256, 1024])
        if not isinstance(resolutions, (list, tuple)) or not resolutions \
                or not all(isinstance(r, Integral) and not isinstance(r, bool)
                           for r in resolutions):
            raise ValidationError(
                f"scenario.resolutions: must be a list of integers, got {resolutions!r}")
        resolutions = [int(r) for r in resolutions]
        if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
            raise ValidationError("scenario.resolutions: must be strictly increasing")
        seed = data.get("seed", 0)
        if not isinstance(seed, Integral) or isinstance(seed, bool):
            raise ValidationError(f"scenario.seed: must be an integer, got {seed!r}")
        compose_hardy = data.get("compose_hardy", False)
        if not isinstance(compose_hardy, bool):
            raise ValidationError(
                f"scenario.compose_hardy: must be true or false, got {compose_hardy!r}")
        params = dict(_mapping(data, "params"))
        for key in ("A", "a1", "r", "eps"):
            if key in params and not _is_number(params[key]):
                raise ValidationError(
                    f"scenario.params.{key}: must be a number, got {params[key]!r}")
        if not isinstance(params.get("require_monotone", False), bool):
            raise ValidationError("scenario.params.require_monotone: must be true or false, "
                                  f"got {params['require_monotone']!r}")
        if "kernel" in params:
            try:
                ops.kernel_from_spec(params["kernel"])
            except ValueError as exc:
                raise ValidationError(f"scenario.params.kernel: {exc}") from None
        return cls(
            name=name, space_spec=space_spec, p_spec=exps.get("p"),
            alpha_spec=exps.get("alpha"), v_spec=v_spec, w_spec=w_spec, pair=pair,
            operator=operator, conditions=conds, resolutions=resolutions,
            seed=int(seed), params=params, compose_hardy=compose_hardy,
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


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _mapping(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(
            f"scenario.{key}: must be a mapping, got {type(value).__name__}")
    return value


class Materialized:
    """A scenario bound to one concrete space resolution."""

    def __init__(self, scenario: Scenario, space: DiscreteSpace):
        self.scenario = scenario
        self.space = space
        self.p = self._field("exponents.p", scenario.p_spec)
        self.alpha = self._field("exponents.alpha", scenario.alpha_spec)
        self.alpha0 = None if self.alpha is None else float(self.alpha.values[space.x0])
        self.q = self.p if self.alpha is None or self.p is None \
            else sobolev_exponent(self.p, self.alpha)
        self._build_weights()

    def _field(self, where: str, spec: Optional[dict]) -> Optional[PointFunction]:
        if spec is None:
            return None
        try:
            return field_from_spec(self.space, spec)
        except ValidationError as exc:
            raise ValidationError(f"scenario.{where}: {exc}") from None

    def _build_weights(self):
        sc, space = self.scenario, self.space
        if sc.pair is not None:
            pair = _PAIR_FAMILIES[sc.pair["family"]](self, sc.pair)
            if not pair.admissible:
                raise PreconditionError(f"weight pair inadmissible: {pair.reason}")
            self.v_profile, self.w_profile = pair.v_profile, pair.w_profile
            dre = space.radial_distances()
            self.v = PointFunction(np.asarray(pair.v_profile(dre), dtype=float), "weight")
            self.w = PointFunction(np.asarray(pair.w_profile(dre), dtype=float), "weight")
        else:
            self.v = self._field("weights.v", sc.v_spec)
            self.w = self._field("weights.w", sc.w_spec)
            self.v_profile = None if sc.v_spec is None else radial_profile(space, sc.v_spec)
            self.w_profile = None if sc.w_spec is None else radial_profile(space, sc.w_spec)
        if sc.compose_hardy:
            if self.v is None or self.w is None or self.alpha is None:
                raise ValidationError("compose_hardy needs v, w and alpha")
            self.v, self.w = cond.potential_to_hardy_weights(
                self.space, self.v, self.w, self.alpha0)

    @cached_property
    def _weights(self):
        """v and w, each defaulting to the unit weight."""
        ones = PointFunction.constant(self.space.n, 1.0, "weight")
        return self.v or ones, self.w or ones

    # -- evaluation hooks used by refinement studies and the runner ---------

    def evaluate_conditions(self) -> dict:
        """One report per listed tag; the two tags of a (ball, tail) pair
        share one evaluation."""
        out, results = {}, {}
        for tag in self.scenario.conditions:
            entry = CONDITIONS[tag]
            if entry.evaluate not in results:
                results[entry.evaluate] = entry.evaluate(self)
            result = results[entry.evaluate]
            out[tag] = result if entry.half is None else result[entry.half]
        return out

    def operator_closure(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """The scenario's operator as a map from a (P, n) block of test
        functions to its (P, n) block of values, or None without one."""
        tag = self.scenario.operator
        if tag is None:
            return None
        apply = OPERATORS[tag].apply
        return lambda rows: apply(self, rows)

    def evaluate_ratio(self) -> Optional[NormEstimate]:
        """The empirical norm ratio of the scenario's operator, or None
        without an operator or p."""
        op = self.operator_closure()
        if op is None or self.p is None:
            return None
        v, w = self._weights
        if OPERATORS[self.scenario.operator].weighted:
            # weights live inside the transform; the ratio is ||T f||_q / ||f||_p
            v = w = PointFunction.constant(self.space.n, 1.0, "weight")
        return empirical_ratio(self.space, op, self.p, self.q, v, w,
                               trials=8, seed=self.scenario.seed)

    def geometry_summary(self) -> dict:
        g = geometry_constants(self.space, A=float(self.scenario.params.get("A", 2.0)))
        return {"n": self.space.n, "a0": g.a0, "a1": g.a1,
                "doubling_c": g.doubling_c, "rdc_B": g.rdc_B,
                "ahlfors_c1": g.ahlfors_upper_c1, "ahlfors_c2": g.ahlfors_lower_c2,
                "annuli_nonempty": g.annuli_nonempty}
