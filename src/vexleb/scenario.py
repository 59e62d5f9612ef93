"""Scenario descriptions: which space, fields, operator and conditions to
evaluate, at which resolutions.  Scenarios are plain JSON-compatible dicts;
this module validates them and materializes the referenced objects at a
given resolution.  Every mapping of a scenario is read through the checks
in ``space``, so a key it does not read, or a number or integer out of its
range, is refused with the field named.  A field's kind is its slot's.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import conditions as cond
from . import operators as ops
from .errors import DomainError, PreconditionError, ValidationError
from .exponents import (PointFunction, field_from_spec, parse_field_spec, radial_profile,
                        sobolev_exponent)
from .space import (_GENERATORS, DiscreteSpace, _generator, _integer, _known_keys, _mapping,
                    _number, geometry_constants, space_from_spec)
from .verify import NormEstimate, empirical_ratio

__all__ = ["Scenario", "Materialized", "OPERATORS", "CONDITIONS"]


class Operator(NamedTuple):
    apply: Callable          # apply(materialized, rows) -> the (P, n) block of row images
    # v and w act inside the operator: H_{v,w} f = v H(w f), so ``apply`` is the
    # unweighted H and the ratio over g = w f reads v and 1/w as norm weights
    weighted: bool = False


def _singular(m: "Materialized", rows: np.ndarray) -> np.ndarray:
    pos = m.space.d0[m.space.d0 > 0]
    eps = float(m.scenario.params.get("eps", 2.0 * pos.min() if pos.size else 1.0))
    return ops.singular_integrals(m.space, m.kernel, rows, eps)


# Table entries reach ``ops`` and ``cond`` through the module when called, so
# a function replaced there (a tracer, a test double) is the one that runs.
# Each operator takes a (P, n) block of test functions and returns its block.
OPERATORS = {
    "hardy": Operator(lambda m, rows: ops.hardy_transforms(m.space, m._one, m._one, rows), True),
    "hardy-tail": Operator(
        lambda m, rows: ops.hardy_tail_transforms(m.space, m._one, m._one, rows), True),
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
    evaluate: Callable   # evaluate(materialized) -> ConditionReport


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
    sup = m._sorted_pass[1]
    return cond.ConditionReport("muckenhoupt", sup.value, 0.0, np.array([0.0]),
                                np.array([sup.value]), m.space.n, meta={"r": sup.r})


# each tag of a (ball, tail) pair evaluates its own half h (0 ball, 1 tail) alone,
# and a half two tags read is one memo entry (``conditions._sup_functional``)
_potential = lambda h: lambda m: cond.potential_conditions(
    m.space, m.p, m.q, m.v, m.w, m.alpha0, _halves=(h,))[h]
_distance = lambda h: lambda m: cond.distance_potential_conditions(
    m.space, m.p, m.q, m.v, m.w, m.alpha, _halves=(h,))[h]
_variable_order = lambda h: lambda m: cond.variable_order_conditions(
    m.space, m.p, m.q, m.v, m.w_profile, m.alpha, require_monotone=_monotone(m), _halves=(h,))[h]
_maximal = lambda h: lambda m: cond.maximal_singular_conditions(m.space, m.p, m.v, m.w,
                                                                 _halves=(h,))[h]
_MAXIMAL_OPS = ("maximal", "singular")

CONDITIONS = {
    "hardy": Condition(False, False, ("hardy",),
                       lambda m: cond.hardy_condition(m.space, m.p, m.q, m.v, m.w)),
    "hardy-tail": Condition(False, False, ("hardy-tail",),
                            lambda m: cond.hardy_tail_condition(m.space, m.p, m.q, m.v, m.w)),
    "potential-ball": Condition(True, False, ("potential-ball", "hardy"), _potential(0)),
    "potential-tail": Condition(True, False, ("potential-ball", "hardy-tail"), _potential(1)),
    "distance-ball": Condition(True, False, ("potential-distance",), _distance(0)),
    "distance-tail": Condition(True, False, ("potential-distance",), _distance(1)),
    "radial-potential": Condition(True, True, ("potential-ball", "hardy"), _radial("potential")),
    "radial-potential-basepoint": Condition(True, True, ("potential-ball",),
                                            _radial("potential-basepoint")),
    "radial-distance-potential": Condition(True, True, ("potential-distance",),
                                           _radial("distance-potential")),
    "radial-maximal": Condition(False, True, _MAXIMAL_OPS, _radial("maximal")),
    "radial-maximal-basepoint": Condition(False, True, _MAXIMAL_OPS, _radial("maximal-basepoint")),
    "variable-order-ball": Condition(True, True, ("potential-ball",), _variable_order(0)),
    "variable-order-tail": Condition(True, True, ("potential-ball",), _variable_order(1)),
    "maximal-ball": Condition(False, False, _MAXIMAL_OPS, _maximal(0)),
    "maximal-tail": Condition(False, False, _MAXIMAL_OPS, _maximal(1)),
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


# weight-pair families: each builds its ProfilePair from (materialization,
# pair spec) and reads the keys listed besides "family"
_PAIR_FAMILIES = {"power-pair": (_power_pair, ("beta", "gamma")), "log-pair": (_log_pair, ("L",))}

# the kind of the field each slot holds; a spec may name it but not another
_SLOT_KINDS = {"exponents.p": "exponent", "exponents.alpha": "alpha",
               "weights.v": "weight", "weights.w": "weight"}


@dataclass
class Scenario:
    """Validated scenario: everything needed to run condition evaluations and
    refinement studies.  ``weights`` may name a built-in pair family instead
    of (never beside) explicit v/w field specs."""

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
    # the space an explicit spec built when it was checked at load; every
    # materialization reads it instead of building it again
    space: Optional[DiscreteSpace] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = _mapping(data, "scenario", _SCENARIO_KEYS)
        name = data.get("name", "scenario")
        # the name becomes the report's file name inside --out-dir
        if not isinstance(name, str) or not name or any(c in name for c in "/\\\0"):
            raise ValidationError(f"scenario.name: must be a plain file name, got {name!r}")
        if data.get("space") is None:
            raise ValidationError("scenario.space: required")
        space_spec = _mapping(data["space"], "scenario.space")
        space = None
        with _naming(""):
            if space_spec.get("generator") is not None:
                # materialize replaces the size with the resolution
                _generator(space_spec)
            else:
                space = space_from_spec(space_spec)
        exps = _mapping(data.get("exponents", {}), "scenario.exponents", ("p", "alpha"))
        weights = _mapping(data.get("weights", {}), "scenario.weights", ("v", "w", "pair"))
        specs = {"exponents.p": exps.get("p"), "exponents.alpha": exps.get("alpha"),
                 "weights.v": weights.get("v"), "weights.w": weights.get("w")}
        parsed = {}
        for where, spec in specs.items():
            with _naming(where):
                parsed[where] = None if spec is None else parse_field_spec(spec)
            if spec is not None and spec.get("kind", _SLOT_KINDS[where]) != _SLOT_KINDS[where]:
                raise ValidationError(f"scenario.{where}.kind: must be {_SLOT_KINDS[where]!r}, "
                                      f"got {spec['kind']!r}")
        radial_weights = all(f is not None and f[0].radial
                             for f in (parsed["weights.v"], parsed["weights.w"]))
        pair = None
        if "pair" in weights:
            if "v" in weights or "w" in weights:
                raise ValidationError("scenario.weights: give a pair or v and w, not both")
            pair = dict(weights["pair"]) if isinstance(weights["pair"], dict) \
                else {"family": weights["pair"]}
            fam = pair.get("family")
            if fam not in tuple(_PAIR_FAMILIES):
                raise ValidationError(f"scenario.weights.pair.family: unknown family {fam!r}")
            keys = _PAIR_FAMILIES[fam][1]
            _known_keys(pair, "scenario.weights.pair", ("family", *keys))
            # gamma may be null: the family then picks the minimal one
            for key in keys:
                if key in pair and not (key == "gamma" and pair[key] is None):
                    _number(pair[key], f"scenario.weights.pair.{key}")
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
            for where in ("weights.v", "weights.w"):
                if specs[where] is None:
                    raise ValidationError(f"scenario.{where}: required by the listed conditions")
        resolutions = _resolutions(data.get("resolutions", [64, 256, 1024]), "scenario.resolutions")
        seed = _integer(data.get("seed", 0), "scenario.seed", 0)
        params = dict(_mapping(data.get("params", {}), "scenario.params", _PARAM_KEYS))
        # the reverse-doubling factor A and the Muckenhoupt exponent r exceed
        # 1; the quasi-triangle constant a1 and the truncation radius eps are
        # positive
        for key, bound in (("A", 1), ("a1", 0), ("r", 1), ("eps", 0)):
            if key in params:
                _number(params[key], f"scenario.params.{key}", bound)
        if not isinstance(params.get("require_monotone", False), bool):
            raise ValidationError("scenario.params.require_monotone: must be true or false, "
                                  f"got {params['require_monotone']!r}")
        if "kernel" in params:
            with _naming("params.kernel", ValueError):
                ops.kernel_from_spec(params["kernel"])
        return cls(
            name=name, space_spec=space_spec, p_spec=specs["exponents.p"],
            alpha_spec=specs["exponents.alpha"], v_spec=specs["weights.v"],
            w_spec=specs["weights.w"], pair=pair, operator=operator, conditions=conds,
            resolutions=resolutions, seed=seed, params=params, space=space,
        )

    def to_dict(self) -> dict:
        exps = {k: s for k, s in (("p", self.p_spec), ("alpha", self.alpha_spec)) if s is not None}
        weights = {k: s for k, s in (("pair", self.pair), ("v", self.v_spec), ("w", self.w_spec))
                   if s is not None}
        out = {"name": self.name, "space": self.space_spec, "exponents": exps,
               "weights": weights, "conditions": list(self.conditions),
               "resolutions": list(self.resolutions), "seed": self.seed}
        if self.operator is not None:
            out["operator"] = self.operator
        if self.params:
            out["params"] = self.params
        return out

    def materialize(self, n: Optional[int] = None) -> "Materialized":
        if self.space is not None:
            return Materialized(self, self.space)
        space_spec = dict(self.space_spec)
        if n is not None and space_spec.get("generator") in tuple(_GENERATORS):
            _, key, _, size = _GENERATORS[space_spec["generator"]]
            space_spec[key] = size(n)
        with _naming(""):
            space = space_from_spec(space_spec)
        return Materialized(self, space)


@contextmanager
def _naming(where: str, errors=(ValidationError, DomainError)):
    """Re-raise ``errors`` from the body as a ValidationError under
    ``scenario.<where>``; with ``where`` empty the message names its own
    field (``space.n: ...``)."""
    try:
        yield
    except errors as exc:
        raise ValidationError(f"scenario.{where}{': ' if where else ''}{exc}") from None


# every key a scenario file and its params may set
_SCENARIO_KEYS = ("name", "space", "exponents", "weights", "operator", "conditions",
                  "resolutions", "seed", "params")
_PARAM_KEYS = ("A", "a1", "r", "eps", "require_monotone", "kernel")


def _resolutions(resolutions, where: str) -> List[int]:
    """Checked ``resolutions``: positive integers, strictly increasing."""
    if not isinstance(resolutions, (list, tuple)) or not resolutions:
        raise ValidationError(f"{where}: must be a nonempty list of integers, got {resolutions!r}")
    resolutions = [_integer(r, where, 1) for r in resolutions]
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValidationError(f"{where}: must be strictly increasing")
    return resolutions


class Materialized:
    """A scenario bound to one concrete space resolution."""

    def __init__(self, scenario: Scenario, space: DiscreteSpace):
        self.scenario = scenario
        self.space = space
        self.p = self._field("exponents.p", scenario.p_spec)
        self.alpha = self._field("exponents.alpha", scenario.alpha_spec)
        self.alpha0 = None if self.alpha is None else float(self.alpha.values[space.x0])
        with _naming("exponents.alpha"):
            self.q = self.p if self.alpha is None or self.p is None \
                else sobolev_exponent(self.p, self.alpha)
        self._build_weights()
        self.kernel = None
        if scenario.operator == "singular":
            self.kernel = ops.kernel_from_spec(scenario.params.get("kernel", {"type": "hilbert"}))
            # a kernel that cannot weigh this space fails on its first read
            with _naming("params.kernel"):
                self.kernel.at(space, space.x0, space.x0)

    def _field(self, where: str, spec: Optional[dict]) -> Optional[PointFunction]:
        if spec is None:
            return None
        with _naming(where):
            return field_from_spec(self.space, dict(spec, kind=_SLOT_KINDS[where]))

    def _build_weights(self):
        sc, space = self.scenario, self.space
        if sc.pair is not None:
            # a profile value beyond the floats is refused as not finite
            with _naming("weights.pair", (ValidationError, DomainError, PreconditionError)), \
                    np.errstate(over="ignore", invalid="ignore"):
                pair = _PAIR_FAMILIES[sc.pair["family"]][0](self, sc.pair)
                dre = space.radial_distances()
                self.v = PointFunction(np.asarray(pair.v_profile(dre), dtype=float), "weight")
                self.w = PointFunction(np.asarray(pair.w_profile(dre), dtype=float), "weight")
            self.v_profile, self.w_profile = pair.v_profile, pair.w_profile
        else:
            self.v = self._field("weights.v", sc.v_spec)
            self.w = self._field("weights.w", sc.w_spec)
            self.v_profile = None if sc.v_spec is None else radial_profile(space, sc.v_spec)
            self.w_profile = None if sc.w_spec is None else radial_profile(space, sc.w_spec)

    @cached_property
    def _one(self):
        """The unit weight."""
        return PointFunction.constant(self.space.n, 1.0, "weight")

    # -- evaluation hooks used by refinement studies and the runner ---------

    def evaluate_conditions(self) -> dict:
        """One report per listed tag."""
        return {tag: CONDITIONS[tag].evaluate(self) for tag in self.scenario.conditions}

    def evaluate_ratio(self) -> Optional[NormEstimate]:
        """The empirical norm ratio of the scenario's operator, or None
        without an operator or p."""
        if self.scenario.operator is None or self.p is None:
            return None
        op = OPERATORS[self.scenario.operator]
        v, w = self.v or self._one, self.w or self._one
        if op.weighted:
            # ||v H(w f)||_q / ||f||_p is ||v H g||_q / ||g / w||_p over g = w f
            with np.errstate(over="ignore"):
                inv = 1.0 / w.values
            if not np.all(np.isfinite(inv)):
                raise ValidationError("scenario.weights.w: 1/w overflows, and a Hardy ratio "
                                      "reads it as its norm weight")
            w = PointFunction(inv, "weight")
        return empirical_ratio(self.space, lambda rows: op.apply(self, rows), self.p, self.q,
                               v, w, seed=self.scenario.seed)

    @cached_property
    def _sorted_pass(self):
        """(geometry report, evaluated Muckenhoupt functional or None) from
        one pass over the sorted distance rows: the Muckenhoupt functional,
        when the scenario lists it, reads the blocks the geometry sweep sorts,
        whichever of the two is asked for first."""
        params = self.scenario.params
        sup = None
        if "muckenhoupt" in self.scenario.conditions:
            sup = cond._Muckenhoupt(self.space, self.w, float(params.get("r", 2.0)))
        g = geometry_constants(self.space, A=float(params.get("A", 2.0)),
                               _consumers=() if sup is None else (sup,))
        return g, sup

    def geometry_summary(self) -> dict:
        g = self._sorted_pass[0]
        return {"n": self.space.n, "a0": g.a0, "a1": g.a1,
                "doubling_c": g.doubling_c, "rdc_B": g.rdc_B,
                "ahlfors_c1": g.ahlfors_upper_c1, "ahlfors_c2": g.ahlfors_lower_c2,
                "annuli_nonempty": g.annuli_nonempty}
