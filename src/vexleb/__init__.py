"""vexleb: weighted variable-exponent Lebesgue analysis on discretized
quasimetric measure spaces.

The package computes Luxemburg norms, applies Hardy-type, maximal, potential
and singular operators, evaluates the two-weight sufficient-condition
functionals that govern their boundedness, and verifies the corresponding
norm inequalities empirically through refinement studies and necessity
probes.
"""

__version__ = "0.1.0"

from .conditions import (
    ConditionReport,
    ProfilePair,
    annulus_weight_comparison,
    classify_trend,
    distance_potential_conditions,
    finite_hint,
    hardy_condition,
    hardy_tail_condition,
    log_adjusted_weight_pair,
    maximal_singular_conditions,
    muckenhoupt_ar,
    potential_conditions,
    power_weight_pair,
    radial_condition,
    variable_order_conditions,
)
from .errors import DomainError, PreconditionError, ValidationError
from .exponents import (
    ClassReport,
    LocalExponents,
    PointFunction,
    class_check,
    conjugate,
    field_from_spec,
    local_exponents,
    sobolev_exponent,
)
from .norms import NormResult, luxemburg_norm, luxemburg_norms, modular
from .operators import (
    KernelSpec,
    ball_potentials,
    distance_potentials,
    explicit_kernel,
    hardy_tail_transforms,
    hardy_transforms,
    hilbert_kernel,
    kernel_from_spec,
    kernel_regularity_check,
    maximal_functions,
    power_dist_kernel,
    power_modulus,
    singular_integrals,
    table_modulus,
)
from .scenario import Materialized, Scenario
from .space import (
    BallView,
    DiscreteSpace,
    GeometryReport,
    ball,
    cantor_space,
    comparison_annulus,
    explicit_space,
    geometry_constants,
    space_from_spec,
    uniform_grid,
)
from .verify import (
    NormEstimate,
    StudyReport,
    empirical_ratio,
    necessity_probe,
    power_iteration_pq,
    refinement_study,
)
