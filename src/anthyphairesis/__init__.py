"""Exact anthyphairetic arithmetic for quadratic values.

The package expands ratios of quadratic surds by reciprocal
subtraction using integer state machines on quadratic forms, decides
proportion by comparing the resulting quotient sequences, builds the
side-and-diameter convergents with their exact remainders, and checks
the classical application-of-areas identities, all without floating
point.
"""

from .errors import DomainError, IndeterminateError, InternalInvariantError
from .exactarith import (
    QuadSurd,
    as_surd,
    is_perfect_square,
    isqrt,
    rational_sqrt,
    square_free_split,
    surd_floor,
    surd_sign,
)
from .engine import (
    DEFECT,
    EXCESS,
    MIXED,
    ContinuedFraction,
    ExpansionTrace,
    QuadraticForm,
    SideDiameter,
    canonicalize_cf,
    convergents,
    defect_step,
    euclid_cf,
    excess_step,
    minimal_form,
    period_to_form,
    remainder,
    run_anthyphairesis,
    state_space_size,
    surd_cf,
)
from .ratios import (
    AREA,
    LINE,
    Magnitude,
    PropReport,
    PROPOSITIONS,
    anth_of_ratio,
    check_proposition,
    commensurable_pure,
    cross_product_eq,
    line,
    mixed_ratio_eq,
    ratio_eq,
    rectangle,
    square_ratio_witness,
)
from .areas import (
    AreaIdentityReport,
    apply_in_defect,
    apply_in_excess,
    check_ii4,
    check_ii5,
    check_ii6,
    mean_proportional,
)
from .properties import PASS, SUITES, VACUOUS, PropertyResult, run_property, run_suite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "IndeterminateError",
    "InternalInvariantError",
    "QuadSurd",
    "as_surd",
    "is_perfect_square",
    "isqrt",
    "rational_sqrt",
    "square_free_split",
    "surd_floor",
    "surd_sign",
    "DEFECT",
    "EXCESS",
    "MIXED",
    "ContinuedFraction",
    "ExpansionTrace",
    "QuadraticForm",
    "SideDiameter",
    "canonicalize_cf",
    "convergents",
    "defect_step",
    "euclid_cf",
    "excess_step",
    "minimal_form",
    "period_to_form",
    "remainder",
    "run_anthyphairesis",
    "state_space_size",
    "surd_cf",
    "AREA",
    "LINE",
    "Magnitude",
    "PropReport",
    "PROPOSITIONS",
    "anth_of_ratio",
    "check_proposition",
    "commensurable_pure",
    "cross_product_eq",
    "line",
    "mixed_ratio_eq",
    "ratio_eq",
    "rectangle",
    "square_ratio_witness",
    "AreaIdentityReport",
    "apply_in_defect",
    "apply_in_excess",
    "check_ii4",
    "check_ii5",
    "check_ii6",
    "mean_proportional",
    "PASS",
    "VACUOUS",
    "PropertyResult",
    "SUITES",
    "run_property",
    "run_suite",
    "__version__",
]
