"""Co-Higgs bundles on the projective line: existence criteria, moduli
strata, and exact finite-field certification."""

from .criterion import (
    CriterionReport,
    RootViolation,
    admits_stable_cohiggs,
    adjoint_splitting,
    evaluate_criterion,
    semistable_obstruction,
)
from .glr import (
    SplittingType,
    splitting_to_hn,
)
from .lie import (
    CartanType,
    HNType,
    ReductiveGroup,
    all_root_values,
    build_root_system,
    cartan_matrix,
    is_dominant,
    parse_group,
)
from .oracle import (
    CoHiggsMatrix,
    OracleVerdict,
    OracleWitness,
    build_model_field,
    random_field,
    semistability_oracle,
)
from .poly import HomogPoly, PrimeField
from .strata import strata_rows
from .symplectic import SymplecticSplitting, sp_to_hn

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "CoHiggsMatrix",
    "CriterionReport",
    "HNType",
    "HomogPoly",
    "OracleVerdict",
    "OracleWitness",
    "PrimeField",
    "ReductiveGroup",
    "RootViolation",
    "SplittingType",
    "SymplecticSplitting",
    "admits_stable_cohiggs",
    "adjoint_splitting",
    "all_root_values",
    "build_model_field",
    "build_root_system",
    "cartan_matrix",
    "evaluate_criterion",
    "is_dominant",
    "parse_group",
    "random_field",
    "semistability_oracle",
    "semistable_obstruction",
    "sp_to_hn",
    "splitting_to_hn",
    "strata_rows",
]
