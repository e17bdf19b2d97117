"""Co-Higgs bundles on the projective line: existence criteria, moduli
strata, and exact finite-field certification."""

from .criterion import (
    CriterionReport,
    RootViolation,
    admits_stable_cohiggs,
    adjoint_splitting,
    evaluate_criterion,
    hom_vanishing_certificate,
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
    LineSubbundle,
    OracleVerdict,
    OracleWitness,
    apply_field,
    build_model_field,
    enumerate_line_subbundles,
    is_invariant,
    random_field,
    semistability_oracle,
)
from .poly import HomogPoly, PrimeField
from .strata import (
    StratumRecord,
    dim_automorphisms,
    dim_cohiggs_space,
    dim_stratum,
    enumerate_strata,
)
from .symplectic import SymplecticSplitting, sp_to_hn

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "CoHiggsMatrix",
    "CriterionReport",
    "HNType",
    "HomogPoly",
    "LineSubbundle",
    "OracleVerdict",
    "OracleWitness",
    "PrimeField",
    "ReductiveGroup",
    "RootViolation",
    "SplittingType",
    "StratumRecord",
    "SymplecticSplitting",
    "admits_stable_cohiggs",
    "adjoint_splitting",
    "all_root_values",
    "apply_field",
    "build_model_field",
    "build_root_system",
    "cartan_matrix",
    "dim_automorphisms",
    "dim_cohiggs_space",
    "dim_stratum",
    "enumerate_line_subbundles",
    "enumerate_strata",
    "evaluate_criterion",
    "hom_vanishing_certificate",
    "is_dominant",
    "is_invariant",
    "parse_group",
    "random_field",
    "semistability_oracle",
    "semistable_obstruction",
    "sp_to_hn",
    "splitting_to_hn",
]
