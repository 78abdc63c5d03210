"""Exact computation in skew-symmetrizable cluster patterns.

Mutation of seeds with tropical coefficients, capped breadth-first
exploration of a pattern, Laurent expansions with respect to any stored
cluster, g-vectors and g-pairs under principal coefficients, denominator
vectors and compatibility degree, and executable verification that the
variable set of a finite pattern determines its cluster structure.
"""

from .atlas import (
    ExchangeGraph,
    ExploreCaps,
    IncompleteAtlasError,
    PatternAtlas,
    explore,
)
from .compat import (
    compatibility_matrix,
    compatibility_matrix_tsv,
    d_vector,
    maximal_d_compatible_sets,
    verify_degree_properties,
    verify_maximal_sets,
)
from .grading import (
    GPairNotFoundError,
    NotPrincipalError,
    check_g_pair,
    find_g_pair,
    g_vector,
    g_vector_table,
    verify_g_pairs,
)
from .laurent import (
    LaurentPoly,
    NotDivisibleError,
    NotHomogeneousError,
    exact_div,
)
from .reports import CheckResult, VerificationReport
from .seed import (
    ExchangeMatrix,
    NotSkewSymmetrizableError,
    PositivityError,
    Seed,
    exchange_binomial,
    find_skew_symmetrizer,
    format_seed,
    load_seed_file,
    mutate,
    mutate_path,
    random_exchange_matrix,
    root_seed,
    seed_from_dict,
)
from .unistructure import (
    IncompatibilityCertificate,
    PreconditionViolatedError,
    TrichotomyViolationError,
    WitnessMonomial,
    WitnessNotFoundError,
    certify_incompatible_pairs,
    incompatibility_certificate,
    incompatible_pairs,
    laurent_witness,
    verify_unistructural,
    witness_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ExchangeGraph",
    "ExchangeMatrix",
    "ExploreCaps",
    "GPairNotFoundError",
    "IncompatibilityCertificate",
    "IncompleteAtlasError",
    "LaurentPoly",
    "NotDivisibleError",
    "NotHomogeneousError",
    "NotPrincipalError",
    "NotSkewSymmetrizableError",
    "PatternAtlas",
    "PositivityError",
    "PreconditionViolatedError",
    "Seed",
    "TrichotomyViolationError",
    "VerificationReport",
    "WitnessMonomial",
    "WitnessNotFoundError",
    "CheckResult",
    "certify_incompatible_pairs",
    "check_g_pair",
    "compatibility_matrix",
    "compatibility_matrix_tsv",
    "d_vector",
    "exact_div",
    "exchange_binomial",
    "explore",
    "find_g_pair",
    "find_skew_symmetrizer",
    "format_seed",
    "g_vector",
    "g_vector_table",
    "incompatibility_certificate",
    "incompatible_pairs",
    "laurent_witness",
    "load_seed_file",
    "maximal_d_compatible_sets",
    "mutate",
    "mutate_path",
    "random_exchange_matrix",
    "root_seed",
    "seed_from_dict",
    "verify_degree_properties",
    "verify_g_pairs",
    "verify_maximal_sets",
    "verify_unistructural",
    "witness_sweep",
]
