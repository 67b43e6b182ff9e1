"""Exact intersection-theory toolkit for complete-intersection Calabi-Yau
3-folds in products of projective spaces.

Everything is integer/rational arithmetic — no floats anywhere: Chern/Segre
calculus in the Chow ring of a product of projective spaces, configuration
matrices with canonical forms, topological invariants (Euler number, second
Betti number, Hodge pair, Hilbert polynomials), determinantal contractions
with certified node counts, and the transition web connecting every
configuration to the hub C1111.
"""

from .chow import (
    AmbientSpace,
    ChowClass,
    MultiDegree,
    binomial_poly,
    chern_of_sum,
    chi_line_bundle,
    segre_inverse,
    tangent_chern,
)
from .configuration import (
    C1111,
    C1111_KEY,
    ConfigurationMatrix,
    ParseError,
    ValidationReport,
    canonical_form,
    canonical_key,
    equivalent,
    is_block_diagonal,
    is_cicy,
    layout_map,
    normalize,
    parse_matrix,
    validate,
)
from .invariants import (
    BettiBaseCaseError,
    HilbertPolynomial,
    HodgePair,
    InternalConsistencyError,
    betti2,
    ci_point_count,
    double_cover_euler,
    euler_number,
    hilbert_polynomial,
    hodge_numbers,
)
from .transitions import (
    ContractionSite,
    TransitionReport,
    analyze,
    contract,
    find_contraction_sites,
    odp_count,
    split,
)
from .web import (
    ChainReport,
    ChainStep,
    StepCheck,
    TransitionChain,
    chain_from_json,
    chain_to_json,
    connect_pair,
    connect_to_c1111,
    random_cicy,
    reverse_chain,
    verify_chain,
)
from .catalog import (
    CatalogCheck,
    CatalogEntry,
    ENTRIES,
    entry_names,
    get_entry,
    quintic_chain,
    run_entry,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "BettiBaseCaseError",
    "C1111",
    "C1111_KEY",
    "CatalogCheck",
    "CatalogEntry",
    "ChainReport",
    "ChainStep",
    "ChowClass",
    "ConfigurationMatrix",
    "ContractionSite",
    "ENTRIES",
    "HilbertPolynomial",
    "HodgePair",
    "InternalConsistencyError",
    "MultiDegree",
    "ParseError",
    "StepCheck",
    "TransitionChain",
    "TransitionReport",
    "ValidationReport",
    "analyze",
    "betti2",
    "binomial_poly",
    "canonical_form",
    "canonical_key",
    "chain_from_json",
    "chain_to_json",
    "chern_of_sum",
    "chi_line_bundle",
    "ci_point_count",
    "connect_pair",
    "connect_to_c1111",
    "contract",
    "double_cover_euler",
    "entry_names",
    "equivalent",
    "euler_number",
    "find_contraction_sites",
    "get_entry",
    "hilbert_polynomial",
    "hodge_numbers",
    "is_block_diagonal",
    "is_cicy",
    "layout_map",
    "normalize",
    "odp_count",
    "parse_matrix",
    "quintic_chain",
    "random_cicy",
    "reverse_chain",
    "run_entry",
    "segre_inverse",
    "split",
    "tangent_chern",
    "validate",
    "verify_chain",
]
