"""Exact verification of simplex linking parity for point configurations.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere in the core, so every parity and existence check is
an exact integer fact about the input configuration.
"""

from .combinatorics import (
    AlternatingCountBreakdown,
    AlternationCase,
    alternates,
    alternating_count_bruteforce,
    alternating_count_closed_form,
    combinations_colex,
    enumerate_disjoint_pairs,
)
from .configuration import (
    Configuration,
    Explicit,
    MomentCurve,
    RandomSample,
    explicit_configuration,
    find_degenerate_subset,
    is_general_position,
    load_points,
    moment_curve,
    read_points_text,
    sample_random_configuration,
    save_points,
    write_points_text,
)
from .errors import CertificateError, ContractError, DegeneracyError, SamplingError
from .intersection import (
    HyperplaneWitness,
    IntersectionResult,
    intersect_complementary,
    separating_hyperplane_moment,
)
from .linking import (
    CounterexampleReport,
    LinkReport,
    boundary_intersection_count,
    counterexample_document,
    dumps_canonical,
    find_intersecting_pair,
    intersecting_pairs,
    is_linked,
    link_report_document,
    total_linked_parity,
    verify_counterexample,
)
from .ratmat import (
    DimensionError,
    Matrix,
    Rational,
    SolveResult,
    det,
    format_rational,
    parse_rational,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingCountBreakdown",
    "AlternationCase",
    "CertificateError",
    "Configuration",
    "ContractError",
    "CounterexampleReport",
    "DegeneracyError",
    "DimensionError",
    "Explicit",
    "HyperplaneWitness",
    "IntersectionResult",
    "LinkReport",
    "Matrix",
    "MomentCurve",
    "RandomSample",
    "Rational",
    "SamplingError",
    "SolveResult",
    "alternates",
    "alternating_count_bruteforce",
    "alternating_count_closed_form",
    "boundary_intersection_count",
    "combinations_colex",
    "counterexample_document",
    "det",
    "dumps_canonical",
    "enumerate_disjoint_pairs",
    "explicit_configuration",
    "find_degenerate_subset",
    "find_intersecting_pair",
    "format_rational",
    "intersect_complementary",
    "intersecting_pairs",
    "is_general_position",
    "is_linked",
    "link_report_document",
    "load_points",
    "moment_curve",
    "parse_rational",
    "read_points_text",
    "sample_random_configuration",
    "save_points",
    "separating_hyperplane_moment",
    "solve",
    "total_linked_parity",
    "verify_counterexample",
    "write_points_text",
]
