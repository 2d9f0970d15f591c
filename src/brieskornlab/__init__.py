"""Exact pole-order and Hodge filtration computations for complements of
projective hypersurfaces, through graded Brieskorn modules and Jacobian rings.

Everything is exact rational linear algebra; no floating point anywhere.
"""

from .brieskorn import (BrianconSkodaResult, PoleFiltrationReport,
                        StabilizationCertificate, StabilizationError,
                        StabilizationPolicy, briancon_skoda, hbar_certificate,
                        milnor_eigenspace_dim, pole_filtration_dims,
                        relation_space, stabilized_span_rank)
from .exactlinalg import (ExactMatrix, InvariantError, QuotientMapError, SpanSolver,
                          Subspace, rank_of_vectors)
from .families import (DEFAULT_SAMPLES, PencilFamily, PoleConstancyResult,
                       TjurinaScanResult, grp_nabla_matrix, pole_constancy_check,
                       specialize, tjurina_scan)
from .gradedpoly import (InputError, ParseError, Poly, dehomogenize_shift,
                         hilbert_ci_coeffs, is_squarefree, monomial_basis,
                         parse_poly, render, weight_vector, weighted_degree)
from .jacobian import NonIsolatedError, global_tjurina, jacobian_dims, smoothness_test
from .singularities import (HodgeReport, LocalIdealJets, WeightedChart, alpha_Y,
                            build_chart, global_jq_dim, hodge_filtration_dims,
                            local_jq_jets, local_tjurina, verify_chart_coverage)

__version__ = "0.1.0"

__all__ = [
    "BrianconSkodaResult", "DEFAULT_SAMPLES", "ExactMatrix", "HodgeReport",
    "InputError", "InvariantError", "LocalIdealJets", "NonIsolatedError",
    "ParseError", "PencilFamily", "PoleConstancyResult", "PoleFiltrationReport",
    "Poly", "QuotientMapError", "SpanSolver", "StabilizationCertificate",
    "StabilizationError", "StabilizationPolicy", "Subspace", "TjurinaScanResult",
    "WeightedChart", "alpha_Y", "briancon_skoda", "build_chart",
    "dehomogenize_shift", "global_jq_dim", "global_tjurina", "grp_nabla_matrix",
    "hbar_certificate", "hilbert_ci_coeffs", "hodge_filtration_dims",
    "is_squarefree", "jacobian_dims", "local_jq_jets", "local_tjurina",
    "milnor_eigenspace_dim", "monomial_basis", "parse_poly",
    "pole_constancy_check", "pole_filtration_dims", "rank_of_vectors",
    "relation_space", "render", "smoothness_test", "specialize",
    "stabilized_span_rank", "tjurina_scan", "verify_chart_coverage",
    "weight_vector", "weighted_degree",
]
