"""Exact pole-order and Hodge filtration computations for complements of
projective hypersurfaces, through graded Brieskorn modules and Jacobian rings.

Everything is exact rational linear algebra; no floating point anywhere.
"""

from .brieskorn import (BrianconSkodaResult, BrieskornSlice, PoleFiltrationReport,
                        StabilizationCertificate, StabilizationError,
                        StabilizationPolicy, briancon_skoda, brieskorn_slice,
                        coker_check_prop16, f_power_image_dim,
                        gauss_manin_identity_check, hbar_certificate, hbar_dim,
                        hf_dim, milnor_eigenspace_dim, pole_filtration_dims,
                        relation_space, stabilized_span_rank)
from .exactlinalg import (ExactMatrix, InvariantError, QuotientMapError, SpanSolver,
                          Subspace, rank_of_vectors)
from .exterior import (EulerField, Form, eta0, exterior_d, iota_euler, lie_euler,
                       omega0, wedge)
from .families import (DEFAULT_SAMPLES, PencilFamily, PoleConstancyResult,
                       TjurinaScanResult, grp_nabla_matrix, pole_constancy_check,
                       specialize, tjurina_scan, xi_f)
from .gradedpoly import (InputError, ParseError, Poly, dehomogenize_shift,
                         hilbert_ci_coeffs, is_squarefree, monomial_basis,
                         parse_poly, render, weight_vector, weighted_degree)
from .jacobian import (NonIsolatedError, global_tjurina, jacobian_dim,
                       jacobian_dims, smooth_hodge_numbers, smoothness_test)
from .singularities import (HodgeReport, LocalIdealJets, WeightedChart, alpha_Y,
                            build_chart, global_jq_dim, hodge_filtration_dims,
                            local_jq_jets, local_tjurina, monomial_ideal_geq,
                            verify_chart_coverage)

__version__ = "0.1.0"

__all__ = [
    "BrianconSkodaResult", "BrieskornSlice", "DEFAULT_SAMPLES", "EulerField",
    "ExactMatrix", "Form", "HodgeReport", "InputError", "InvariantError",
    "LocalIdealJets", "NonIsolatedError", "ParseError",
    "PencilFamily", "PoleConstancyResult", "PoleFiltrationReport", "Poly",
    "QuotientMapError", "SpanSolver", "StabilizationCertificate",
    "StabilizationError", "StabilizationPolicy", "Subspace", "TjurinaScanResult",
    "WeightedChart", "alpha_Y", "briancon_skoda", "brieskorn_slice",
    "build_chart", "coker_check_prop16", "dehomogenize_shift", "eta0",
    "exterior_d", "f_power_image_dim", "gauss_manin_identity_check",
    "global_jq_dim", "global_tjurina", "grp_nabla_matrix", "hbar_certificate",
    "hbar_dim", "hf_dim", "hilbert_ci_coeffs", "hodge_filtration_dims",
    "iota_euler", "is_squarefree", "jacobian_dim", "jacobian_dims",
    "lie_euler", "local_jq_jets", "local_tjurina",
    "milnor_eigenspace_dim", "monomial_basis", "monomial_ideal_geq", "omega0",
    "parse_poly", "pole_constancy_check", "pole_filtration_dims",
    "rank_of_vectors", "relation_space", "render", "smooth_hodge_numbers",
    "smoothness_test", "specialize", "stabilized_span_rank", "tjurina_scan",
    "verify_chart_coverage", "weight_vector", "weighted_degree", "wedge", "xi_f",
]
