"""Exact pole-order and Hodge filtration computations for complements of
projective hypersurfaces, through graded Brieskorn modules and Jacobian rings.

Everything is exact rational linear algebra; no floating point anywhere.
The package exports what the commands of `cli` call, the types those calls
take and the errors they raise; every other name is imported from its module.
"""

from .brieskorn import (StabilizationError, StabilizationPolicy, briancon_skoda,
                        hbar_certificate, milnor_eigenspace_dim, pole_filtration_dims)
from .exactlinalg import InvariantError
from .families import PencilFamily, grp_nabla_matrix, pole_constancy_check, tjurina_scan
from .gradedpoly import InputError, ParseError, Poly, parse_poly
from .jacobian import NonIsolatedError, global_tjurina, jacobian_dims, smoothness_test
from .singularities import build_chart, hodge_filtration_dims, local_tjurina

__version__ = "0.1.0"

__all__ = [
    "InputError", "InvariantError", "NonIsolatedError", "ParseError", "PencilFamily",
    "Poly", "StabilizationError", "StabilizationPolicy", "briancon_skoda", "build_chart",
    "global_tjurina", "grp_nabla_matrix", "hbar_certificate", "hodge_filtration_dims",
    "jacobian_dims", "local_tjurina", "milnor_eigenspace_dim", "parse_poly",
    "pole_constancy_check", "pole_filtration_dims", "smoothness_test", "tjurina_scan",
]
