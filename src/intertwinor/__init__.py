"""Eigenvalues of conformally invariant operators on products of spheres.

Three independent routes to the same spectrum -- lattice recursion over
K-types, a ratio of eight Gamma factors, and a factorized polynomial for
integer orders -- plus a zonal-function calculus that machine-verifies the
defining operator identities on band-limited functions.
"""

from .geometry import DIRECTIONS, KType, Signature, scalar_curvature
from .spectrum import SpectralOrder, SpectrumTable, ZeroDenominator, \
    PathInconsistency, recursion_spectrum, transition_ratio, max_loop_deviation
from .closedform import PoleAtKType, z_spectral, z_spectral_grid, \
    factorized_eigenvalue_exact, parity_constant, conformal_laplacian_eigenvalue_exact
from .zonal import GridTooCoarse, QuadratureGrid, ZonalFunction, \
    apply_N, apply_T_banded, apply_T_numeric, apply_T_via_lemma, basis_element, evaluate, \
    mult_by_cos, multiply_by_varpi, project, quadrature_grid
from .verify import VerificationReport, check_conformal_laplacian, \
    check_intertwining, check_inversion, check_lemma1, \
    check_loop_consistency, check_method_agreement, random_zonal, run_suite

__version__ = "0.1.0"
