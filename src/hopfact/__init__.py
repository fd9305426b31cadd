"""hopfact: an exact workbench for finite-dimensional Hopf algebra actions.

Everything is exact linear algebra over Q or a prime field: algebras and
Hopf algebras by structure constants, measuring actions as rank-3 tensors,
the convolution algebra with its twist automorphisms and two module
structures, ideal cores and their transport, radicals and block spectra,
stratum coefficient algebras, derivation cores, and truncated divided-power
series.  Desk-scale brute-force oracles double-check every computed route.
"""

from .linalg import (QQ, GF, Field, Matrix, Subspace, rref, kernel, solve,
                     subspace_sum, subspace_intersect, is_stable, closure,
                     largest_stable_inside, pull_back, enumerate_subspaces,
                     gaussian_binomial, subspace_count, EnumerationBound)
from .hopf import (FiniteAlgebra, HopfAlgebra, verify_algebra, verify_hopf,
                   is_cocommutative, is_group_basis, group_algebra, dual_hopf,
                   tensor_hopf, tensor_algebra_prod, is_grouplike,
                   enumerate_grouplikes, primitives, sweedler_hopf,
                   restricted_line_hopf, ideal_closure)
from .action import (ModuleAlgebraAction, Representation, verify_action,
                     invariants, comodule_map, matrix_coefficients,
                     coefficient_subalgebra, hit_action,
                     group_coeff_antipode_check)
from .convolution import (ConvolutionAlgebra, ConvElement, identity_report,
                          check_intertwining, check_dotinv, check_transport,
                          check_dotinv_lattice, stability_scan,
                          transport_subspace, restrict_subspace)
from .ideals import (Ideal, ideal_sum, ideal_intersect, ideal_product, core,
                     core_via_psi, group_core_by_intersection, radical,
                     radical_of_ideal, is_semiprime, is_prime, spectrum,
                     SpectrumEntry, center_subspace, heart, h_spectrum, strata,
                     stratum_algebra, verify_strat_bijection, composite_core,
                     reformulation_check, semiprime_core_check,
                     UnsupportedComputation)
from .lie import (LieAction, verify_lie_action, lie_core,
                  lie_semiprime_transfer_check, pbw_comul, TruncatedSeries,
                  monomial_cmp, lowest_coefficient, charp_grouplike_demo)
from .workspace import Workspace, WorkspaceError, load_bundled
from .report import Report

__version__ = "0.1.0"
