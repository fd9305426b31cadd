"""hopfact: an exact workbench for finite-dimensional Hopf algebra actions.

Everything is exact linear algebra over Q or a prime field: algebras and
Hopf algebras by structure constants, measuring actions as rank-3 tensors,
the convolution algebra with its twist automorphisms and two module
structures, ideal cores and their transport, radicals and block spectra,
stratum coefficient algebras, derivation cores, and truncated divided-power
series.  Desk-scale brute-force oracles double-check every computed route.

The names below load lazily: ``import hopfact`` imports no submodule, and
``hopfact.kernel`` imports ``hopfact.linalg`` on first use.
"""

import importlib

_EXPORTS = {
    "linalg": """QQ GF Field Matrix Subspace rref kernel solve subspace_sum
        subspace_intersect is_stable closure largest_stable_inside pull_back
        enumerate_subspaces gaussian_binomial subspace_count EnumerationBound""",
    "hopf": """FiniteAlgebra HopfAlgebra verify_algebra verify_hopf
        is_cocommutative is_group_basis group_algebra dual_hopf tensor_hopf
        tensor_algebra_prod sweedler_hopf restricted_line_hopf ideal_closure""",
    "action": """ModuleAlgebraAction Representation verify_action comodule_map
        matrix_coefficients coefficient_subalgebra hit_action""",
    "convolution": """ConvolutionAlgebra identity_report check_intertwining
        check_dotinv check_transport check_dotinv_lattice stability_scan
        transport_subspace restrict_subspace""",
    "ideals": """Ideal core core_via_psi group_core_by_intersection radical
        radical_of_ideal is_semiprime is_prime spectrum SpectrumEntry
        center_subspace h_spectrum strata stratum_algebra verify_strat_bijection
        composite_core reformulation_check semiprime_core_check
        UnsupportedComputation""",
    "lie": """LieAction verify_lie_action lie_core lie_semiprime_transfer_check
        pbw_comul TruncatedSeries monomial_cmp lowest_coefficient
        charp_grouplike_demo""",
    "workspace": "Workspace WorkspaceError load_bundled",
    "report": "Report",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # Looked up in the submodule on every access and never stored here, so a
    # name rebound on its submodule (a patch, a wrapper) is seen, and undone.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
