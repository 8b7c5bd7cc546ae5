"""Exact cohomology engine for finite-dimensional Hopf *-algebras.

Computes the natural and dual cohomology of bicomodules over catalog
algebras as explicit rational linear algebra, and decides counit,
Haar-state, codiagonal and invariant-mean existence as exact linear /
LP-feasibility problems with certificates.
"""

from .scalars import Scalar, parse_scalar, format_scalar
from .linalg import (
    Matrix,
    TensorSpace,
    kron,
    leg_map,
    rotation_sigma,
    kernel_basis,
    image_rank,
    solve,
    psd_check,
)
from .monoids import FiniteGroup, FiniteMonoid
from .hopf import (
    HopfStarAlgebra,
    check_axioms,
    check_saturated,
    counit_find,
    dual_hopf,
    function_algebra,
    group_algebra,
    haar_state,
)
from .comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    catalog_bicomodules,
    check_nondegenerate,
    dual_coaction,
    grade_decomposition,
    quotient_comodule,
    trivial_left_coaction,
)
from .cochain import (
    CochainComplex,
    CohomologyResult,
    bar_boundary,
    build_complex,
    cohomology,
    dual_coboundary,
    homotopy_from_codiagonal,
    homotopy_from_counit_dual,
    homotopy_from_counit_natural,
    homotopy_from_haar,
    identify_dual_with_bar,
    identify_dual_with_natural,
    natural_coboundary,
)
from .amenability import (
    CodiagonalCertificate,
    MeanCertificate,
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    find_codiagonal,
    find_invariant_mean,
    kronecker_codiagonal,
)

__version__ = "0.1.0"
