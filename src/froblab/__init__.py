"""froblab: exact computations with modules over Frobenius skew polynomial rings.

The package works with finite commutative algebras over a prime field, given
by structure constants.  On top of those it provides the twisted polynomial
ring R[x,f] with x r = r^p x, left and right modules over it presented as
matrices, graded annihilators and stabilization exponents, Frobenius powers
and closures of ideals, and the duality that swaps the two sides of the ring
through the linear dual of the algebra.
"""

from .algebra import (
    FiniteAlgebra,
    FrobeniusData,
    Ideal,
    LocalDecomposition,
    extension_field,
    frobenius_closure_data,
    prime_field,
    product_algebra,
    truncated_polynomial_algebra,
)
from .duality import (
    DualityContext,
    build_duality_context,
    check_duality_identities,
    double_dual_map,
    dual_left,
    dual_map,
    dual_module,
    dual_right,
    eval_dual_formula_left,
    eval_dual_formula_right,
)
from .errors import AxiomError, BudgetError
from .fmodule import (
    FSubmodule,
    LeftFModule,
    RightFModule,
    cartier_from_splitting,
    find_module_isomorphism,
    graded_annihilator_set,
    hom_space,
    natural_frobenius_module,
    twisted_frobenius_module,
    twisted_modules_isomorphic,
)
from .linalg import FpMatrix, Subspace
from .report import CheckResult, Report
from .skew import (
    GradedTwoSidedIdeal,
    SkewPolynomial,
    is_graded_two_sided,
    unit_graded_ideal,
    x_power_graded_ideal,
    zero_graded_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomError",
    "BudgetError",
    "CheckResult",
    "DualityContext",
    "FSubmodule",
    "FiniteAlgebra",
    "FpMatrix",
    "FrobeniusData",
    "GradedTwoSidedIdeal",
    "Ideal",
    "LeftFModule",
    "LocalDecomposition",
    "Report",
    "RightFModule",
    "SkewPolynomial",
    "Subspace",
    "build_duality_context",
    "cartier_from_splitting",
    "check_duality_identities",
    "double_dual_map",
    "dual_left",
    "dual_map",
    "dual_module",
    "dual_right",
    "eval_dual_formula_left",
    "eval_dual_formula_right",
    "extension_field",
    "find_module_isomorphism",
    "frobenius_closure_data",
    "graded_annihilator_set",
    "hom_space",
    "is_graded_two_sided",
    "natural_frobenius_module",
    "prime_field",
    "product_algebra",
    "truncated_polynomial_algebra",
    "twisted_frobenius_module",
    "twisted_modules_isomorphic",
    "unit_graded_ideal",
    "x_power_graded_ideal",
    "zero_graded_ideal",
]
