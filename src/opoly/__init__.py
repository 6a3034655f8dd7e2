"""opoly: constant-coefficient combinations of monic orthogonal polynomials.

The package decides when ``Q_n = P_n + a_1 P_{n-1} + ... + a_k P_{n-k}``
(constant ``a_j``, ``a_k != 0``) is again an orthogonal sequence, derives the
resulting recurrence, Jacobi-matrix, quadrature and functional-relation
consequences, and generates the parametric families for which the ``k = 1``
and ``k = 2`` combinations stay orthogonal.
"""

from .errors import (
    ConstraintError,
    DegeneracyError,
    HorizonError,
    InapplicableError,
    NumericError,
    OpolyError,
    StateError,
)
from .jacobi import (
    HkSolution,
    OrthonormalReport,
    RelationReport,
    ZerosReport,
    change_basis_matrix,
    multiset_distance,
    norm_diagonal,
    orthonormal_identity_check,
    solve_hk,
    verify_functional_relation,
    zeros_q,
)
from .lincomb import (
    CombCoeffs,
    ConditionReport,
    GramReport,
    check_conditions,
    oracle_gram_check,
    q_poly,
    tilde_recurrence,
)
from .moments import moments_from_recurrence
from .quadrature import (
    QuadratureRule,
    ShohatReport,
    christoffel_numbers,
    degree_of_precision,
    gauss_rule,
    shohat_check,
)
from .recurrence import (
    DEFAULT_MAX_HORIZON,
    GAMMA_FLOOR,
    K2Case,
    K2Params,
    Poly,
    RecurrencePair,
    chebyshev_family,
    k1_family,
    k2_difference_residual,
    k2_family,
    poly_p,
)

__version__ = "0.1.0"

__all__ = [
    "CombCoeffs",
    "ConditionReport",
    "ConstraintError",
    "DEFAULT_MAX_HORIZON",
    "DegeneracyError",
    "GAMMA_FLOOR",
    "GramReport",
    "HkSolution",
    "HorizonError",
    "InapplicableError",
    "K2Case",
    "K2Params",
    "NumericError",
    "OpolyError",
    "OrthonormalReport",
    "Poly",
    "QuadratureRule",
    "RecurrencePair",
    "RelationReport",
    "ShohatReport",
    "StateError",
    "ZerosReport",
    "change_basis_matrix",
    "chebyshev_family",
    "check_conditions",
    "christoffel_numbers",
    "degree_of_precision",
    "gauss_rule",
    "k1_family",
    "k2_difference_residual",
    "k2_family",
    "moments_from_recurrence",
    "multiset_distance",
    "norm_diagonal",
    "oracle_gram_check",
    "orthonormal_identity_check",
    "poly_p",
    "q_poly",
    "shohat_check",
    "solve_hk",
    "tilde_recurrence",
    "verify_functional_relation",
    "zeros_q",
]
