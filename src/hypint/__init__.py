"""hypint: differential systems, Gamma-type series and contour quadrature
for integrals of exp(P) against algebraic weights, viewed as functions of
the polynomial coefficients."""

from .exact import ExactComplex
from .lattice import (Base, ExponentSet, LatticeRelation, base_coords,
                      cayley_set, enumerate_bases, kernel_basis)
from .operators import (DiffOperator, apply_to_series, box_operator,
                        build_system, euler_t_operator, euler_y_operator,
                        gg_relation_operator, operator_text)
from .polynomials import (CoeffVar, Perturbation, SparsePolynomial,
                          apply_perturbation, cayley_polynomial)
from .quadrature import (AccuracyError, AlphaMonomial, AlphaOne,
                         AlphaPowerProduct, Arc, DivergenceError,
                         IntegrandSpec, Line, ProductContour, QuadratureError,
                         Ray, Segment, euler_integral_eval, gg_eval,
                         integrate, proper_integral)
from .series import (GammaSeries, GammaTerm, NumericTerm, OracleTerm,
                     SeriesLayout, SeriesPoleError, evaluate_series,
                     expand_general, gg_series, standard_expansion)
from .verify import (CoeffFunction, ResidualReport, RootContinuation,
                     SeriesOracleReport, check_cayley_consistency,
                     check_gg_system, check_jacobian_case,
                     check_root_theorems, fd_apply, residual_report,
                     series_vs_oracle)

__version__ = "0.1.0"

__all__ = [
    "ExactComplex",
    "ExponentSet", "Base", "LatticeRelation", "base_coords", "kernel_basis",
    "cayley_set", "enumerate_bases",
    "SparsePolynomial", "Perturbation", "CoeffVar", "apply_perturbation",
    "cayley_polynomial",
    "DiffOperator", "box_operator", "euler_t_operator", "euler_y_operator",
    "gg_relation_operator", "build_system", "apply_to_series",
    "operator_text",
    "GammaSeries", "GammaTerm", "OracleTerm", "NumericTerm", "SeriesLayout",
    "SeriesPoleError", "gg_series", "expand_general",
    "standard_expansion", "evaluate_series",
    "Segment", "Ray", "Arc", "Line", "ProductContour", "IntegrandSpec",
    "AlphaOne", "AlphaMonomial", "AlphaPowerProduct", "integrate",
    "proper_integral", "gg_eval", "euler_integral_eval",
    "QuadratureError", "DivergenceError", "AccuracyError",
    "CoeffFunction", "ResidualReport", "RootContinuation",
    "SeriesOracleReport", "fd_apply", "residual_report", "check_gg_system",
    "check_cayley_consistency", "check_root_theorems", "check_jacobian_case",
    "series_vs_oracle",
]
