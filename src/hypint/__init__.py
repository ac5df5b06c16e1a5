"""hypint: differential systems, Gamma-type series and contour quadrature
for integrals of exp(P) against algebraic weights, viewed as functions of
the polynomial coefficients.

The names in __all__ are loaded on first access (PEP 562), each from the
module that defines it, and so are the submodules that define them, so
``import hypint`` costs nothing and the exact modules (lattice,
operators, series) come without numpy.
"""

import importlib

__version__ = "0.1.0"

# (module, names) in the order of __all__
_EXPORTS = (
    ("exact", ("ExactComplex",)),
    ("lattice", ("ExponentSet", "Base", "LatticeRelation", "base_coords",
                 "kernel_basis", "cayley_set", "enumerate_bases")),
    ("polynomials", ("SparsePolynomial", "Perturbation", "CoeffVar",
                     "apply_perturbation", "cayley_polynomial")),
    ("operators", ("DiffOperator", "box_operator", "euler_t_operator",
                   "euler_y_operator", "gg_relation_operator", "build_system",
                   "apply_to_series", "operator_text")),
    ("series", ("GammaSeries", "GammaTerm", "OracleTerm", "NumericTerm",
                "SeriesLayout", "SeriesPoleError", "gg_series",
                "expand_general", "standard_expansion", "evaluate_series")),
    ("contours", ("Segment", "Ray", "Arc", "Line", "ProductContour")),
    ("quadrature", ("IntegrandSpec", "AlphaOne", "AlphaMonomial",
                    "AlphaPowerProduct", "integrate", "proper_integral",
                    "gg_eval", "euler_integral_eval")),
    ("contours", ("QuadratureError", "DivergenceError", "AccuracyError")),
    ("verify", ("CoeffFunction", "ResidualReport", "RootContinuation",
                "SeriesOracleReport", "fd_apply", "residual_report",
                "check_gg_system", "check_cayley_consistency",
                "check_root_theorems", "check_jacobian_case",
                "series_vs_oracle")),
)

__all__ = [name for _, names in _EXPORTS for name in names]

_HOME = {name: module for module, names in _EXPORTS for name in names}


def __getattr__(name):
    if name in _HOME.values():  # a submodule: importing binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
