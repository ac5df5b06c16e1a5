"""Finite-difference verification of the generated differential systems.

Coefficient functions (quadrature-backed, closed-form or
root-continuation composites) are differentiated with second-order
central stencils and plugged into the operators; the residual of an
identity that holds analytically should then shrink like h**2 until the
evaluation noise floor.  Reports carry the residual both absolutely and
relative to max(|value|, largest term magnitude) so that identities
between large cancelling terms are judged fairly.

The stencil arithmetic is type-agnostic: feed a coefficient function
that returns mpmath values together with an mpf step and the whole
combination runs in extended precision, which is what makes the
h -> h/2 fourfold residual drop observable past the double-precision
noise floor.

Before it builds its first report, a check collects every stencil point
of every row it reports.  A quadrature-backed coefficient function
evaluates them in one lockstep ``integrate`` call (see
CoeffFunction.prefetch), with the values each point gets alone;
closed-form, root and user functions are evaluated lazily, once per
distinct point, as the reports look them up.

On contours with free endpoints the homogeneity identity in the
integration variable picks up a boundary term (the primitive evaluated
at the chain ends); the check adds that correction for one-variable
chains and skips the identity, with a notice, where the correction is
not modeled.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .contours import AccuracyError, ProductContour, _INF, _leg_endpoints
from .lattice import ExponentSet, unit_exponents
from .operators import (DiffOperator, build_system, euler_y_operator,
                        gg_relation_operator, operator_text)
from .polynomials import CoeffVar, SparsePolynomial, as_coeff_var, joined_vars
from .quadrature import (AlphaMonomial, AlphaOne, AlphaPowerProduct,
                         IntegrandSpec, integrate)
from .series import GammaSeries, evaluate_series

DEFAULT_STEP_SCALE = 1e-4
DEFAULT_RESIDUAL_TOL = 1e-3


def _takes_batches(fn):
    """Mark ``fn`` as also taking a list of assignments, for which it
    returns the list of values.  In place of a value an entry may hold
    the exception that the point raises alone, or None where the point
    was not evaluated (see CoeffFunction.prefetch)."""
    fn.takes_batches = True
    return fn


class CoeffFunction:
    """An evaluable, cached map from coefficient assignments to a scalar."""

    def __init__(self, variables: Sequence, fn: Callable, name: str = "f"):
        self.variables = tuple(variables)
        self.fn = fn
        self.name = name
        self._cache = {}
        self._errors = {}  # prefetched points whose evaluation raises

    def _key(self, assignment: Mapping):
        return tuple((var, assignment[var]) for var in self.variables)

    def __call__(self, assignment: Mapping):
        key = self._key(assignment)
        if key not in self._cache:
            if key in self._errors:
                raise self._errors[key]
            self._cache[key] = self.fn(dict(assignment))
        return self._cache[key]

    def prefetch(self, points):
        """Cache the values at the uncached ``points`` with one call of a
        batch-capable ``fn``; other functions stay lazy.

        A point whose entry in the batch is an exception raises it when
        it is looked up.  A point the batch did not evaluate (None) is not
        cached, and if building the points or the batch raises, nothing
        is: such a point is evaluated when it is looked up and raises
        what it raises alone.
        """
        if not getattr(self.fn, "takes_batches", False):
            return
        try:
            todo = {}
            for point in points:
                key = self._key(point)
                if key not in self._cache:
                    todo.setdefault(key, point)
            if todo:
                values = self.fn([dict(point) for point in todo.values()])
                for key, value in zip(todo, values):
                    if isinstance(value, Exception):
                        self._errors[key] = value
                    elif value is not None:
                        self._cache[key] = value
        except Exception:
            pass  # the lookups raise it again, point by point

    @staticmethod
    def from_gg_quadrature(exponents: ExponentSet, u, contour: ProductContour,
                           tol: float = 1e-12) -> "CoeffFunction":
        """Quadrature of exp(sum c_w t^w) * t^(u-1) as a function of the c_w."""
        variables = tuple(CoeffVar(0, w) for w in exponents.members)
        n = exponents.dimension
        uu = _as_u_vector(u, n)
        alpha = AlphaOne() if all(complex(x) == 1 for x in uu) \
            else AlphaMonomial(uu)

        def spec(assignment):
            return IntegrandSpec(SparsePolynomial(
                n, {var.exponent: assignment[var] for var in variables}), alpha)

        return CoeffFunction(variables, _quadrature_fn(spec, contour, tol),
                             name="gg-quadrature")

    @staticmethod
    def from_euler_quadrature(exponent_sets: Sequence, v, u,
                              contour: ProductContour,
                              tol: float = 1e-12) -> "CoeffFunction":
        """Quadrature of prod P_i^v_i * t^(u-1) as a function of the c_w^(i)."""
        exponent_sets = tuple(exponent_sets)
        n = exponent_sets[0].dimension
        variables = joined_vars(exponent_sets)

        def spec(assignment):
            polys = [SparsePolynomial(
                n, {w: assignment[CoeffVar(i + 1, w)] for w in s.members})
                for i, s in enumerate(exponent_sets)]
            return IntegrandSpec(SparsePolynomial.zero(n),
                                 AlphaPowerProduct(polys, v, u))

        return CoeffFunction(variables, _quadrature_fn(spec, contour, tol),
                             name="euler-quadrature")

    @staticmethod
    def gaussian_quadratic(extended: bool = False) -> "CoeffFunction":
        """The closed form sqrt(pi / -c2) * exp(-c1^2 / (4 c2)) of the
        one-variable quadratic kernel on the real line.

        With ``extended`` the evaluation uses mpmath at the ambient
        working precision; run the whole finite-difference check inside
        mpmath.workdps (points, stencil sums and the function must share
        the precision) to observe truncation-dominated residuals far
        below the double-precision noise floor.
        """
        variables = (CoeffVar(0, (1,)), CoeffVar(0, (2,)))
        if not extended:
            def fn(assignment):
                c1 = complex(assignment[variables[0]])
                c2 = complex(assignment[variables[1]])
                return cmath.sqrt(cmath.pi / (-c2)) * cmath.exp(-c1 * c1 / (4 * c2))
        else:
            import mpmath as mp

            def fn(assignment):
                c1 = mp.mpc(assignment[variables[0]])
                c2 = mp.mpc(assignment[variables[1]])
                return mp.sqrt(mp.pi / (-c2)) * mp.exp(-c1 * c1 / (4 * c2))
        return CoeffFunction(variables, fn, name="gaussian-closed-form")


def _quadrature_fn(spec: Callable, contour: ProductContour, tol: float):
    """The batch-capable value of integrate at spec(assignment): one
    assignment gives one value, a list of them one integrate call and
    the list of values, with a point's AccuracyError in place of its
    value where its integral fails, and None where integrate did not get
    to it."""
    @_takes_batches
    def fn(assignments):
        batch = not isinstance(assignments, Mapping)
        specs = [spec(a) for a in (assignments if batch else [assignments])]
        try:
            results = integrate(specs, contour, tol)
        except AccuracyError as exc:
            results = getattr(exc, "results", None)
            if not batch or results is None:
                raise
        values = [r[0] if isinstance(r, tuple) else r for r in results]
        return values if batch else values[0]
    return fn


@dataclass
class ResidualReport:
    """One operator identity checked by finite differences."""

    label: str
    operator: str
    center: dict
    step: float
    residual: float
    relative: float
    tol: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "operator": self.operator,
            "center": {str(k): [v.real, v.imag]
                       for k, v in ((kk, complex(vv)) for kk, vv in self.center.items())},
            "step": self.step,
            "residual": self.residual,
            "relative": self.relative,
            "tol": self.tol,
            "passed": self.passed,
            "note": self.note,
        }


def _stencil(order: int) -> dict:
    """Central difference stencil offsets/weights for one derivative order
    (second-order accurate, floats are exact dyadics)."""
    if order == 0:
        return {0: 1.0}
    if order == 1:
        return {-1: -0.5, 1: 0.5}
    if order == 2:
        return {-1: 1.0, 0: -2.0, 1: 1.0}
    inner = _stencil(order - 2)
    out = {}
    for o1, w1 in inner.items():
        for o2, w2 in _stencil(2).items():
            out[o1 + o2] = out.get(o1 + o2, 0.0) + w1 * w2
    return {o: w for o, w in out.items() if w != 0.0}


def _order(deriv) -> int:
    """Total derivative order p of an operator term."""
    return sum(order for _, order in deriv)


def _steps(f: CoeffFunction, center: Mapping, h, order: int) -> dict:
    """Steps for a derivative of total order ``order``.

    The default is scale * max(1, |center|) per variable.  A stencil of
    order p amplifies the evaluation noise of f by about h**-p, so for
    p >= 3 the scale grows to DEFAULT_STEP_SCALE**(2/p), which keeps that
    amplification at the second-order level (1e8 with the 1e-4 scale).
    """
    if isinstance(h, Mapping):
        return dict(h)
    if h is None:
        scale = DEFAULT_STEP_SCALE ** (2 / max(order, 2))
        return {var: scale * max(1.0, abs(center[var]))
                for var in f.variables}
    return {var: h for var in f.variables}


def _stencil_points(center, deriv, steps):
    """(point, weight) pairs of the tensor central-difference stencil of
    D^deriv at the center."""
    combos = [({}, 1.0)]
    for var, order in deriv:
        combos = [
            ({**shift, var: off}, w * w2)
            for shift, w in combos for off, w2 in _stencil(order).items()
        ]
    points = []
    for shift, weight in combos:
        point = dict(center)
        for var, off in shift.items():
            if off:
                point[var] = point[var] + off * steps[var]
        points.append((point, weight))
    return points


def _derivative_estimate(f, center, deriv, steps):
    """Tensor central-difference estimate of D^deriv f at the center."""
    total = 0
    for point, weight in _stencil_points(center, deriv, steps):
        total = total + weight * f(point)
    for var, order in deriv:
        total = total / steps[var] ** order
    return total


def _report_points(op: DiffOperator, f: CoeffFunction, center, h):
    """Every point at which residual_report(op, f, center, h) looks f up."""
    yield center
    for _, deriv in op.terms:
        if deriv:
            steps = _steps(f, center, h, _order(deriv))
            for point, _ in _stencil_points(center, deriv, steps):
                yield point


def _term_values(op: DiffOperator, f: CoeffFunction, center, h,
                 halvings: int = 0):
    """Each operator term's value, its derivative by central differences
    with the term's steps (see _steps) halved ``halvings`` times."""
    values = []
    for (mono, deriv), scalar in op.terms.items():
        factor = complex(scalar)
        value = factor
        for var, power in mono:
            value = value * center[var] ** power
        if deriv:
            steps = _steps(f, center, h, _order(deriv))
            if halvings:
                steps = {var: s / 2 ** halvings for var, s in steps.items()}
            value = value * _derivative_estimate(f, center, deriv, steps)
        else:
            value = value * f(center)
        values.append(value)
    return values


def fd_apply(op: DiffOperator, f: CoeffFunction, center: Mapping, h=None,
             richardson: int = 0):
    """Apply an operator to a coefficient function by central differences.

    ``h`` is a uniform step, a per-variable mapping, or None for the
    default 1e-4 * max(1, |center|) per variable, larger for terms of
    derivative order 3 and more (see _steps).  ``richardson`` adds
    extrapolation levels (each level cancels the leading h^2 error, at
    the price of hiding the plain second-order convergence law).
    """
    center = dict(center)
    value = sum(_term_values(op, f, center, h))
    for level in range(1, richardson + 1):
        finer = sum(_term_values(op, f, center, h, level))
        value = (4 * finer - value) / 3
    return value


def residual_report(op: DiffOperator, f: CoeffFunction, center: Mapping,
                    h=None, tol: float = DEFAULT_RESIDUAL_TOL,
                    label: str = "", correction=0, note: str = "") -> ResidualReport:
    """Residual of op f = correction at the center, relative to the larger
    of |f(center)| and the largest single term magnitude."""
    center = dict(center)
    parts = _term_values(op, f, center, h)
    residual = abs(sum(parts) - correction)
    scale = max(abs(f(center)), max((abs(p) for p in parts), default=0.0))
    relative = float(residual / scale) if scale else float(residual)
    # the largest step, which the highest-order term uses
    top = max((_order(deriv) for _, deriv in op.terms), default=0)
    steps = _steps(f, center, h, top)
    step_repr = float(max(abs(s) for s in steps.values())) if steps else 0.0
    return ResidualReport(
        label=label or operator_text(op),
        operator=operator_text(op),
        center={str(k): complex(v) for k, v in center.items()},
        step=step_repr,
        residual=float(residual),
        relative=relative,
        tol=tol,
        passed=relative <= tol,
        note=note,
    )


def _as_u_vector(u, n: int):
    if isinstance(u, (tuple, list)):
        if len(u) != n:
            raise ValueError(f"parameter vector has length {len(u)}, expected {n}")
        return tuple(u)
    return (u,) * n


def check_gg_system(exponents: ExponentSet, u, center: Mapping,
                    f: CoeffFunction | None = None,
                    contour: ProductContour | None = None,
                    h=None, tol: float = DEFAULT_RESIDUAL_TOL,
                    quad_tol: float = 1e-12, operator_u=None):
    """Residuals of the full generated system on a coefficient function.

    Checks the heat-type relations (each exponent's derivative expressed
    through the linear ones, when all unit exponents are present), the
    box operators of a kernel lattice basis, and the Euler operators
    with the given parameters.  ``f`` defaults to the quadrature of
    exp(P) * t^(u-1) over ``contour``.  ``operator_u`` overrides the
    parameters used in the Euler operators (a deliberate mismatch makes
    a negative control).
    """
    n = exponents.dimension
    uu = _as_u_vector(u, n)
    uu_ops = uu if operator_u is None else _as_u_vector(operator_u, n)
    if f is None:
        if contour is None:
            raise ValueError("either a coefficient function or a contour is needed")
        f = CoeffFunction.from_gg_quadrature(exponents, uu, contour, quad_tol)
    center = {as_coeff_var(k): v for k, v in center.items()}
    rows = build_system((exponents,), 0, uu_ops)
    f.prefetch(point for *_, op in rows
               for point in _report_points(op, f, center, h))
    return [residual_report(op, f, center, h=h, tol=tol, label=label)
            for _, _, label, op in rows]


def _chain_endpoint_values(chain):
    start = _leg_endpoints(chain[0])[0]
    end = _leg_endpoints(chain[-1])[1]
    start = None if start is _INF else complex(start)
    end = None if end is _INF else complex(end)
    return start, end


def _euler_t_boundary(center_polys, v, u, contour):
    """Boundary term of the t-homogeneity identity on a one-variable chain:
    the primitive t^u * prod P_i^v_i evaluated at end minus start
    (principal branches; zero for closed or decaying chains)."""
    chain = contour.chains[0]
    start, end = _chain_endpoint_values(chain)
    if start is None or end is None:
        return 0j
    if abs(start - end) < 1e-12:
        return 0j

    def primitive(t):
        if t == 0:
            if complex(u[0]).real > 0:
                return 0j
            raise ValueError("boundary term is singular at t = 0")
        value = cmath.exp(complex(u[0]) * cmath.log(t))
        for poly, vi in zip(center_polys, v):
            base = poly.evaluate(t)
            vi = complex(vi)
            if base == 0:
                if vi == 0:
                    continue
                if vi.real > 0:
                    return 0j
                raise ValueError(
                    f"boundary term is singular: a factor vanishes at t = {t}"
                )
            value *= cmath.exp(vi * cmath.log(base))
        return value

    return primitive(end) - primitive(start)


def check_cayley_consistency(center_polys: Sequence, v, u,
                             contour: ProductContour,
                             exponent_sets: Sequence | None = None,
                             h=None, tol: float = DEFAULT_RESIDUAL_TOL,
                             quad_tol: float = 1e-12,
                             operator_u=None, operator_v=None):
    """Residuals of the joined-support system on a power-product integral.

    The integral of prod P_i^v_i * t^(u-1) is treated as a function of
    all block coefficients c_w^(i); the box operators come from the
    kernel of the joined exponent set, the block homogeneity operators
    carry the v_i, the t homogeneity operators carry the u_j (boundary
    corrected on one-variable bounded chains), and the constant-term
    mixed relations are checked per block where applicable.
    """
    center_polys = tuple(center_polys)
    k = len(center_polys)
    n = center_polys[0].dimension
    if exponent_sets is None:
        exponent_sets = tuple(p.support() for p in center_polys)
    exponent_sets = tuple(exponent_sets)
    v = tuple(v)
    uu = _as_u_vector(u, n)
    if len(v) != k:
        raise ValueError("need one homogeneity parameter per block")
    uu_ops = uu if operator_u is None else _as_u_vector(operator_u, n)
    v_ops = v if operator_v is None else tuple(operator_v)
    if len(v_ops) != k:
        raise ValueError("need one operator homogeneity parameter per block")
    rows = build_system(exponent_sets, k, uu_ops, v_ops)

    f = CoeffFunction.from_euler_quadrature(exponent_sets, v, uu, contour,
                                            quad_tol)
    center = {var: center_polys[var.block - 1].coefficient(var.exponent)
              for var in joined_vars(exponent_sets)}

    jobs, skipped = [], []
    for kind, key, label, op in rows:
        correction, note = 0, ""
        if kind == "euler_t" and n == 1:
            correction = _euler_t_boundary(center_polys, v, uu, contour)
            if correction != 0:
                note = "boundary-corrected on a chain with free endpoints"
        elif kind == "euler_t":
            start, end = _chain_endpoint_values(contour.chains[key - 1])
            closed = (start is None and end is None) or (
                start is not None and end is not None and abs(start - end) < 1e-12)
            if not closed:
                skipped.append(ResidualReport(
                    label=label, operator=operator_text(op),
                    center={}, step=0.0, residual=float("nan"),
                    relative=float("nan"), tol=tol, passed=True,
                    note="skipped: boundary correction not modeled for "
                         "bounded chains in more than one variable",
                ))
                continue
        jobs.append((label, op, correction, note))

    f.prefetch(point for _, op, _, _ in jobs
               for point in _report_points(op, f, center, h))
    return [residual_report(op, f, center, h=h, tol=tol, label=label,
                            correction=corr, note=note)
            for label, op, corr, note in jobs] + skipped


class RootContinuation:
    """Newton continuation of a simple root as the coefficients vary.

    The root is continued from the known center along a straight
    coefficient homotopy with steps capped in the max norm, which keeps
    each Newton start inside the basin of the tracked root (the local
    germ of the multi-valued root function).
    """

    def __init__(self, center_coeffs: Mapping, x0: complex,
                 max_step: float = 0.05, min_derivative: float = 1e-8):
        self.center = {int(e if isinstance(e, int) else e[0]): complex(c)
                       for e, c in center_coeffs.items()}
        self.max_step = max_step
        self.min_derivative = min_derivative
        self.x0 = self._newton(self.center, complex(x0))

    @staticmethod
    def _eval(coeffs, x):
        p = 0j
        dp = 0j
        for e, c in coeffs.items():
            p += c * x ** e
            if e:
                dp += e * c * x ** (e - 1)
        return p, dp

    def _newton(self, coeffs, x):
        for _ in range(60):
            p, dp = self._eval(coeffs, x)
            if abs(dp) < self.min_derivative:
                raise ValueError(
                    f"root collision: |P'| = {abs(dp):.3e} below "
                    f"{self.min_derivative} near x = {x}"
                )
            step = p / dp
            x = x - step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                p, dp = self._eval(coeffs, x)
                x = x - p / dp
                return x
        raise ValueError(f"Newton did not converge near x = {x}")

    def root_at(self, coeffs: Mapping) -> complex:
        target = {int(e if isinstance(e, int) else e[0]): complex(c)
                  for e, c in coeffs.items()}
        keys = sorted(set(self.center) | set(target))
        deltas = {e: target.get(e, 0) - self.center.get(e, 0) for e in keys}
        spread = max(abs(d) for d in deltas.values()) if deltas else 0.0
        steps = max(1, math.ceil(spread / self.max_step))
        x = self.x0
        for s in range(1, steps + 1):
            frac = s / steps
            coeffs_s = {e: self.center.get(e, 0) + frac * deltas[e]
                        for e in keys}
            x = self._newton(coeffs_s, x)
        return x


def check_root_theorems(P0: SparsePolynomial, y0, gamma: Callable | None = None,
                        omega: int | None = None, span: float = 0.3,
                        x0_guess: complex | None = None, h: float = 1e-3,
                        tol: float = DEFAULT_RESIDUAL_TOL,
                        max_step: float = 0.05):
    """Constant-term mixed-derivative relations on functions of a root.

    Builds x(c) for the equation sum c_e t^e = 0 (the constant c_0
    absorbs -y0) by Newton continuation from the center, then checks
    D[c0]^(|w|-1) D[cw] = D[c1]^w on x(c), on gamma(x(c)) and on
    gamma(x(c)) / P'(x(c)).  A continuation sweep over ``span`` in the
    perturbed coefficient confirms the root returns to its germ.

    Returns (reports, continuation) so callers can reuse the root
    function.
    """
    if P0.dimension != 1:
        raise ValueError("root checks are one-variable")
    center_coeffs = {e[0]: c for e, c in P0.terms.items()}
    center_coeffs[0] = center_coeffs.get(0, 0) - complex(y0)
    degree = max(center_coeffs)
    if omega is None:
        omega = degree
    if omega < 2:
        raise ValueError("the mixed relation needs an exponent >= 2")
    if omega not in center_coeffs:
        center_coeffs.setdefault(omega, 0.0)

    if x0_guess is None:
        c1 = center_coeffs.get(1, 0)
        guess = -center_coeffs[0] / c1 if c1 else 0j
        roots = np.roots([center_coeffs.get(e, 0)
                          for e in range(degree, -1, -1)])
        x0_guess = complex(min(roots, key=lambda r: abs(r - guess)))
    cont = RootContinuation(center_coeffs, x0_guess, max_step=max_step)

    support = sorted(set(center_coeffs) | {0, 1, omega})
    exponents = ExponentSet(1, support)
    variables = tuple(CoeffVar(1, (e,)) for e in support)
    center = {CoeffVar(1, (e,)): complex(center_coeffs.get(e, 0))
              for e in support}

    def root_fn(assignment):
        return cont.root_at({var.exponent[0]: val
                             for var, val in assignment.items()})

    functions = [("x", CoeffFunction(variables, root_fn, name="root"))]
    if gamma is not None:
        functions.append((
            "gamma(x)",
            CoeffFunction(variables,
                          lambda a: gamma(root_fn(a)), name="gamma-of-root"),
        ))

        def gl_fn(assignment):
            x = root_fn(assignment)
            coeffs = {var.exponent[0]: val for var, val in assignment.items()}
            _, dp = RootContinuation._eval(coeffs, x)
            return gamma(x) / dp

        functions.append(("gamma(x)/P'(x)",
                          CoeffFunction(variables, gl_fn, name="root-quotient")))

    op = gg_relation_operator((omega,), exponents, block=1)
    reports = []
    for name, f in functions:
        reports.append(residual_report(
            op, f, center, h=h, tol=tol,
            label=f"mixed[{omega}] on {name}",
        ))

    # continuation sanity: sweep the perturbed coefficient out and back
    swept = dict(center_coeffs)
    swept[omega] = center_coeffs.get(omega, 0) + span
    x_out = cont.root_at(swept)
    x_back = cont.root_at(center_coeffs)
    drift = abs(x_back - cont.x0)
    reports.append(ResidualReport(
        label=f"continuation[c{omega} +/- {span}]",
        operator="newton-homotopy",
        center={str(CoeffVar(1, (e,))): complex(c)
                for e, c in center_coeffs.items()},
        step=max_step, residual=float(drift),
        relative=float(drift / max(1.0, abs(cont.x0))),
        tol=1e-10, passed=drift <= 1e-10 * max(1.0, abs(cont.x0)),
        note=f"root at swept point: {x_out}",
    ))
    return reports, cont


def check_jacobian_case(polys: Sequence, gamma: Callable | None = None,
                        h=None, tol: float = 1e-6):
    """Solution quantity gamma(x)/det(L) for an affine-linear square system
    L x + b = 0, with block-homogeneity checks at parameter -1.

    Returns (quantity, reports); scaling any single polynomial by s
    scales the quantity by 1/s, which is what the operators express.
    """
    polys = tuple(polys)
    n = polys[0].dimension
    if len(polys) != n:
        raise ValueError("need exactly n affine polynomials in n variables")
    units = unit_exponents(n)
    zero = tuple(0 for _ in range(n))
    for p in polys:
        for w in p.terms:
            if w != zero and w not in units:
                raise ValueError(f"{p!r} is not affine-linear")

    exponent_sets = tuple(ExponentSet(n, [zero] + units) for _ in range(n))
    variables = joined_vars(exponent_sets)

    def solve(assignment):
        L = np.array([[assignment[CoeffVar(i + 1, units[j])]
                       for j in range(n)] for i in range(n)], dtype=complex)
        b = np.array([assignment[CoeffVar(i + 1, zero)] for i in range(n)],
                     dtype=complex)
        det = np.linalg.det(L)
        if abs(det) < 1e-12:
            raise ValueError("singular linear part")
        x = np.linalg.solve(L, -b)
        g = gamma(tuple(x)) if gamma is not None else 1.0
        return g / det

    f = CoeffFunction(variables, solve, name="jacobian-quantity")
    center = {var: polys[var.block - 1].coefficient(var.exponent)
              for var in variables}
    quantity = f(center)

    reports = []
    for i in range(n):
        op = euler_y_operator(variables, i + 1, -1.0)
        reports.append(residual_report(
            op, f, center, h=h, tol=tol, label=f"euler_y[{i + 1}] (v=-1)"))
    return quantity, reports


@dataclass
class SeriesOracleReport:
    """Outcome of comparing a series against contour quadrature."""

    kappa: complex
    kappa_refit_delta: float
    comparisons: list = field(default_factory=list)  # (point, series, oracle, deviation)
    skipped: list = field(default_factory=list)      # (point, tail, reason)

    @property
    def max_deviation(self) -> float:
        return max((d for *_, d in self.comparisons), default=0.0)


def series_vs_oracle(series: GammaSeries, contour: ProductContour,
                     points: Sequence, u=None,
                     center: SparsePolynomial | None = None,
                     quad_tol: float = 1e-12,
                     tail_tol: float = 1e-8) -> SeriesOracleReport:
    """Fit the single contour constant at the first usable point, then
    report the deviation from quadrature at the remaining points.

    Points whose series tail estimate exceeds ``tail_tol`` (relative to
    the value), or whose series value or tail is not finite, are outside
    the expansion's usable region and are skipped with a notice rather
    than compared.
    """
    layout = series.layout
    n = layout.exponents.dimension
    alpha = AlphaOne() if u is None else AlphaMonomial(_as_u_vector(u, n))

    usable = []
    skipped = []
    for point in points:
        value, tail = evaluate_series(series, point)
        if not (cmath.isfinite(value) and math.isfinite(tail)):
            skipped.append((dict(point), float(tail),
                            "series value or tail estimate not finite"))
            continue
        if tail > tail_tol * max(1.0, abs(value)):
            skipped.append((dict(point), float(tail),
                            "tail estimate beyond the usable region"))
            continue
        terms = {}
        for key, val in point.items():
            var = as_coeff_var(key)
            terms[var.exponent] = terms.get(var.exponent, 0) + complex(val)
        P = SparsePolynomial(n, terms)
        if center is not None:
            P = P + center
        oracle_value, _ = integrate(IntegrandSpec(P, alpha), contour, quad_tol)
        usable.append((dict(point), value, oracle_value))

    if not usable:
        raise ValueError("no point passed the tail gate; nothing to compare")
    kappa = usable[0][2] / usable[0][1]
    refit = usable[1][2] / usable[1][1] if len(usable) > 1 else kappa
    comparisons = []
    for point, sv, ov in usable[1:]:
        deviation = abs(kappa * sv - ov) / max(abs(ov), 1e-300)
        comparisons.append((point, complex(sv), complex(ov), float(deviation)))
    return SeriesOracleReport(
        kappa=complex(kappa),
        kappa_refit_delta=float(abs(refit - kappa) / abs(kappa)),
        comparisons=comparisons,
        skipped=skipped,
    )
