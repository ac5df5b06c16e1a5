import cmath
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import pytest

from hypint.exact import ONE, ZERO, ExactComplex, solve_exact
from hypint.lattice import Base, ExponentSet, base_coords, kernel_basis
from hypint.polynomials import CoeffVar, SparsePolynomial
from hypint.operators import (DiffOperator, apply_to_series, box_operator,
                              euler_t_operator)
from hypint.series import (GammaSeries, GammaTerm, NumericTerm, OracleTerm,
                           SeriesLayout, SeriesPoleError, complex_gamma,
                           evaluate_series, expand_general, gg_series,
                           multi_indices, negated_power, reciprocal_gamma,
                           standard_expansion)

A12 = ExponentSet(1, [1, 2])
B1 = Base(A12, (0,))
B2 = Base(A12, (1,))


def ec(x):
    return ExactComplex.from_value(x)


class TestReciprocalGamma:
    # both half-planes out to |Im z| = 60, the real axis, points 1e-9
    # from the poles, where the reflection must reduce sin(pi z), and far
    # points whose values lie near the ends of the double range
    GRID = ([complex(-45.25 + 1.5 * k, im) for k in range(61)
             for im in (0, 0.5, -0.5, 2.5, -2.5, 9, -9, 25, -25, 60, -60)]
            + [complex(k / 8) for k in range(-400, 401) if k % 8]
            + [complex(-n + d) for n in range(11) for d in (1e-9, -1e-9)]
            + [171.5, 150.2 + 0.1j, -170.5 + 0.3j, -171.99999, 0.5 + 300j,
               -0.5 + 300j, 3 - 250j])

    def test_matches_mpmath(self):
        worst = 0.0
        with mpmath.workdps(30):
            for z in self.GRID:
                ref = mpmath.rgamma(mpmath.mpc(z))
                err = abs(mpmath.mpc(reciprocal_gamma(z)) - ref) / abs(ref)
                worst = max(worst, float(err))
        assert worst < 1e-12

    def test_exact_zero_at_poles(self):
        for n in range(11):
            value = reciprocal_gamma(-n)
            assert isinstance(value, complex) and value == 0

    def test_beyond_double_range(self):
        # underflow gives 0j and overflow an infinity, neither an exception
        assert reciprocal_gamma(200) == 0
        assert all(math.isinf(abs(reciprocal_gamma(z)))
                   for z in (-200.5, -180.5 + 0.3j, 0.5 + 500j))

    # far left of the origin 1/Gamma overflows and Gamma underflows
    FAR_LEFT = (-170.5, -171.5, -172.5, -175.5, -180.5, -200.5, -300.25,
                -171.99999)

    def test_real_argument_far_left_stays_real(self):
        with mpmath.workdps(30):
            for z in self.FAR_LEFT:
                value = reciprocal_gamma(z)
                ref = mpmath.rgamma(z)
                assert value.imag == 0
                if abs(ref) < 1e308:
                    assert abs(value.real - ref) <= 1e-12 * abs(ref)
                else:
                    assert value.real == math.copysign(math.inf, ref)

    def test_direct_gamma_underflows_to_a_signed_zero(self):
        with mpmath.workdps(30):
            for z in self.FAR_LEFT + (-190.5 + 0.5j, -200.25 - 3j, -250.5 + 2j):
                value = complex_gamma(z)
                ref = mpmath.gamma(z)
                assert abs(value - complex(ref)) <= 1e-12 * abs(ref) + 1e-300
                if value == 0:
                    assert math.copysign(1, value.real) == mpmath.sign(ref.real)
                    if ref.imag:
                        assert (math.copysign(1, value.imag)
                                == mpmath.sign(ref.imag))

    def test_direct_gamma_raises_at_pole(self):
        with pytest.raises(SeriesPoleError):
            complex_gamma(-3)
        assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14

    def test_direct_gamma_past_the_double_range(self):
        # reciprocal_gamma underflows to 0j there, which is not a pole
        assert complex_gamma(180.0) == complex(math.inf, 0)
        assert complex_gamma(172.0) == complex(math.inf, 0)
        assert math.isinf(abs(complex_gamma(200.0 + 3j)))
        with pytest.raises(SeriesPoleError):
            complex_gamma(-3)


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, hypint.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "[]"


GAUSSIAN_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "problems", "gaussian.json")
EXACT_ONLY = ("numpy", "hypint.quadrature", "hypint.verify")


@pytest.mark.parametrize("command, present, absent", [
    ("system", "hypint.operators", EXACT_ONLY),
    ("series", "hypint.series", EXACT_ONLY),
    ("eval", "hypint.quadrature",
     ("hypint.verify", "hypint.operators", "hypint.series")),
    ("verify", "hypint.verify", ()),
])
def test_each_command_imports_only_what_it_uses(command, present, absent):
    code = ("import contextlib, io, sys, hypint.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = hypint.cli.main([{command!r}, {GAUSSIAN_JSON!r}])\n"
            "print(rc, *sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, check=True).stdout.split()
    assert out[0] == "0"
    loaded = set(out[1:])
    assert present in loaded
    assert [m for m in absent if m in loaded] == []
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def _args_by_m(exponents, base, u, order):
    return {t.m: t.args for t in gg_series(exponents, base, u, order).terms}


def test_package_exports_resolve():
    import hypint
    assert [name for name in hypint.__all__ if not hasattr(hypint, name)] == []


def test_package_exports_are_lazy_and_listed():
    code = ("import sys, hypint\n"
            "before = sorted(m for m in sys.modules if m.startswith('hypint'))\n"
            "missing = [n for n in hypint.__all__ if n not in dir(hypint)]\n"
            "ns = {}\n"
            "exec('from hypint import *', ns)\n"
            "print(before, missing, sorted(set(hypint.__all__) - set(ns)))")
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "['hypint'] [] []"
    import hypint
    with pytest.raises(AttributeError):
        hypint.no_such_name
    # the submodules behind the names are reachable as attributes too
    assert hypint.series.gg_series is hypint.gg_series


@pytest.mark.parametrize("name", ["Segment", "Ray", "Arc", "Line",
                                  "ProductContour", "QuadratureError",
                                  "DivergenceError", "AccuracyError"])
def test_quadrature_reexports_the_contour_objects(name):
    import hypint
    import hypint.contours
    import hypint.quadrature
    assert getattr(hypint.quadrature, name) is getattr(hypint.contours, name)
    assert getattr(hypint, name) is getattr(hypint.contours, name)


@pytest.mark.parametrize("a, rho, want", [
    (-1e10, 200, complex(math.inf, 0)),     # integer power
    (1e10, 201, complex(-math.inf, 0)),     # odd power of a negative base
    (-1e-300, -25, complex(math.inf, 0)),   # inverse of an underflow
    (-1e10, 200.5, complex(math.inf, 0)),   # through the exponential
    (-1e10j, 201.5, complex(-math.inf, math.inf)),  # arg 201.5 pi/2: 3 pi/4
    (-1e10j, 99, complex(0, -math.inf)),    # i**99 = -i; products give nan
])
def test_negated_power_overflows_to_a_signed_infinity(a, rho, want):
    assert negated_power(a, rho) == want


INF_I, MINUS_INF_I, MINUS_INF = complex(0, math.inf), complex(0, -math.inf), \
    complex(-math.inf, 0)


@pytest.mark.parametrize("a, n, want", [
    # base i * 1e10: i**n is -i, i, -1, -i
    (-1e10j, 99, MINUS_INF_I), (-1e10j, 201, INF_I),
    (-1e10j, 202, MINUS_INF), (-1e10j, 203, MINUS_INF_I),
    # base -i * 1e10: (-i)**n is i, -i, -1, i
    (1e10j, 99, INF_I), (1e10j, 201, MINUS_INF_I),
    (1e10j, 202, MINUS_INF), (1e10j, 203, INF_I),
    # base i * 1e-10 under a negative power: (1/i)**201 = -i
    (-1e-10j, -201, MINUS_INF_I),
])
def test_negated_power_on_an_axis_keeps_a_zero_part(a, n, want):
    # a base on an axis stays on an axis under any integer power, also
    # above n = 100, where Python's complex ** int leaves a rounding-size
    # part that would overflow to a second infinity
    got = negated_power(a, n)
    assert got == want
    assert (got.real == 0, got.imag == 0) == (want.real == 0, want.imag == 0)


def test_negated_power_off_the_axes_past_one_hundred():
    # arg (1 + i) * 201 = 50 pi + pi / 4: both parts positive
    assert negated_power(-1e10 - 1e10j, 201) == complex(math.inf, math.inf)


def test_negated_power_in_range_is_unchanged():
    assert negated_power(-3.0, 5) == (3.0 + 0j) ** 5
    assert negated_power(2 - 1j, -7) == (-2 + 1j) ** -7
    assert negated_power(-1e10, 30) == (1e10 + 0j) ** 30
    assert negated_power(-2 + 1j, 0.3 - 2j) == \
        cmath.exp((0.3 - 2j) * cmath.log(2 - 1j))


class TestGammaCoefficient:
    def test_linear_base_arguments(self):
        args = _args_by_m(A12, B1, 1, 3)
        assert args == {(m,): (ec(1 + 2 * m),) for m in range(4)}

    def test_quadratic_base_arguments(self):
        args = _args_by_m(A12, B2, 1, 1)
        assert args == {(0,): (ec(Fraction(1, 2)),), (1,): (ec(1),)}

    def test_pole_is_flagged(self):
        (term,) = gg_series(A12, B1, 0, 0).terms
        assert term.is_pole()

    def test_affine_shift_law(self):
        # s(m + e_w) - s(m) equals the base coordinates of w, exactly
        A = ExponentSet(2, [(1, 0), (1, 2), (2, 1), (0, 3)])
        for base in [Base(A, (0, 1)), Base(A, (1, 2))]:
            layout = SeriesLayout(A, base)
            width = len(layout.series_vars)
            u = (Fraction(1, 3), Fraction(5, 7))
            args = _args_by_m(A, base, u, 2)
            for k, var in enumerate(layout.series_vars):
                l = layout.coords(var)
                m = tuple(1 if i == 0 else 0 for i in range(width))
                bumped = tuple(m[i] + (1 if i == k else 0) for i in range(width))
                s_m, s_b = args[m], args[bumped]
                for j in range(2):
                    assert (s_b[j] - s_m[j]) == ec(l[j])


def _per_term_args(m, u, layout):
    """s0 + sum_w m_w l_w in Fraction arithmetic: one solve for s0 and one
    per series exponent for its base coordinates l_w, for every term."""
    n = layout.exponents.dimension
    vectors = layout.base.vectors
    rows = [[ec(vectors[j][i]) for j in range(n)] for i in range(n)]
    s = solve_exact(rows, [ec(x) for x in u])
    for mw, var in zip(m, layout.series_vars):
        for j, l in enumerate(base_coords(layout.base, var.exponent)):
            s[j] = s[j] + ec(l) * mw
    return tuple(s)


# 2-D sets with a base of each determinant 1 to 4
SETS_2D = [
    ([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], (0, 1)),  # (1,0) (0,1)
    ([(1, 0), (1, 1), (0, 2), (2, 1), (2, 2)], (1, 2)),  # (1,1) (0,2)
    ([(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)], (2, 3)),  # (2,1) (1,2)
    ([(1, 0), (0, 1), (2, 0), (0, 2), (1, 2)], (2, 3)),  # (2,0) (0,2)
]

# a 3-D set with base (0,1,0) (0,0,1) (2,0,0) of determinant 2
SET_3D = ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 1), (0, 2, 1)],
          (1, 2, 3))


@pytest.mark.parametrize("form", ["direct", "reciprocal"])
@pytest.mark.parametrize("members, base", SETS_2D)
def test_gg_series_equals_per_term_coefficients(members, base, form):
    A = ExponentSet(2, members)
    u = (complex(0.37, 0.21), Fraction(5, 3))
    series = gg_series(A, Base(A, base), u, 6, form=form)
    layout = series.layout
    assert [t.m for t in series.terms] == list(multi_indices(3, 6))
    s0 = _per_term_args((0, 0, 0), u, layout)
    for t in series.terms:
        assert t.args == _per_term_args(t.m, u, layout)
        weight = Fraction(1, math.prod(math.factorial(k) for k in t.m))
        if form == "reciprocal":
            # the reflection sign (-1)**k_j of each integer part k_j of
            # s_j(m) - s0_j
            flips = sum(math.floor((s - s_0).re)
                        for s, s_0 in zip(t.args, s0))
            weight *= (-1) ** flips
        assert t.scalar == ec(weight)
        assert all(type(x) is Fraction for a in (t.scalar, *t.args)
                   for x in (a.re, a.im))


def _general_product(x, y):
    y = ExactComplex.from_value(y)
    return ExactComplex(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


@pytest.mark.parametrize("factor", [3, -1, 0, True, Fraction(-2, 7), 0.5,
                                    ec(Fraction(5, 3)), complex(2, 0),
                                    ec(complex(0.25, -1.5)), complex(2, 1)])
def test_exact_product_fast_paths_match_general_formula(factor):
    x = ExactComplex(Fraction(3, 4), Fraction(-5, 6))
    product = x * factor
    assert product == _general_product(x, factor) == factor * x
    assert type(product.re) is Fraction and type(product.im) is Fraction


def test_exact_hash_agrees_with_equality():
    pairs = [(ExactComplex(1, 0), ONE), (ExactComplex(0, 0), ZERO),
             (ExactComplex(Fraction(1, 2), 0), ec(0.5)),
             (ExactComplex(-3, 2), ec(complex(-3, 2))),
             (ExactComplex(Fraction(4, 6), Fraction(-2)),
              ExactComplex(Fraction(2, 3), -2))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({a for pair in pairs for a in pair}) == len(pairs)


def _assert_integer_form_is_terms(series):
    """integer_form() is the same on each call and each row equals its
    term exactly."""
    W, S, rows = series.integer_form()
    assert series.integer_form() == (W, S, rows)
    assert [row[0] for row in rows] == list(series.terms)
    for term, (p, q), A_, B_ in rows:
        assert term.scalar == ExactComplex(Fraction(p, S), Fraction(q, S))
        assert term.args == tuple(ExactComplex(Fraction(a, W), Fraction(b, W))
                                  for a, b in zip(A_, B_))


def _assert_lattice_form_is_terms(series):
    """lattice_form() is cached and each row equals its term exactly."""
    lattice = series.lattice_form()
    assert series.lattice_form() is lattice
    rows = zip(lattice.coset.tolist(), lattice.m.tolist(),
               lattice.offsets.tolist(), lattice.re.tolist(),
               lattice.im.tolist())
    assert len(lattice.coset) == len(series.terms)
    for term, (c, m, offsets, p, q) in zip(series.terms, rows):
        assert term.m == tuple(m)
        assert term.scalar == ExactComplex(Fraction(p, lattice.S),
                                           Fraction(q, lattice.S))
        assert term.args == tuple(z + Fraction(k, lattice.D) for z, k in
                                  zip(lattice.anchors[c], offsets))
        assert term.args == tuple(lattice.arguments[c, j, k]
                                  for j, k in enumerate(offsets))


def test_integer_form_reproduces_terms():
    # derived for gg_series in both forms, and for the lattice form of a
    # sum of two series
    for members, base in SETS_2D + [SET_3D]:
        A = ExponentSet(len(members[0]), members)
        u = (0.5 + 0.25j, 1.5, Fraction(2, 3))[:A.dimension]
        for form in ("direct", "reciprocal"):
            series = gg_series(A, Base(A, base), u, 5, form=form)
            _assert_integer_form_is_terms(series)
            _assert_lattice_form_is_terms(series)
            _assert_lattice_form_is_terms(
                series + gg_series(A, Base(A, base), u[::-1], 5, form=form))
    # the lattice form written by apply_to_series: a box operator, an
    # Euler operator with complex u, a mixed operator with complex
    # scalars and base monomials, and that operator applied again to its
    # own output
    A = ExponentSet(2, [(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
    c10, c01, c21, c12, c22 = (CoeffVar(0, w) for w in A.members)
    mixed = DiffOperator([
        (((c21, 2), (c10, 1)), ((c21, 1), (c10, 3)), 0.25 - 1.5j),
        (((c12, 1),), ((c12, 2), (c22, 1)), Fraction(-7, 3)),
        ((), ((c01, 2),), 1), (((c22, 1),), (), -1)])
    for form in ("direct", "reciprocal"):
        series = gg_series(A, Base(A, (2, 3)), (0.37 + 0.21j, Fraction(5, 3)),
                           6, form=form)
        for op in (box_operator(kernel_basis(A)[0]),
                   euler_t_operator(A, 1, 0.5 + 0.3j), mixed):
            out = apply_to_series(op, series)
            assert out.terms
            _assert_integer_form_is_terms(out)
            _assert_lattice_form_is_terms(out)
        _assert_integer_form_is_terms(apply_to_series(mixed, out))
        _assert_lattice_form_is_terms(apply_to_series(mixed, out))


def _term_by_term(series, point):
    """(value, tail, sum of |term|) from one term at a time in complex
    arithmetic: complex(scalar) * prod Gamma(s) (-a)**(-s) (1/Gamma(1 - s)
    in reciprocal form) * prod a_w**m_w."""
    layout = series.layout
    total = last = 0j
    scale = 0.0
    for t in series.terms:
        value = complex(t.scalar)
        for arg, var in zip(t.args, layout.base_vars):
            s = complex(arg)
            gamma = (complex_gamma(s) if series.form == "direct"
                     else reciprocal_gamma(1 - s))
            value *= gamma * negated_power(point[var], -s)
        for mw, var in zip(t.m, layout.series_vars):
            value *= point[var] ** mw
        total += value
        scale += abs(value)
        if sum(t.m) == series.truncation_order:
            last += value
    return total, abs(last), scale


def _points(layout, count=3):
    """Points with base values near -1 and small series values."""
    points = []
    for k in range(count):
        point = {var: complex(-0.8 - 0.15 * (j + k), 0.1 * (k - j))
                 for j, var in enumerate(layout.base_vars)}
        point.update({var: complex(0.04 * (k + 1) - 0.03 * i, 0.05 - 0.02 * k)
                      for i, var in enumerate(layout.series_vars)})
        points.append(point)
    return points


def _assert_matches_term_by_term(series):
    assert series.terms
    for point in _points(series.layout):
        value, tail = evaluate_series(series, point)
        ref, ref_tail, scale = _term_by_term(series, point)
        assert abs(value - ref) <= 1e-14 * scale
        assert abs(tail - ref_tail) <= 1e-14 * scale


class TestCompiledEvaluation:
    @pytest.mark.parametrize("form", ["direct", "reciprocal"])
    @pytest.mark.parametrize("members, base", SETS_2D[:3] + [SET_3D])
    def test_gg_series_matches_term_by_term(self, members, base, form):
        A = ExponentSet(len(members[0]), members)
        u = (0.37 + 0.21j, Fraction(6, 5), 0.8 + 0.1j)[:A.dimension]
        _assert_matches_term_by_term(gg_series(A, Base(A, base), u, 8,
                                               form=form))

    @pytest.mark.parametrize("form", ["direct", "reciprocal"])
    def test_applied_series_match_term_by_term(self, form):
        # an Euler operator whose complex u differs from the series' u
        # leaves complex scalars; a base derivative and a box operator
        # shift the arguments
        members, base = SETS_2D[1]
        A = ExponentSet(2, members)
        u = (0.37 + 0.21j, 1.2 - 0.4j)
        series = gg_series(A, Base(A, base), u, 8, form=form)
        ops = [euler_t_operator(A, 1, 0.5 + 0.3j),
               euler_t_operator(A, 2, -0.25j),
               DiffOperator([((), ((series.layout.base_vars[0], 1),), 1)]),
               box_operator(kernel_basis(A)[0])]
        outputs = [apply_to_series(op, series) for op in ops]
        assert any(t.scalar.im for t in outputs[0].terms)
        shifted = outputs[2].terms[0].args[0] - series.terms[0].args[0]
        assert shifted == ONE
        for out in outputs:
            _assert_matches_term_by_term(out)

    def test_numeric_form_is_computed_once(self):
        A = ExponentSet(2, SETS_2D[2][0])
        series = gg_series(A, Base(A, SETS_2D[2][1]), (0.5 + 0.25j, 1.5), 4)
        form = series.numeric_form()
        assert series.numeric_form() is form
        evaluate_series(series, _points(series.layout)[0])
        assert series.numeric_form() is form
        for j, table in enumerate(form.tables):
            assert len(set(table.args)) == len(table.args)
            assert [table.args[k] for k in table.index] == \
                [complex(t.args[j]) for t in series.terms]
        assert form.scalars.tolist() == [complex(t.scalar) for t in series.terms]
        assert form.exponents.tolist() == [list(t.m) for t in series.terms]
        assert form.first_pole is None

    def test_first_pole_from_integers(self):
        # s(m) = 2m - 4 in direct form: m = 0 is the first pole term
        assert gg_series(A12, B1, -4, 3).numeric_form().first_pole == 0
        # s(m) = (m - 3) / 2: the first pole is s(1) = -1
        assert gg_series(A12, B2, -3, 3).numeric_form().first_pole == 1
        # s(m) = 2m - 7/2 never lands on a pole
        assert gg_series(A12, B1, Fraction(-7, 2), 3) \
            .numeric_form().first_pole is None
        layout = SeriesLayout(A12, B1)
        series = GammaSeries(layout, 2, [
            GammaTerm((0,), ONE, (ec(-0.5),)),
            GammaTerm((1,), ONE, (ExactComplex(Fraction(-2), Fraction(1, 10**30)),)),
            GammaTerm((2,), ONE, (ec(-2),))])
        assert series.numeric_form().first_pole == 2
        assert gg_series(A12, B1, -4, 3, form="reciprocal") \
            .numeric_form().first_pole is None

    def test_value_error_term_before_pole_term(self):
        # m = 0 meets a1 = 0 under the exponent -1 before m = 1's pole
        layout = SeriesLayout(A12, B1)
        series = GammaSeries(layout, 1, [GammaTerm((0,), ONE, (ONE,)),
                                         GammaTerm((1,), ONE, (ec(-1),))])
        with pytest.raises(ValueError) as info:
            evaluate_series(series, {1: 0.0, 2: 0.5})
        assert not isinstance(info.value, SeriesPoleError)
        assert "nonpositive real part" in str(info.value)

    def test_pole_term_before_value_error_term(self):
        layout = SeriesLayout(A12, B1)
        series = GammaSeries(layout, 1, [GammaTerm((0,), ONE, (ec(-1),)),
                                         GammaTerm((1,), ONE, (ONE,))])
        with pytest.raises(SeriesPoleError, match=r"term m=\(0,\) has a Gamma pole"):
            evaluate_series(series, {1: 0.0, 2: 0.5})

    def test_reciprocal_zero_factor_hides_later_factors(self):
        # 1/Gamma(1 - 1) = 0 makes the term 0 though a2 = 0 under the
        # exponent -1/2 would raise; in the other order the raising
        # factor comes first
        A = ExponentSet(2, SETS_2D[0][0])
        layout = SeriesLayout(A, Base(A, SETS_2D[0][1]))
        width = len(layout.series_vars)
        point = {var: 0.0 for var in layout.all_vars}

        def single(args):
            return GammaSeries(layout, 0, [GammaTerm((0,) * width, ONE, args)],
                               form="reciprocal")

        assert evaluate_series(single((ONE, ec(0.5))), point) == (0j, 0.0)
        # nor does a later infinite factor: 1/Gamma(1 - 403/2) overflows,
        # with no floating-point warning
        far = {var: -1.0 for var in layout.all_vars}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_series(single((ONE, ec(Fraction(403, 2)))),
                                   far) == (0j, 0.0)
        with pytest.raises(ValueError):
            evaluate_series(single((ec(0.5), ONE)), point)
        # a zero base value: every s(m) = 1 + 2m has 1/Gamma(1 - s) = 0
        series = gg_series(A12, B1, 1, 3, form="reciprocal")
        assert evaluate_series(series, {1: 0.0, 2: 0.5}) == (0j, 0.0)

    def test_overflow_is_silent(self):
        # Gamma(343/2) is near the top of the double range: two such terms
        # sum to inf, as complex arithmetic gives it, with no warning
        layout = SeriesLayout(A12, B1)
        big = (ec(Fraction(343, 2)),)
        series = GammaSeries(layout, 1, [GammaTerm((0,), ONE, big),
                                         GammaTerm((1,), ONE, big)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, tail = evaluate_series(series, {1: -1.0, 2: 1.0})
        assert value == complex(math.inf, 0)
        assert tail == abs(complex_gamma(171.5))

    def test_series_variable_power_overflows_silently(self):
        # c2**30 = 1e600 leaves the double range in the last order
        series = gg_series(A12, B1, 0.5, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, tail = evaluate_series(series, {1: -1, 2: 1e20})
        assert not cmath.isfinite(value)
        assert tail == math.inf

    @pytest.mark.parametrize("u", [0.5, 1])
    def test_base_power_overflows_silently(self, u):
        # (-a)**(-s) = 1e300**(u + 2m) leaves the double range: through
        # the exponential for u = 1/2, through an integer power for u = 1
        series = gg_series(A12, B1, u, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, tail = evaluate_series(series, {1: -1e-300, 2: 1.0})
        assert not cmath.isfinite(value)
        assert not math.isfinite(tail)

    def test_oracle_and_numeric_terms_keep_the_loop(self):
        layout = SeriesLayout(A12, B1)
        oracle = GammaSeries(layout, 2, [
            OracleTerm((m,), Fraction(1, math.factorial(m)),
                       lambda a, m=m: a[layout.base_vars[0]] * (m + 1))
            for m in range(3)])
        numeric = GammaSeries(layout, 2, [
            NumericTerm((m,), Fraction(1, math.factorial(m)), 1.5j - m)
            for m in range(3)])
        a1, a2 = -1.5 + 0.5j, 0.25 - 0.1j
        assert evaluate_series(oracle, {1: a1, 2: a2}) == (
            sum(a1 * (m + 1) * a2 ** m / math.factorial(m) for m in range(3)),
            abs(a1 * 3 * a2 ** 2 / 2))
        assert evaluate_series(numeric, {1: a1, 2: a2}) == pytest.approx(
            (sum((1.5j - m) * a2 ** m / math.factorial(m) for m in range(3)),
             abs((1.5j - 2) * a2 ** 2 / 2)), rel=1e-15)
        # a closed-form term in such a series is evaluated on its own
        closed = gg_series(A12, B1, 1, 2)
        point = {1: a1, 2: a2}
        assert evaluate_series(oracle + closed, point)[0] == pytest.approx(
            evaluate_series(oracle, point)[0]
            + evaluate_series(closed, point)[0], rel=1e-14)


class TestExpandGeneral:
    def test_order_zero_single_term(self):
        series = gg_series(A12, B1, 1, 0)
        assert len(series.terms) == 1
        assert series.terms[0].m == (0,)

    def test_factorial_weights(self):
        series = gg_series(A12, B1, 1, 2)
        scalars = {t.m: t.scalar for t in series.terms}
        assert scalars[(0,)] == ec(1)
        assert scalars[(1,)] == ec(1)
        assert scalars[(2,)] == ec(Fraction(1, 2))

    def test_callable_oracle_terms(self):
        series = expand_general(A12, B1, lambda m: (lambda a: 10.0 + m[0]), 2)
        assert [(t.m, t.weight) for t in series.terms] == \
            [((0,), 1), ((1,), 1), ((2,), Fraction(1, 2))]
        assert all(isinstance(t, OracleTerm) for t in series.terms)
        assert not series.is_closed_form()
        value, tail = evaluate_series(series, {1: -1.0, 2: 0.5})
        # sum_m (10 + m) 0.5^m / m!
        expected = sum((10 + m) * 0.5 ** m / math.factorial(m) for m in range(3))
        assert value == pytest.approx(expected)

    def test_quadratic_base_slope(self):
        series = gg_series(A12, B2, 1, 1)
        by_m = {t.m: t for t in series.terms}
        assert by_m[(1,)].args == (ec(1),)  # 1/2 + 1/2


class TestEvaluate:
    def test_empty_series(self):
        layout = SeriesLayout(A12, B1)
        value, tail = evaluate_series(GammaSeries(layout, 3, []), {1: -1, 2: 0})
        assert value == 0 and tail == 0

    def test_single_power_term(self):
        layout = SeriesLayout(A12, B1)
        term = GammaTerm((0,), ec(1), (ec(1),))
        series = GammaSeries(layout, 0, [term])
        value, _ = evaluate_series(series, {1: -1.0, 2: 0.0})
        # Gamma(1) * (-a1)^(-1) = 1 at a1 = -1
        assert value == pytest.approx(1.0)

    def test_quadratic_base_value(self):
        series = gg_series(A12, B2, 1, 0)
        value, _ = evaluate_series(series, {1: 0.0, 2: -1.0})
        assert value == pytest.approx(math.sqrt(math.pi))

    def test_zero_base_value_with_negative_exponent(self):
        series = gg_series(A12, B1, 1, 0)
        with pytest.raises(ValueError):
            evaluate_series(series, {1: 0.0, 2: 0.0})

    def test_pole_raises(self):
        series = gg_series(A12, B1, 0, 1)
        with pytest.raises(SeriesPoleError):
            evaluate_series(series, {1: -1.0, 2: 0.1})

    def test_reciprocal_form_is_proportional(self):
        # with an integer slope the reciprocal form differs by a constant
        # and an alternating sign absorbed into the series variable
        direct = gg_series(A12, B1, 1, 5)
        recip = gg_series(A12, B1, 1, 5, form="reciprocal")
        vd, _ = evaluate_series(direct, {1: -1.0, 2: -0.01})
        vr, _ = evaluate_series(recip, {1: -1.0, 2: 0.01})
        # Gamma(1 + 2m) = pi / (sin(pi(1+2m)) Gamma(-2m)) has zero sine;
        # the reciprocal normal form instead pairs with 1/Gamma(-2m) = 0,
        # so every positive-integer argument term vanishes
        assert vr == 0

    def test_arguments_past_the_gamma_range_are_not_poles(self):
        # s(m) = 150.5 + 2m passes 171.6, where Gamma overflows: the value
        # is not finite, and no term is reported as a pole
        series = gg_series(A12, B1, 150.5, 20)
        value, _ = evaluate_series(series, {1: -1, 2: -0.001})
        assert not math.isfinite(abs(value))

    def test_arguments_where_gamma_underflows_give_zero_terms(self):
        # s(m) = -180.5 + 2m: Gamma(s) is below the double range for
        # m <= 1 and subnormal from m = 2 on, and at a = -1 each
        # (-a)**(-s) is 1; only the subnormal terms m = 3, 4 survive
        series = gg_series(A12, B1, -180.5, 4)
        point = {1: -1.0, 2: 0.01}
        value, tail = evaluate_series(series, point)
        with mpmath.workdps(30):
            ref = sum(mpmath.mpf(t.scalar.re.numerator) / t.scalar.re.denominator
                      * mpmath.gamma(complex(t.args[0]))
                      * mpmath.mpf(0.01) ** t.m[0] for t in series.terms)
        assert abs(ref) < 1e-300
        assert abs(value - complex(ref)) < 3 * 5e-324  # subnormal spacing
        assert tail != 0

    @pytest.mark.parametrize("form", ["direct", "reciprocal"])
    @pytest.mark.parametrize("u, a", [
        (-180.5, -2.0), (180.5, -200.0), (-181.3 + 7j, -2.0),
        (-180.3 - 8j, -2.0)])
    def test_gamma_out_of_range_is_recombined_with_the_power(self, form, u, a):
        # Gamma(-180.5) underflows, 1/Gamma(181.5) too, and Gamma(180.5)
        # overflows, while (-a)**(-u) brings the product back in range.
        # The complex u lie far enough off the real axis that the log of
        # sin(pi u) in the reflection formula is taken from its leading
        # exponential, once with the odd sign of n = -181
        series = gg_series(A12, B1, u, 0, form=form)
        value, _ = evaluate_series(series, {1: a, 2: 0.01})
        g = mpmath.gamma(u) if form == "direct" else 1 / mpmath.gamma(1 - u)
        ref = complex(g * mpmath.mpf(-a) ** -u)
        assert ref != 0 and math.isfinite(abs(ref))
        assert abs(value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("members, base", SETS_2D[1:] + [SET_3D])
    def test_reciprocal_form_is_direct_form_per_coset(self, members, base):
        # 1/Gamma(1 - s) = Gamma(s) sin(pi s) / pi and the reflection sign
        # leave sin(pi (s0_j + frac_j)) / pi per Gamma factor: one constant
        # on each coset of argument fractional parts.  The imaginary parts
        # of u keep every argument off the integers (non-resonant u).
        A = ExponentSet(len(members[0]), members)
        u = (0.37 + 0.21j, 1.2 - 0.4j, 0.8 + 0.1j)[:A.dimension]
        direct = gg_series(A, Base(A, base), u, 8)
        recip = gg_series(A, Base(A, base), u, 8, form="reciprocal")
        s0 = direct.terms[0].args
        cosets = {}
        for t in direct.terms:
            frac = tuple((s - s_0).re % 1 for s, s_0 in zip(t.args, s0))
            cosets.setdefault(frac, []).append(t)
        assert len(cosets) > 1
        for point in _points(direct.layout):
            ref = 0j
            for frac, terms in cosets.items():
                part = GammaSeries(direct.layout, 8, terms)
                ref += math.prod(
                    cmath.sin(math.pi * (complex(s_0) + float(f))) / math.pi
                    for s_0, f in zip(s0, frac)) \
                    * evaluate_series(part, point)[0]
            value, _ = evaluate_series(recip, point)
            assert abs(value - ref) <= 1e-12 * _term_by_term(recip, point)[2]

    def test_reciprocal_form_finite_at_direct_pole(self):
        series = gg_series(A12, B1, 0, 1, form="reciprocal")
        value, _ = evaluate_series(series, {1: -1.0, 2: 0.1})
        # 1/Gamma(1 - 0) = 1 and 1/Gamma(1 - 2) = 0
        assert value == pytest.approx(1.0)

    def test_missing_assignment_rejected(self):
        series = gg_series(A12, B1, 1, 1)
        with pytest.raises(ValueError):
            evaluate_series(series, {1: -1.0})

    def test_tail_is_last_order_magnitude(self):
        series = gg_series(A12, B1, 1, 3)
        a = {1: -1.0, 2: -0.01}
        _, tail = evaluate_series(series, a)
        last = [t for t in series.terms if sum(t.m) == 3]
        expected = abs(complex(last[0].scalar) * math.gamma(7)
                       * (1.0) ** (-7) * (-0.01) ** 3)
        assert tail == pytest.approx(expected)

    def test_linearity_in_terms(self):
        s = gg_series(A12, B1, 1, 4)
        a = {1: -1.2, 2: -0.02}
        full, _ = evaluate_series(s, a)
        layout = s.layout
        parts = 0j
        for t in s.terms:
            single = GammaSeries(layout, 4, [t])
            v, _ = evaluate_series(single, a)
            parts += v
        assert parts == pytest.approx(full)


class TestStandardExpansion:
    @staticmethod
    def gaussian_moments(exponents):
        """Moments of exp(-t^2) on the real line for series variables in
        the given set: the oracle maps the multi-index to the integral of
        t**(sum m_w * w)."""
        members = exponents.members

        def oracle(m):
            k = sum(mw * w[0] for mw, w in zip(m, members))
            if k % 2:
                return 0.0
            return math.gamma((k + 1) / 2)

        return oracle

    def test_order_zero(self):
        P0 = SparsePolynomial(1, {(2,): -1})
        A = ExponentSet(1, [1])
        series = standard_expansion(P0, A, self.gaussian_moments(A), 0)
        value, _ = evaluate_series(series, {1: 0.7})
        assert value == pytest.approx(math.sqrt(math.pi))

    def test_partial_sums_reach_closed_form(self):
        P0 = SparsePolynomial(1, {(2,): -1})
        A = ExponentSet(1, [1])
        series = standard_expansion(P0, A, self.gaussian_moments(A), 20)
        for a in (0.0, 0.3, 0.5):
            value, _ = evaluate_series(series, {1: a})
            expected = math.sqrt(math.pi) * math.exp(a * a / 4)
            assert abs(value - expected) / expected < 1e-8

    def test_quadratic_shift_direction(self):
        # perturbing the quadratic coefficient itself: I(-(1 - a2) t^2)
        P0 = SparsePolynomial(1, {(2,): -1})
        A = ExponentSet(1, [2])
        series = standard_expansion(P0, A, self.gaussian_moments(A), 16)
        a2 = 0.2
        value, _ = evaluate_series(series, {2: a2})
        expected = math.sqrt(math.pi / (1 - a2))
        assert abs(value - expected) / expected < 1e-8

    def test_moment_failure_carries_index(self):
        def broken(m):
            if m[0] == 2:
                raise RuntimeError("boom")
            return 1.0
        with pytest.raises(RuntimeError, match=r"m=\(2,\)"):
            standard_expansion(SparsePolynomial(1, {(2,): -1}),
                               ExponentSet(1, [1]), broken, 3)


def test_series_rejects_terms_beyond_order():
    layout = SeriesLayout(A12, B1)
    term = GammaTerm((5,), ec(1), (ec(1),))
    with pytest.raises(ValueError):
        GammaSeries(layout, 2, [term])


def test_layout_roles():
    layout = SeriesLayout(A12, B1)
    assert layout.role(CoeffVar(0, (1,))) == "base"
    assert layout.role(CoeffVar(0, (2,))) == "series"
    with pytest.raises(KeyError):
        layout.role(CoeffVar(0, (3,)))
