import cmath
import math
import platform
import subprocess
import sys
import time

import pytest

from hypint.polynomials import SparsePolynomial
from hypint.quadrature import (AccuracyError, AlphaMonomial, AlphaOne,
                               AlphaPowerProduct, Arc, DivergenceError,
                               IntegrandSpec, Line, ProductContour, Ray,
                               Segment,
                               adaptive_quadrature, euler_integral_eval,
                               gg_eval, integrate, proper_integral)

REAL_LINE = ProductContour([[Line(0.0)]])
POSITIVE_RAY = ProductContour([[Ray(0, 0.0)]], {("t", 1): 0.0})
UNIT_SEGMENT = ProductContour([[Segment(0, 1)]])

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestAdaptiveRule:
    def test_polynomial_is_exact(self):
        value, err, _ = adaptive_quadrature(lambda x: x ** 5 - x, 0.0, 2.0,
                                            1e-13, 1e-15)
        assert value == pytest.approx(2 ** 6 / 6 - 2, abs=1e-13)

    def test_batch_matches_separate_runs(self):
        # integrals run in lockstep take the bisections each takes alone
        import numpy as np
        scales = np.array([0.5, 3.0, 40.0])
        seen = np.zeros(3, dtype=int)

        def f(x):
            np.add.at(seen, x["node"], 1)
            return np.exp(-scales[x["node"]] * x["tau"]) * np.sqrt(x["tau"])

        values, errs, _ = adaptive_quadrature(f, np.zeros(3), np.ones(3),
                                              1e-12, 1e-15)
        for k, s in enumerate(scales):
            points = []

            def g(t):
                points.append(t.size)
                return np.exp(-s * t) * np.sqrt(t)

            value, err, _ = adaptive_quadrature(g, 0.0, 1.0, 1e-12, 1e-15)
            assert seen[k] == sum(points)
            assert values[k] == pytest.approx(value, rel=1e-14)
            assert errs[k] == pytest.approx(err, rel=1e-6)
        assert len(set(seen)) == 3

    def test_budget_exhaustion_reports_best(self):
        # a kink the estimator keeps refining at an absurd tolerance
        import numpy as np
        with pytest.raises(AccuracyError) as info:
            adaptive_quadrature(lambda x: np.abs(x - 1 / 3) ** 0.1,
                                0.0, 1.0, 1e-16, 0.0, max_intervals=32)
        assert abs(info.value.value) > 0
        assert info.value.err_estimate > 0

    def test_bulk_round_bisects_every_interval_it_needs(self):
        # the eight starting panels all miss 1e-12 on cos(40 x); one round
        # bisects them together and meets it
        import numpy as np
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(40.0 * x)

        value, err, _ = adaptive_quadrature(f, 0.0, 1.0, 1e-12, 1e-15)
        assert len(sizes) == 2
        assert sizes[1] // 30 > 1  # two panels of 15 points per bisection
        assert abs(value - math.sin(40.0) / 40.0) < 1e-15
        assert err <= 1e-12 * abs(value)

    def test_a_round_stays_within_the_interval_budget(self):
        # every starting panel of cos(200 x) misses the tolerance, but a
        # budget of 12 intervals leaves room for four bisections
        import numpy as np
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.cos(200.0 * x)

        with pytest.raises(AccuracyError, match="after 12 intervals"):
            adaptive_quadrature(f, 0.0, 1.0, 1e-12, 1e-15, max_intervals=12)
        assert sizes == [8 * 15, 4 * 30]

    # a jump at 100 + 1/sqrt(2): the interval holding it shrinks below
    # 1e-15 of its position while its error still exceeds the target
    JUMP = 100.0 + 1.0 / math.sqrt(2.0)

    # integral of |x - 1/3|^0.1 over [0, 1], which is not smooth at 1/3
    KINK = ((1 / 3) ** 1.1 + (2 / 3) ** 1.1) / 1.1

    @pytest.mark.parametrize("budget, levels, close", [(4096, 15, 1e-6),
                                                       (64, 9, 1e-3)])
    def test_trapezoid_level_cap_reports_best(self, budget, levels, close):
        # the trapezoid budget is the largest 2**k intervals whose points
        # do not outnumber those of the GK15 budget: 2**k + 1 <= 15 budget
        import numpy as np
        with pytest.raises(AccuracyError,
                           match=f"after {2 ** levels} trapezoid") as info:
            adaptive_quadrature(lambda x: np.abs(x - 1 / 3) ** 0.1,
                                0.0, 1.0, 1e-13, 1e-15, max_intervals=budget,
                                trapezoid=0)
        assert abs(info.value.value - self.KINK) < close
        assert 0 < info.value.err_estimate < close

    def test_trapezoid_minimum_intervals(self):
        # the sums of exp(-200 (x - 1/2)^2) agree long before 2**9
        import numpy as np
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-200 * (x - 0.5) ** 2)

        adaptive_quadrature(f, 0.0, 1.0, 1e-10, 1e-15, trapezoid=0)
        natural = sum(sizes) - 1
        sizes.clear()
        value, _, _ = adaptive_quadrature(f, 0.0, 1.0, 1e-10, 1e-15,
                                          trapezoid=300)
        assert natural < 300 and sum(sizes) - 1 == 512
        assert abs(value - math.sqrt(math.pi / 200)) < 1e-13

    def test_integrals_past_the_trapezoid_budget_take_gk15(self):
        # in one batch, each integral takes the rule it takes alone
        import numpy as np
        scales = np.array([200.0, 3.0, 40.0])
        needs = np.array([0.0, np.inf, 1e9])

        def f(x):
            return np.exp(-scales[x["node"]] * (x["tau"] - 0.5) ** 2)

        values, errs, floors = adaptive_quadrature(
            f, np.zeros(3), np.ones(3), 1e-12, 1e-15, trapezoid=needs)
        for k in range(3):
            alone = adaptive_quadrature(
                lambda t: np.exp(-scales[k] * (t - 0.5) ** 2), 0.0, 1.0,
                1e-12, 1e-15, trapezoid=0 if k == 0 else None)
            assert (values[k], errs[k], floors[k]) == alone

    def test_trapezoid_failure_keeps_the_other_integrals(self):
        import numpy as np

        def f(x):
            tau = x["tau"]
            return np.where(x["node"] == 1, np.abs(tau - 1 / 3) ** 0.1,
                            np.exp(-200 * (tau - 0.5) ** 2))

        failures = {}
        values, errs, _ = adaptive_quadrature(
            f, np.zeros(3), np.ones(3), 1e-13, 1e-15, failures=failures,
            trapezoid=0)
        assert list(failures) == [1]
        assert abs(failures[1].value - self.KINK) < 1e-6
        for i in (0, 2):
            assert abs(values[i] - math.sqrt(math.pi / 200)) < 1e-13
            assert errs[i] < 1e-13

    def test_bisection_depth_exhausted(self):
        with pytest.raises(AccuracyError, match="bisection depth exhausted"):
            adaptive_quadrature(lambda x: (x > self.JUMP).astype(float),
                                100.0, 101.0, 1e-16, 0.0)

    def test_bisection_depth_exhausted_in_a_batch(self):
        import numpy as np
        scales = np.array([0.0, 0.5, 3.0])

        def f(x):
            node, t = x["node"], x["tau"]
            return np.where(node == 0, (t > self.JUMP).astype(float),
                            np.exp(-scales[node] * t) * np.sqrt(t))

        failures = {}
        values, errs, _ = adaptive_quadrature(
            f, np.array([100.0, 0.0, 0.0]), np.array([101.0, 1.0, 1.0]),
            1e-16, 0.0, failures=failures)
        assert list(failures) == [0]
        assert "bisection depth exhausted" in str(failures[0])
        for k in (1, 2):
            value, err, _ = adaptive_quadrature(
                lambda t: np.exp(-scales[k] * t) * np.sqrt(t), 0.0, 1.0,
                1e-16, 0.0)
            assert (values[k], errs[k]) == (value, err)


class TestProperIntegral:
    def test_gaussian(self):
        assert rel(proper_integral(SparsePolynomial(1, {(2,): -1}),
                                   REAL_LINE, 1e-10), SQRT_PI) < 1e-10

    def test_shifted_gaussian(self):
        P = SparsePolynomial(1, {(2,): -1, (1,): 1})
        expected = SQRT_PI * math.exp(0.25)
        assert rel(proper_integral(P, REAL_LINE, 1e-10), expected) < 1e-10

    def test_quartic(self):
        P = SparsePolynomial(1, {(4,): -1})
        assert rel(proper_integral(P, REAL_LINE, 1e-10),
                   2 * math.gamma(1.25)) < 1e-9

    def test_two_dimensional_gaussian(self):
        P = SparsePolynomial(2, {(2, 0): -1, (0, 2): -1})
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        assert rel(proper_integral(P, c, 1e-8), math.pi) < 1e-8

    def test_two_dimensional_arc_chain(self):
        # the entire integrand lets the outer chain -1 -> 0 -> (arc) -> 1
        # fold onto [-1, 1]: sqrt(pi) * sqrt(pi / a) * erf(sqrt(a))
        P = SparsePolynomial(2, {(2, 0): -1, (0, 2): -1, (1, 1): 0.3})
        c = ProductContour([[Segment(-1, 0), Arc(0.5, 0.5, math.pi, 0)],
                            [Line(0.3)]])
        a = 1 - 0.15 ** 2
        expected = SQRT_PI * math.sqrt(math.pi / a) * math.erf(math.sqrt(a))
        assert rel(proper_integral(P, c, 1e-8), expected) < 1e-8

    # the real line as two rays from the origin: Ray legs keep GK15
    SPLIT_LINE = [Ray(0, math.pi, orientation=-1), Ray(0, 0.0)]
    ROTATED = SparsePolynomial(2, {(2, 0): -1.2, (1, 1): 0.4, (0, 2): -0.9,
                                   (1, 0): 0.3 + 0.2j})

    def rotated_value(self):
        a = 1.2 * 0.9 - 0.2 ** 2
        return math.pi / math.sqrt(a) * cmath.exp(0.9 * (0.3 + 0.2j) ** 2
                                                  / (4 * a))

    def test_two_dimensional_gaussian_one_inner_call_per_outer_round(
            self, monkeypatch):
        # the points of an outer GK15 round fit in one inner-level call
        from hypint import quadrature
        level, gk15 = quadrature._level_value, quadrature._gk15
        depth = [0]
        outer_rounds = []
        inner_calls = []

        def spy_level(run, j, fixed, member, rel_tol):
            if j == 1:
                inner_calls.append(len(member))
            return level(run, j, fixed, member, rel_tol)

        def spy_gk15(f, node, a, b, batched):
            if depth[0] == 0:
                outer_rounds.append(len(a))
            depth[0] += 1
            try:
                return gk15(f, node, a, b, batched)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        monkeypatch.setattr(quadrature, "_gk15", spy_gk15)
        c = ProductContour([self.SPLIT_LINE, self.SPLIT_LINE])
        value, _ = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c, 1e-9)
        assert rel(value, self.rotated_value()) < 1e-9
        # each of the two outer legs starts with one round
        assert len(outer_rounds) > 2  # a refinement round was needed
        assert len(inner_calls) == len(outer_rounds)
        assert inner_calls == [15 * panels for panels in outer_rounds]

    def test_two_dimensional_gaussian_one_inner_call_per_outer_halving(
            self, monkeypatch):
        # on two Lines the trapezoid rule runs: its starting points, then
        # the new midpoints of each halving, go to one inner-level call
        from hypint import quadrature
        level = quadrature._level_value
        inner_calls = []
        gk15_calls = []

        def spy_level(run, j, fixed, member, rel_tol):
            if j == 1:
                inner_calls.append(len(member))
            return level(run, j, fixed, member, rel_tol)

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        monkeypatch.setattr(quadrature, "_gk15",
                            lambda *args: gk15_calls.append(args))
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        value, _ = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c, 1e-8)
        assert rel(value, self.rotated_value()) < 1e-8
        assert gk15_calls == []
        assert len(inner_calls) > 2  # more than one halving was needed
        assert inner_calls == [17] + [16 * 2 ** k
                                      for k in range(len(inner_calls) - 1)]

    def test_inner_variable_without_decay_diverges(self):
        P = SparsePolynomial(2, {(2, 0): -1, (1, 1): 0.5})
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        with pytest.raises(DivergenceError):
            proper_integral(P, c)

    def test_three_dimensional_gaussian(self):
        P = SparsePolynomial(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1})
        c = ProductContour([[Line(0.0)]] * 3)
        assert rel(proper_integral(P, c, 1e-5), math.pi ** 1.5) < 1e-5

    def test_divergent_contour_rejected(self):
        with pytest.raises(DivergenceError):
            proper_integral(SparsePolynomial.zero(1), REAL_LINE)
        with pytest.raises(DivergenceError):
            # growing exponent along the positive ray
            proper_integral(SparsePolynomial(1, {(1,): 1}), POSITIVE_RAY)


class TestMonomialWeights:
    def test_gamma_half(self):
        P = SparsePolynomial(1, {(1,): -1})
        assert rel(gg_eval(P, 0.5, POSITIVE_RAY, 1e-9), SQRT_PI) < 1e-8

    def test_gamma_two(self):
        P = SparsePolynomial(1, {(1,): -1})
        assert rel(gg_eval(P, 2.0, POSITIVE_RAY, 1e-10), 1.0) < 1e-10

    def test_vanishing_extra_coefficient(self):
        P = SparsePolynomial(1, {(1,): -1})
        assert rel(gg_eval(P, 1.0, POSITIVE_RAY, 1e-10), 1.0) < 1e-10

    def test_residue_on_closed_circle(self):
        circle = ProductContour([[Arc(0, 1.0, 0.0, 2 * math.pi)]])
        spec = IntegrandSpec(SparsePolynomial.zero(1), AlphaMonomial(0.0))
        value, _ = integrate(spec, circle, 1e-9)
        assert abs(value - 2j * math.pi) < 1e-9

    def test_fourier_laplace_transform(self):
        # exp(-s t) t^(u-1) on the positive ray gives Gamma(u) s^(-u)
        for s, u in [(1.0, 1.0), (2.0, 1.5)]:
            P = SparsePolynomial(1, {(1,): -s})
            expected = math.gamma(u) * s ** (-u)
            assert rel(gg_eval(P, u, POSITIVE_RAY, 1e-9), expected) < 1e-8

    def test_two_dimensional_branch_tracked_gamma(self):
        # each outer node continues t2^(u2-1) along its own truncated ray
        P = SparsePolynomial(2, {(1, 0): -1, (0, 1): -1})
        c = ProductContour([[Ray(0, 0)], [Ray(0, 0)]],
                           {("t", 1): 0, ("t", 2): 0})
        assert rel(gg_eval(P, [1.5, 2.5], c, 1e-8),
                   math.gamma(1.5) * math.gamma(2.5)) < 1e-8

    def test_missing_branch_data_rejected(self):
        P = SparsePolynomial(1, {(1,): -1})
        bare = ProductContour([[Ray(0, 0.0)]])
        with pytest.raises(ValueError):
            gg_eval(P, 0.5, bare)


class TestEulerIntegrals:
    def test_beta_value(self):
        P = SparsePolynomial(1, {(0,): 1, (1,): -1})
        assert rel(euler_integral_eval([P], [1.0], [2.0], UNIT_SEGMENT, 1e-10),
                   1 / 6) < 1e-10

    def test_logarithmic_kernel(self):
        P = SparsePolynomial(1, {(0,): 1, (1,): -0.5})
        assert rel(euler_integral_eval([P], [-1.0], [1.0], UNIT_SEGMENT, 1e-10),
                   2 * math.log(2)) < 1e-10

    def test_constant_factor(self):
        P = SparsePolynomial(1, {(0,): 1})
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        assert rel(euler_integral_eval([P], [3.5], [1.0], contour, 1e-10),
                   1.0) < 1e-10

    def test_fractional_power_with_branch_data(self):
        # int_0^1 (1 - t)^(1/2) dt = 2/3
        P = SparsePolynomial(1, {(0,): 1, (1,): -1})
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        assert rel(euler_integral_eval([P], [0.5], [1.0], contour, 1e-9),
                   2 / 3) < 1e-8

    def test_endpoint_zero_with_nonintegrable_exponent(self):
        P = SparsePolynomial(1, {(0,): 1, (1,): -1})
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        with pytest.raises(ValueError):
            euler_integral_eval([P], [-1.5], [1.0], contour)

    def test_fractional_power_needs_one_variable(self):
        P = SparsePolynomial(2, {(0, 0): 1, (1, 0): -0.25, (0, 1): -0.25})
        contour = ProductContour([[Segment(0, 1)], [Segment(0, 1)]],
                                 {("P", 1): 0.0})
        with pytest.raises(ValueError):
            euler_integral_eval([P], [0.5], [1.0, 1.0], contour)

    def test_integer_power_two_variables(self):
        # int_0^1 int_0^1 (1 + t1 + t2) dt = 2
        P = SparsePolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        contour = ProductContour([[Segment(0, 1)], [Segment(0, 1)]])
        assert rel(euler_integral_eval([P], [1.0], [1.0, 1.0], contour, 1e-10),
                   2.0) < 1e-10


class TestContourProperties:
    def test_reversing_orientation_negates(self):
        P = SparsePolynomial(1, {(0,): 1, (1,): -1})
        forward = euler_integral_eval([P], [1.0], [2.0], UNIT_SEGMENT, 1e-10)
        backward = euler_integral_eval(
            [P], [1.0], [2.0],
            ProductContour([[Segment(0, 1, orientation=-1)]]), 1e-10)
        assert abs(forward + backward) < 1e-12

    def test_reversed_arc_negates(self):
        circle = ProductContour([[Arc(0, 1.0, 0.0, 2 * math.pi,
                                      orientation=-1)]])
        spec = IntegrandSpec(SparsePolynomial.zero(1), AlphaMonomial(0.0))
        value, _ = integrate(spec, circle, 1e-9)
        assert abs(value + 2j * math.pi) < 1e-9

    def test_splitting_a_segment_preserves_value(self):
        P = SparsePolynomial(1, {(0,): 1, (1,): -1})
        tol = 1e-10
        whole = euler_integral_eval([P], [1.0], [2.0], UNIT_SEGMENT, tol)
        split = euler_integral_eval(
            [P], [1.0], [2.0],
            ProductContour([[Segment(0, 0.37), Segment(0.37, 1)]]), tol)
        assert abs(whole - split) <= 2 * tol * abs(whole) + 1e-14

    def test_disconnected_chain_rejected(self):
        with pytest.raises(ValueError):
            ProductContour([[Segment(0, 1), Segment(2, 3)]])

    def test_line_must_be_alone(self):
        with pytest.raises(ValueError):
            ProductContour([[Line(0.0), Segment(0, 1)]])

    def test_wrong_chain_count_rejected(self):
        P = SparsePolynomial(2, {(2, 0): -1, (0, 2): -1})
        with pytest.raises(ValueError):
            proper_integral(P, REAL_LINE)


class TestDerivativeTransferIdentity:
    def test_parts_identity_for_cubic_weight(self):
        # integral of (d/dt t^3) e^P equals -integral of t^3 P' e^P:
        # 3 I(t^2) = 2 I(t^4) for P = -t^2 on the real line
        P = SparsePolynomial(1, {(2,): -1})
        lhs = 3 * gg_eval(P, 3.0, REAL_LINE, 1e-10)
        rhs = 2 * gg_eval(P, 5.0, REAL_LINE, 1e-10)
        assert rel(lhs, rhs) < 1e-9

    def test_parts_identity_odd_weight_both_zero(self):
        P = SparsePolynomial(1, {(2,): -1})
        lhs = 2 * gg_eval(P, 2.0, REAL_LINE, 1e-9)
        rhs = 2 * gg_eval(P, 4.0, REAL_LINE, 1e-9)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


class TestBentContour:
    def test_cubic_damped_chain(self):
        # incoming ray at 2pi/3, outgoing along the positive axis; both in
        # decay sectors of exp(-t^3)
        P = SparsePolynomial(1, {(1,): 0.2, (3,): -1})
        bent = ProductContour([[Ray(0, 2 * math.pi / 3, orientation=-1),
                                Ray(0, 0.0)]])
        value, err = integrate(IntegrandSpec(P, AlphaOne()), bent, 1e-10)
        assert err < 1e-9 * abs(value)
        # independent check: term-by-term expansion of exp(0.2 t) against
        # Gamma-function values of the pure cubic on the same chain
        total = 0j
        for k in range(24):
            # integral of t^k exp(-t^3) over the chain:
            # (exp(2pi i (k+1)/3) - 1) / (-3) * Gamma((k+1)/3) picks up the
            # rotation of the incoming ray
            g = math.gamma((k + 1) / 3) / 3
            phase = cmath.exp(2j * math.pi * (k + 1) / 3)
            moment = (1 - phase) * g
            total += 0.2 ** k / math.factorial(k) * moment
        assert abs(value - total) < 1e-9


class TestTrapezoidLegs:
    """Calibration of the trapezoid rule on Line legs of entire
    integrands: the real error stays within max(tol * |value|, the
    reported estimate), and no GK15 panel is evaluated."""

    @pytest.fixture
    def gk15_calls(self, monkeypatch):
        from hypint import quadrature
        gk15 = quadrature._gk15
        calls = []

        def spy(*args):
            calls.append(len(args[2]))
            return gk15(*args)

        monkeypatch.setattr(quadrature, "_gk15", spy)
        return calls

    @staticmethod
    def check(spec, contour, tol, expected):
        value, err = integrate(spec, contour, tol)
        assert abs(value - expected) <= max(tol * abs(value), err)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("angle", [0.0, 0.4, 1.1, 2.0, 2.9])
    def test_rotated_gaussian_plane(self, angle, tol, gk15_calls):
        # exp(-x^T A x + b^T x) with A = R diag(1.7, 0.6) R^T
        c, s = math.cos(angle), math.sin(angle)
        a11 = 1.7 * c * c + 0.6 * s * s
        a22 = 1.7 * s * s + 0.6 * c * c
        a12 = (1.7 - 0.6) * c * s
        b = (0.4 - 0.3j, -0.2 + 0.5j)
        P = SparsePolynomial(2, {(2, 0): -a11, (1, 1): -2 * a12, (0, 2): -a22,
                                 (1, 0): b[0], (0, 1): b[1]})
        det = a11 * a22 - a12 * a12
        quad_form = (a22 * b[0] ** 2 - 2 * a12 * b[0] * b[1]
                     + a11 * b[1] ** 2) / det
        expected = math.pi / math.sqrt(det) * cmath.exp(quad_form / 4)
        self.check(IntegrandSpec(P, AlphaOne()),
                   ProductContour([[Line(0.0)], [Line(0.0)]]), tol, expected)
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_oscillatory_gaussian(self, tol, gk15_calls):
        c, b = 1 + 3j, 0.5 - 0.2j
        P = SparsePolynomial(1, {(2,): -c, (1,): b})
        expected = cmath.sqrt(math.pi / c) * cmath.exp(b * b / (4 * c))
        self.check(IntegrandSpec(P, AlphaOne()), REAL_LINE, tol, expected)
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_narrow_off_centre_peak(self, tol, gk15_calls):
        # width 0.035 around t = 0.3, value e^36 sqrt(pi) / 20
        P = SparsePolynomial(1, {(2,): -400, (1,): 240})
        expected = SQRT_PI / 20 * math.exp(36)
        self.check(IntegrandSpec(P, AlphaOne()), REAL_LINE, tol, expected)
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_quartic_with_complex_shift(self, tol, gk15_calls):
        import mpmath
        c = 0.7 + 0.3j
        with mpmath.workdps(30):
            expected = complex(mpmath.quad(
                lambda t: mpmath.exp(-t ** 4 + c * t), [-mpmath.inf, 0, mpmath.inf]))
        P = SparsePolynomial(1, {(4,): -1, (1,): c})
        self.check(IntegrandSpec(P, AlphaOne()), REAL_LINE, tol, expected)
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_integer_monomial_weight(self, tol, gk15_calls):
        # t^2 exp(-t^2): Gamma(3/2)
        P = SparsePolynomial(1, {(2,): -1})
        self.check(IntegrandSpec(P, AlphaMonomial(3.0)), REAL_LINE, tol,
                   math.gamma(1.5))
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_integer_power_product(self, tol, gk15_calls):
        # (1 + t)^2 exp(-t^2): sqrt(pi) + sqrt(pi) / 2
        alpha = AlphaPowerProduct([SparsePolynomial(1, {(0,): 1, (1,): 1})],
                                  [2.0], [1.0])
        self.check(IntegrandSpec(SparsePolynomial(1, {(2,): -1}), alpha),
                   REAL_LINE, tol, 1.5 * SQRT_PI)
        assert gk15_calls == []

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("a, t0", [(400.0, 30.0), (1e5, 3.0)])
    def test_narrow_peak_far_from_the_origin(self, a, t0, tol, gk15_calls):
        # exp(-a (t - t0)^2), narrower than the spacing of the scan radii
        # near t0: the 17- and 33-point sums of the truncated line both
        # miss it and agree on about 0, so the scan's steep flank at the
        # radii around t0 must ask for a finer step, here past the
        # trapezoid's reach, where GK15 bisects down to the peak
        P = SparsePolynomial(1, {(2,): -a, (1,): 2 * a * t0,
                                 (0,): -a * t0 * t0})
        self.check(IntegrandSpec(P, AlphaOne()), REAL_LINE, tol,
                   math.sqrt(math.pi / a))
        assert gk15_calls

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_oscillation_aliased_on_two_grids(self, tol, gk15_calls):
        # exp(-t^2 + i w t) on the line truncated at +-10**1.1, with w
        # 2 pi over the step of 128 intervals: the sums of 64 and 128
        # intervals both sample exp(i w t) at one phase, so both give
        # sqrt(pi) in modulus where the integral is 3e-111; the step has
        # to stay below pi / w
        w = 2 * math.pi * 128 / (2 * 10 ** 1.1)
        P = SparsePolynomial(1, {(2,): -1, (1,): 1j * w})
        self.check(IntegrandSpec(P, AlphaOne()), REAL_LINE, tol,
                   SQRT_PI * math.exp(-w * w / 4))
        assert gk15_calls == []

    def test_pole_factor_keeps_gk15(self, gk15_calls):
        # (1 + t^2)^-1 exp(-t^2) has poles at +-i: not entire, so GK15
        import mpmath
        alpha = AlphaPowerProduct([SparsePolynomial(1, {(0,): 1, (2,): 1})],
                                  [-1.0], [1.0])
        expected = math.pi * math.e * float(mpmath.erfc(1))
        self.check(IntegrandSpec(SparsePolynomial(1, {(2,): -1}), alpha),
                   REAL_LINE, 1e-10, expected)
        assert gk15_calls and gk15_calls[0] == 8

    def test_batched_members_match_lone_runs(self):
        contour = ProductContour([[Line(0.3)], [Line(-0.2)]])
        specs = [IntegrandSpec(SparsePolynomial(2, {
            (2, 0): -1.3 + d, (1, 1): 0.3j, (0, 2): -0.8, (0, 1): 0.2}),
            AlphaMonomial((2.0, 1.0))) for d in (-1e-3, 0.0, 1e-3)]
        batch = integrate(specs, contour, 1e-9)
        assert _bits(batch) == _bits([integrate(s, contour, 1e-9)
                                      for s in specs])


def _bits(results):
    """(value, err) pairs as exact tuples, so == compares bit for bit."""
    return [(complex(v).real, complex(v).imag, float(e)) for v, e in results]


def _stencil(coeffs, steps):
    """The 3^k central-difference grid around a {exponent: value} centre."""
    points = [dict(coeffs)]
    for w, h in steps.items():
        points = [{**p, w: p[w] + off * h} for p in points for off in (-1, 0, 1)]
    return points


class TestBatchedIntegrands:
    """A sequence of specs gives, member for member, the values and error
    estimates of separate calls."""

    def check_batch(self, specs, contour, tol):
        batch = integrate(specs, contour, tol)
        assert isinstance(batch, list) and len(batch) == len(specs)
        assert _bits(batch) == _bits([integrate(s, contour, tol) for s in specs])
        return batch

    def test_line_gaussian(self):
        specs = [IntegrandSpec(SparsePolynomial(1, p), AlphaOne())
                 for p in _stencil({(1,): 0.3 + 0.1j, (2,): -1.1},
                                   {(1,): 1e-4, (2,): 1e-4})]
        batch = self.check_batch(specs, REAL_LINE, 1e-10)
        assert rel(batch[4][0], SQRT_PI / math.sqrt(1.1)
                   * cmath.exp((0.3 + 0.1j) ** 2 / 4.4)) < 1e-9

    @pytest.mark.parametrize("u, tol", [(0.1, 1e-9), (0.62, 1e-10), (2.3, 1e-10)])
    def test_branch_tracked_ray(self, u, tol):
        specs = [IntegrandSpec(SparsePolynomial(1, {(1,): -1.0 + d}),
                               AlphaMonomial(u)) for d in (-1e-4, 0.0, 1e-4)]
        self.check_batch(specs, POSITIVE_RAY, tol)

    def test_segment_power_product(self):
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        specs = [IntegrandSpec(SparsePolynomial.zero(1), AlphaPowerProduct(
            [SparsePolynomial(1, p)], [0.73], [2.0]))
            for p in _stencil({(0,): 1.2, (1,): -0.4}, {(0,): 1e-3, (1,): 1e-3})]
        self.check_batch(specs, contour, 1e-10)

    def test_members_whose_factor_winds_apart(self):
        # 1 + a t + b t^2 turns its argument past pi on [0, 1]; with the
        # conjugate coefficients past -pi: each member continues its own
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        a, b = -2.2 + 1.2j, 0.2 - 2j
        specs = [IntegrandSpec(SparsePolynomial.zero(1), AlphaPowerProduct(
            [SparsePolynomial(1, {(0,): 1, (1,): x, (2,): y})], [0.5], [1.0]))
            for x, y in ((a, b), (a.conjugate(), b.conjugate()))]
        (v1, _), (v2, _) = self.check_batch(specs, contour, 1e-10)
        assert abs(v2 - v1.conjugate()) < 1e-9 * abs(v1)

    def test_two_dimensional_gaussian_mixes_members_in_chunks(self, monkeypatch):
        from hypint import quadrature
        level = quadrature._level_value
        mixed = []

        def spy(run, j, fixed, member, rel_tol):
            if j > 0:
                mixed.append(len(set(member.tolist())) > 1)
            return level(run, j, fixed, member, rel_tol)

        monkeypatch.setattr(quadrature, "_level_value", spy)
        contour = ProductContour([[Line(0.0)], [Line(0.0)]])
        specs = [IntegrandSpec(SparsePolynomial(2, {
            (2, 0): -1.0 + d, (1, 1): 0.2, (0, 2): -1.4,
            (1, 0): 0.1 + 0.2j, (0, 1): -0.3j}), AlphaOne())
            for d in (-1e-3, 0.0, 1e-3)]
        self.check_batch(specs, contour, 1e-8)
        # inner levels got chunks of _NODE_CAP nodes from several members
        assert any(mixed) and len(mixed) > len(specs)

    def test_members_with_different_supports(self):
        # a zero coefficient drops its monomial: such members run apart
        specs = [IntegrandSpec(SparsePolynomial(1, {(1,): c1, (2,): -1.0}),
                               AlphaOne()) for c1 in (-1e-4, 0.0, 1e-4)]
        assert specs[1].P.terms.keys() != specs[0].P.terms.keys()
        self.check_batch(specs, REAL_LINE, 1e-10)

    def test_single_spec_returns_a_pair(self):
        spec = IntegrandSpec(SparsePolynomial(1, {(2,): -1}), AlphaOne())
        value, err = integrate(spec, REAL_LINE, 1e-10)
        assert _bits(integrate([spec], REAL_LINE, 1e-10)) == _bits([(value, err)])

    def test_divergent_member_raises(self):
        specs = [IntegrandSpec(SparsePolynomial(1, {(2,): c2}), AlphaOne())
                 for c2 in (-1.0, 0.5, -2.0)]
        with pytest.raises(DivergenceError):
            integrate(specs, REAL_LINE, 1e-10)

    def test_inaccurate_member_raises(self):
        # 2e5 radians of oscillation need more than the interval budget
        specs = [IntegrandSpec(SparsePolynomial(1, {(1,): c1}), AlphaOne())
                 for c1 in (1j, 2e5j)]
        with pytest.raises(AccuracyError, match="after 4096 intervals"):
            integrate(specs, UNIT_SEGMENT, 1e-10)

    def test_failing_members_keep_the_others_results(self):
        # members 1 and 3 run out of intervals; 0 and 2 run on to the end
        specs = [IntegrandSpec(SparsePolynomial(1, {(1,): c1}), AlphaOne())
                 for c1 in (1j, 2e5j, -2.0 + 3j, 3e5j)]
        alone = []
        for spec in specs:
            try:
                alone.append(integrate(spec, UNIT_SEGMENT, 1e-10))
            except AccuracyError as exc:
                alone.append(exc)
        with pytest.raises(AccuracyError) as batched:
            integrate(specs, UNIT_SEGMENT, 1e-10)
        results = batched.value.results
        # the error raised is the first to happen, member 1's
        assert results[1] is batched.value
        for got, want in zip(results, alone):
            if isinstance(want, AccuracyError):
                assert type(got) is AccuracyError
                assert (str(got), got.value, got.err_estimate) == \
                    (str(want), want.value, want.err_estimate)
            else:
                assert _bits([got]) == _bits([want])

    def test_members_of_later_supports_do_not_run_after_a_failure(self):
        specs = [IntegrandSpec(SparsePolynomial(1, p), AlphaOne())
                 for p in ({(1,): 2e5j}, {(1,): 1j, (2,): -1.0})]
        with pytest.raises(AccuracyError) as batched:
            integrate(specs, UNIT_SEGMENT, 1e-10)
        assert batched.value.results == [batched.value, None]

    @pytest.mark.parametrize("other", [
        IntegrandSpec(SparsePolynomial(1, {(1,): -1.0}), AlphaOne()),
        IntegrandSpec(SparsePolynomial(1, {(1,): -1.0}), AlphaMonomial(0.7)),
        IntegrandSpec(SparsePolynomial(2, {(1, 0): -1.0, (0, 1): -1.0}),
                      AlphaMonomial((0.5, 0.5))),
    ])
    def test_members_must_share_alpha_and_u(self, other):
        spec = IntegrandSpec(SparsePolynomial(1, {(1,): -2.0}), AlphaMonomial(0.5))
        with pytest.raises(ValueError, match="only in their polynomial"):
            integrate([spec, other], POSITIVE_RAY, 1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            integrate([], REAL_LINE)


def test_error_estimate_is_honest():
    P = SparsePolynomial(1, {(2,): -1, (1,): 0.3})
    value, err = integrate(IntegrandSpec(P, AlphaOne()), REAL_LINE, 1e-13)
    exact = cmath.sqrt(cmath.pi) * cmath.exp(0.3 ** 2 / 4)
    assert abs(value - exact) <= max(err * 5, 1e-15)
    assert err < 1e-13 * abs(value) * 10


def test_gaussian_family_runtime():
    start = time.monotonic()
    for a in (0.0, 0.5, 1.0):
        P = SparsePolynomial(1, {(2,): -1, (1,): a})
        expected = SQRT_PI * math.exp(a * a / 4)
        assert rel(proper_integral(P, REAL_LINE, 1e-10), expected) < 1e-8
    assert time.monotonic() - start < 1.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc heap trimming")
def test_freed_temporaries_stay_on_the_heap():
    # 3.7 MB of level-sized temporaries (122 scan radii for each of 120
    # nodes), allocated and freed again and again, must not make glibc
    # trim its heap or map fresh pages and fault them in
    code = """if True:
        import resource, numpy as np, hypint.quadrature
        def churn():
            arrays = [np.ones(14640, dtype=complex) for _ in range(16)]
        churn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            churn()
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """
    out = subprocess.run([sys.executable, "-c", code], text=True,
                         capture_output=True, check=True).stdout
    assert int(out) < 100
