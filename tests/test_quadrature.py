import cmath
import math
import platform
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from hypint.polynomials import SparsePolynomial
from hypint.quadrature import (AccuracyError, AlphaMonomial, AlphaOne,
                               AlphaPowerProduct, Arc, DivergenceError,
                               IntegrandSpec, Line, ProductContour,
                               QuadratureError, Ray, Segment,
                               adaptive_quadrature, euler_integral_eval,
                               gg_eval, integrate, proper_integral)

REAL_LINE = ProductContour([[Line(0.0)]])
POSITIVE_RAY = ProductContour([[Ray(0, 0.0)]], {("t", 1): 0.0})
UNIT_SEGMENT = ProductContour([[Segment(0, 1)]])

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / abs(b)


def one_integral(f, a, b, *args, **kwargs):
    """adaptive_quadrature of one integral over [a, b]: ``f`` takes plain
    arrays of points, and the value, error and floor come back as scalars."""
    import numpy as np
    value, err, floor = adaptive_quadrature(
        lambda x: f(x["tau"]), np.array([a]), np.array([b]), *args, **kwargs)
    return complex(value[0]), float(err[0]), float(floor[0])


class TestAdaptiveRule:
    def test_polynomial_is_exact(self):
        value, err, _ = one_integral(lambda x: x ** 5 - x, 0.0, 2.0,
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

            value, err, _ = one_integral(g, 0.0, 1.0, 1e-12, 1e-15)
            assert seen[k] == sum(points)
            assert values[k] == pytest.approx(value, rel=1e-14)
            assert errs[k] == pytest.approx(err, rel=1e-6)
        assert len(set(seen)) == 3

    def test_budget_exhaustion_reports_best(self):
        # a kink the estimator keeps refining at an absurd tolerance
        import numpy as np
        with pytest.raises(AccuracyError) as info:
            one_integral(lambda x: np.abs(x - 1 / 3) ** 0.1,
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

        value, err, _ = one_integral(f, 0.0, 1.0, 1e-12, 1e-15)
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
            one_integral(f, 0.0, 1.0, 1e-12, 1e-15, max_intervals=12)
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
            one_integral(lambda x: np.abs(x - 1 / 3) ** 0.1,
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

        one_integral(f, 0.0, 1.0, 1e-10, 1e-15, trapezoid=0)
        natural = sum(sizes) - 1
        sizes.clear()
        value, _, _ = one_integral(f, 0.0, 1.0, 1e-10, 1e-15,
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
            alone = one_integral(
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

    @staticmethod
    def gaussian_box(x):
        import numpy as np
        z = x["tau"]
        return np.exp(-z[:, 0] ** 2 - z[:, 1] ** 2)

    def test_box_takes_the_tensor_trapezoid(self):
        # exp(-x^2 - y^2) on [-6, 6] x [-7, 7]: both axes halve together,
        # and each halving evaluates only the points the coarser grid lacks
        import numpy as np
        sizes = []

        def f(x):
            sizes.append(len(x))
            return self.gaussian_box(x)

        value, err, floor = adaptive_quadrature(
            f, np.array([[-6.0, -7.0]]), np.array([[6.0, 7.0]]), 1e-12, 1e-15,
            trapezoid=0)
        assert abs(value[0] - math.pi) <= err[0] < 1e-12 * math.pi
        assert sizes == [17 ** 2, 33 ** 2 - 17 ** 2, 65 ** 2 - 33 ** 2]
        assert floor[0] == pytest.approx(5e-16 * math.pi)

    def test_box_counts_the_rounding_of_its_integrand(self):
        # an integrand that reports a relative rounding of 1e-10 gets it,
        # weighted by its magnitude, on top of its estimate and floor
        import numpy as np
        value, err, floor = adaptive_quadrature(
            lambda x: (self.gaussian_box(x), np.full(len(x), 1e-10)),
            np.array([[-6.0, -7.0]]), np.array([[6.0, 7.0]]), 1e-12, 1e-15,
            trapezoid=0)
        assert abs(value[0] - math.pi) < 1e-14
        assert err[0] == pytest.approx(1e-10 * math.pi, rel=1e-4)
        assert floor[0] == pytest.approx(1e-10 * math.pi, rel=1e-4)

    def test_box_past_its_budget_fails_at_once(self):
        # a box has no GK15 to fall back on: (2**k + 1)**2 points may not
        # outnumber 15 * 4096, so 128 intervals per axis is its budget
        import numpy as np
        calls = []

        def f(x):
            calls.append(set(x["node"].tolist()))
            return self.gaussian_box(x)

        failures = {}
        values, errs, _ = adaptive_quadrature(
            f, np.array([[-6.0, -7.0]] * 2), np.array([[6.0, 7.0]] * 2),
            1e-12, 1e-15, failures=failures, trapezoid=[0, 200])
        assert list(failures) == [1]
        assert "more than 128 trapezoid intervals" in str(failures[1])
        assert all(nodes == {0} for nodes in calls)
        assert abs(values[0] - math.pi) <= errs[0]
        with pytest.raises(ValueError, match="trapezoid rule only"):
            adaptive_quadrature(f, np.array([[-6.0, -7.0]]),
                                np.array([[6.0, 7.0]]), 1e-12, 1e-15)

    def test_bisection_depth_exhausted(self):
        with pytest.raises(AccuracyError, match="bisection depth exhausted"):
            one_integral(lambda x: (x > self.JUMP).astype(float),
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
            value, err, _ = one_integral(
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

        def spy_gk15(f, node, a, b):
            if depth[0] == 0:
                outer_rounds.append(len(a))
            depth[0] += 1
            try:
                return gk15(f, node, a, b)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        monkeypatch.setattr(quadrature, "_gk15", spy_gk15)
        c = ProductContour([self.SPLIT_LINE, self.SPLIT_LINE])
        # at 1e-11 and above the outer legs converge on their starting panels
        value, _ = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c, 1e-12)
        assert rel(value, self.rotated_value()) < 1e-12
        # each of the two outer legs starts with one round
        assert len(outer_rounds) > 2  # a refinement round was needed
        assert len(inner_calls) == len(outer_rounds)
        assert inner_calls == [15 * panels for panels in outer_rounds]

    def test_two_dimensional_gaussian_one_inner_call_per_outer_halving(
            self, monkeypatch):
        # on a Line over two rays the outer trapezoid rule runs: its
        # starting points, then the new midpoints of each halving, go to
        # one inner-level call, and no GK15 panel is evaluated outside it
        from hypint import quadrature
        level, gk15 = quadrature._level_value, quadrature._gk15
        depth = [0]
        inner_calls = []
        outer_gk15_calls = []

        def spy_level(run, j, fixed, member, rel_tol):
            if j == 1:
                inner_calls.append(len(member))
            depth[0] += j > 0
            try:
                return level(run, j, fixed, member, rel_tol)
            finally:
                depth[0] -= j > 0

        def spy_gk15(*args):
            if depth[0] == 0:
                outer_gk15_calls.append(args)
            return gk15(*args)

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        monkeypatch.setattr(quadrature, "_gk15", spy_gk15)
        c = ProductContour([[Line(0.0)], self.SPLIT_LINE])
        value, _ = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c, 1e-8)
        assert rel(value, self.rotated_value()) < 1e-8
        assert outer_gk15_calls == []
        assert len(inner_calls) > 2  # more than one halving was needed
        assert inner_calls == [17] + [16 * 2 ** k
                                      for k in range(len(inner_calls) - 1)]

    def test_two_dimensional_gaussian_cut_where_it_has_decayed(
            self, monkeypatch):
        # the outer Line is cut at the first scan radius from which the
        # integrand stays negligible, so the outer trapezoid meets the
        # target after two halvings: 2**6 intervals, not 2**7
        from hypint import quadrature
        level = quadrature._level_value
        inner_calls = []

        def spy_level(run, j, fixed, member, rel_tol):
            if j == 1:
                inner_calls.append(len(member))
            return level(run, j, fixed, member, rel_tol)

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        c = ProductContour([[Line(0.0)], self.SPLIT_LINE])
        value, _ = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c, 1e-8)
        assert rel(value, self.rotated_value()) < 1e-8
        assert inner_calls == [17, 16, 32]

    def test_two_lines_take_one_grid(self, monkeypatch):
        # on two Lines the integrand goes on one tensor trapezoid in the
        # Laplace frame: one adaptive_quadrature call, no nested level,
        # and 65 x 65 points
        from hypint import quadrature
        level, adaptive = quadrature._level_value, quadrature.adaptive_quadrature
        levels = []
        grids = []

        def spy_level(run, j, fixed, member, rel_tol):
            levels.append(j)
            return level(run, j, fixed, member, rel_tol)

        def spy_adaptive(f, a, b, *args, **kwargs):
            grids.append(0)

            def counted(x):
                grids[-1] += len(x)
                return f(x)
            return adaptive(counted, a, b, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_level_value", spy_level)
        monkeypatch.setattr(quadrature, "adaptive_quadrature", spy_adaptive)
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        value, err = integrate(IntegrandSpec(self.ROTATED, AlphaOne()), c,
                               1e-8)
        assert abs(value - self.rotated_value()) <= err <= 1e-8 * abs(value)
        assert not [j for j in levels if j >= 1]
        assert grids == [65 ** 2]

    def test_strongly_correlated_gaussian_plane(self):
        # the inner slice at 0 decays like exp(-5 x^2) and the marginal only
        # like exp(-0.198 x^2): the outer range must hold the marginal
        P = SparsePolynomial(2, {(2, 0): -5, (1, 1): -9.8, (0, 2): -5})
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        value, _ = integrate(IntegrandSpec(P, AlphaOne()), c, 1e-8)
        expected = math.pi / math.sqrt(0.99)
        assert abs(value - expected) <= 1e-8 * expected

    def test_strongly_correlated_gaussian_space(self):
        # the same correlation seen from the outermost of three variables,
        # whose inner slice is two-dimensional
        P = SparsePolynomial(3, {(2, 0, 0): -5, (1, 1, 0): -9.8,
                                 (0, 2, 0): -5, (0, 0, 2): -1})
        c = ProductContour([[Line(0.0)]] * 3)
        value, _ = integrate(IntegrandSpec(P, AlphaOne()), c, 1e-8)
        expected = math.pi ** 1.5 / math.sqrt(0.99)
        assert abs(value - expected) <= 1e-8 * expected

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("inner", [Segment(0, 1), Arc(0, 1, 0, math.pi)],
                             ids=["segment", "arc"])
    def test_line_over_a_bounded_inner_leg(self, inner, tol):
        # exp(-x^2 + x y) with y on a Segment or an Arc, whose middle is an
        # inner representative: over y in [0, 1] the x integral is
        # sqrt(pi) e^(y^2 / 4); over the upper half circle from 1 to -1
        # the y integral is (e^-x - e^x) / x
        import mpmath
        P = SparsePolynomial(2, {(2, 0): -1, (1, 1): 1})
        with mpmath.workdps(30):
            if isinstance(inner, Segment):
                exact = float(mpmath.sqrt(mpmath.pi) * mpmath.quad(
                    lambda y: mpmath.exp(y * y / 4), [0, 1]))
            else:
                exact = float(mpmath.quad(
                    lambda x: mpmath.exp(-x * x) * (mpmath.exp(-x)
                                                    - mpmath.exp(x)) / x,
                    [-mpmath.inf, 0, mpmath.inf]))
        c = ProductContour([[Line(0.0)], [inner]])
        value, err = integrate(IntegrandSpec(P, AlphaOne()), c, tol)
        assert abs(value - exact) <= max(tol * abs(exact), err)

    def test_correlated_gaussian_on_two_rays(self):
        # exp(-5 (x - y)^2 - 0.05 (x + y)) on [0, inf)^2: the slices
        # through the inner ray's representatives 0 and 1 decay near the
        # origin, the marginal only like exp(-0.1 x); the reference is
        # the 1-D integral of exp(-0.1 x) times the inner erfc factor
        P = SparsePolynomial(2, {(2, 0): -5, (1, 1): 10, (0, 2): -5,
                                 (1, 0): -0.05, (0, 1): -0.05})
        c = ProductContour([[Ray(0, 0.0)], [Ray(0, 0.0)]])
        tol, expected = 1e-8, 7.827637155215978
        value, err = integrate(IntegrandSpec(P, AlphaOne()), c, tol)
        assert abs(value - expected) <= max(tol * expected, err)

    def test_ray_is_cut_where_a_line_end_is(self, monkeypatch):
        # one cut rule for every unbounded leg: exp(-t^2) on the positive
        # ray and on the line's positive end stops at the same radius
        from hypint import quadrature
        make_path = quadrature._make_path
        cuts = []

        def spy(leg, index, cut, count):
            cuts.append([float(r[0]) for r in cut])
            return make_path(leg, index, cut, count)

        monkeypatch.setattr(quadrature, "_make_path", spy)
        P = SparsePolynomial(1, {(2,): -1})
        half_line = proper_integral(P, POSITIVE_RAY, 1e-10)
        assert rel(half_line, SQRT_PI / 2) < 1e-10
        assert rel(proper_integral(P, REAL_LINE, 1e-10), SQRT_PI) < 1e-10
        (ray,), (_, line) = cuts
        assert ray == line == 7.96875

    def test_marginal_without_decay_diverges(self):
        # exp(-(x - y)^2): every slice decays, the marginal is sqrt(pi)
        P = SparsePolynomial(2, {(2, 0): -1, (1, 1): 2, (0, 2): -1})
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        with pytest.raises(DivergenceError, match="inner variables"):
            proper_integral(P, c)

    def test_inner_variable_without_decay_diverges(self):
        P = SparsePolynomial(2, {(2, 0): -1, (1, 1): 0.5})
        c = ProductContour([[Line(0.0)], [Line(0.0)]])
        with pytest.raises(DivergenceError):
            proper_integral(P, c)

    def test_three_dimensional_gaussian(self):
        P = SparsePolynomial(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1})
        c = ProductContour([[Line(0.0)]] * 3)
        assert rel(proper_integral(P, c, 1e-5), math.pi ** 1.5) < 1e-5

    @pytest.mark.parametrize("contour", [POSITIVE_RAY, REAL_LINE],
                             ids=["ray", "line"])
    def test_integrand_past_the_double_range(self, contour):
        # exp(-t^2 + 60 t) peaks at e^900, past the largest double
        P = SparsePolynomial(1, {(2,): -1, (1,): 60})
        with pytest.raises(QuadratureError, match="not finite") as info:
            integrate(IntegrandSpec(P, AlphaOne()), contour, 1e-8)
        assert type(info.value) is QuadratureError

    def test_divergent_contour_rejected(self):
        with pytest.raises(DivergenceError):
            proper_integral(SparsePolynomial.zero(1), REAL_LINE)
        with pytest.raises(DivergenceError):
            # growing exponent along the positive ray
            proper_integral(SparsePolynomial(1, {(1,): 1}), POSITIVE_RAY)
        with pytest.raises(DivergenceError):
            # no peak on two lines for a frame to centre on
            proper_integral(SparsePolynomial.zero(2),
                            ProductContour([[Line(0.0)]] * 2))


def correlated_gaussians(seed, count=60):
    """exp(-(x - c)^T A (x - c)) with its peak at 1, A with eigenvalues
    10^U(-1, 2) rotated by U(0, pi), c in U(-5, 5)^2; with the integral
    pi / sqrt(det A) and a tolerance alternating 1e-8 and 1e-10."""
    rng = random.Random(seed)
    for k in range(count):
        lam1, lam2 = (10 ** rng.uniform(-1, 2) for _ in range(2))
        angle = rng.uniform(0, math.pi)
        cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        c, s = math.cos(angle), math.sin(angle)
        a11 = lam1 * c * c + lam2 * s * s
        a22 = lam1 * s * s + lam2 * c * c
        a12 = (lam1 - lam2) * c * s
        P = SparsePolynomial(2, {
            (2, 0): -a11, (1, 1): -2 * a12, (0, 2): -a22,
            (1, 0): 2 * (a11 * cx + a12 * cy), (0, 1): 2 * (a12 * cx + a22 * cy),
            (0, 0): -(a11 * cx * cx + 2 * a12 * cx * cy + a22 * cy * cy)})
        yield P, math.pi / math.sqrt(lam1 * lam2), (1e-8, 1e-10)[k % 2]


@pytest.mark.parametrize("seed", [3, 11])
def test_correlated_gaussian_family(seed):
    # the outer range must hold the marginal, wherever the inner slices
    # peak: no result may miss its closed form by more than it claims
    from hypint.quadrature import ABS_FLOOR
    c = ProductContour([[Line(0.0)], [Line(0.0)]])
    for P, expected, tol in correlated_gaussians(seed):
        value, err = integrate(IntegrandSpec(P, AlphaOne()), c, tol)
        assert abs(value - expected) <= max(tol * expected, err, ABS_FLOOR)


class TestLaplaceFrame:
    """Calibration of the tensor trapezoid on two Lines: the real error
    stays within the reported estimate, which counts the rounding of P,
    on cases that cancel, that are nearly singular, or that leave the
    frame for the nested levels."""

    PLANE = ProductContour([[Line(0.0)], [Line(0.0)]])

    @staticmethod
    def cancelling(theta):
        """exp(-(x - c)^T A (x - c) + i w^T x), A = R(theta) diag(0.38,
        150.6) R(theta)^T: a value near 1e-97 from terms of P near 1e4,
        and its closed form pi / sqrt(det A) exp(i w^T c - w^T A^-1 w / 4)."""
        import mpmath
        c, w = (12.34, -5.71), (18.29, 8.25)
        co, si = math.cos(theta), math.sin(theta)
        a11 = 0.38 * co * co + 150.6 * si * si
        a22 = 0.38 * si * si + 150.6 * co * co
        a12 = (0.38 - 150.6) * co * si
        P = SparsePolynomial(2, {
            (2, 0): -a11, (1, 1): -2 * a12, (0, 2): -a22,
            (1, 0): 2 * (a11 * c[0] + a12 * c[1]) + 1j * w[0],
            (0, 1): 2 * (a12 * c[0] + a22 * c[1]) + 1j * w[1],
            (0, 0): -(a11 * c[0] ** 2 + 2 * a12 * c[0] * c[1]
                      + a22 * c[1] ** 2)})
        with mpmath.workdps(40):
            A = mpmath.matrix([[a11, a12], [a12, a22]])
            W, C = mpmath.matrix(w), mpmath.matrix(c)
            exact = mpmath.pi / mpmath.sqrt(mpmath.det(A)) * mpmath.exp(
                1j * (W.T * C)[0] - (W.T * A ** -1 * W)[0] / 4)
        return P, complex(exact)

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.2, 2.5])
    def test_cancelling_gaussian(self, theta):
        P, exact = self.cancelling(theta)
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, 1e-10)
        assert abs(value - exact) <= err

    def test_two_line_ridge(self):
        # exp(-4.0001 x^2 + 8 x y - 4 y^2): eigenvalues 8 and 5e-5, so the
        # terms of P reach 1e5 along the ridge; the closed form needs the
        # coefficient as the double it is
        import mpmath
        P = SparsePolynomial(2, {(2, 0): -4.0001, (1, 1): 8, (0, 2): -4})
        with mpmath.workdps(40):
            exact = float(mpmath.pi / mpmath.sqrt(4 * mpmath.mpf(4.0001) - 16))
        tol = 1e-8
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= err
        assert abs(value - exact) <= tol * exact

    @pytest.mark.parametrize("a, b, c", [(5.0, 1e-5, 0.0), (6.351, 1e-5, 0.012)])
    def test_long_ridge(self, a, b, c):
        # exp(-a (x - y)^2 - b (x + y)^2 - c y): a ridge of width 0.3 along
        # x = y, reaching hundreds out, where nested levels cut along the
        # axes lose its tail
        P = SparsePolynomial(2, {(2, 0): -(a + b), (1, 1): 2 * (a - b),
                                 (0, 2): -(a + b), (0, 1): -c})
        # A = [[a + b, b - a], [b - a, a + b]], det A = 4 a b, and the
        # integral of exp(-x^T A x + w^T x) is pi / sqrt(det A)
        # exp(w^T A^-1 w / 4) with w = (0, -c)
        exact = math.pi / math.sqrt(4 * a * b) * math.exp(
            c * c * (a + b) / (16 * a * b))
        tol = 1e-8
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("a", [1.0, 3.0, 12.0, 20.0,
                                   2 * math.pi / (25.25 / 64) ** 2])
    def test_cross_term_of_im_q(self, a, tol):
        # exp(-x^2/2 - y^2/2 + i a x y): the cross term vanishes on both
        # axes of the frame, so only the curvature of Im Q shows the step
        # it asks for.  On a box of +-12.625 the last a makes a h^2 = 2 pi,
        # 8 pi and 32 pi on the grids of 64, 32 and 16 intervals, each of
        # which sees the Gaussian without its oscillation and gives 2 pi
        P = SparsePolynomial(2, {(2, 0): -0.5, (0, 2): -0.5, (1, 1): 1j * a})
        exact = 2 * math.pi / math.sqrt(1 + a * a)
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_two_peaks(self, tol):
        # exp(-(x^2 - 4)^2 - y^2) peaks at (+-2, 0)
        import mpmath
        P = SparsePolynomial(2, {(4, 0): -1, (2, 0): 8, (0, 0): -16,
                                 (0, 2): -1})
        with mpmath.workdps(30):
            exact = float(mpmath.sqrt(mpmath.pi) * mpmath.quad(
                lambda x: mpmath.exp(-(x * x - 4) ** 2),
                [-mpmath.inf, -2, 0, 2, mpmath.inf]))
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_two_peak_ridge(self, tol):
        # exp(-0.01 (x^2 - 100)^2 - (y - x)^2) peaks at (-10, -10) and
        # (10, 10), off the axes of either peak's frame: P of degree 4
        # nests, and both peaks count
        import mpmath
        P = SparsePolynomial(2, {(4, 0): -0.01, (2, 0): 1, (0, 0): -100,
                                 (1, 1): 2, (0, 2): -1})
        with mpmath.workdps(30):
            exact = float(mpmath.sqrt(mpmath.pi) * mpmath.quad(
                lambda x: mpmath.exp(-(x * x - 100) ** 2 / 100),
                [-mpmath.inf, -10, 0, 10, mpmath.inf]))
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    def test_singular_hessian_nests(self, monkeypatch):
        # exp(-x^4 - y^4): P of degree 4, with no positive definite
        # -Hessian at its peak, takes the nested levels
        from hypint import quadrature
        level = quadrature._level_value
        levels = []

        def spy(run, j, fixed, member, rel_tol):
            levels.append(j)
            return level(run, j, fixed, member, rel_tol)

        monkeypatch.setattr(quadrature, "_level_value", spy)
        P = SparsePolynomial(2, {(4, 0): -1, (0, 4): -1})
        tol, exact = 1e-10, (2 * math.gamma(1.25)) ** 2
        value, err = integrate(IntegrandSpec(P, AlphaOne()), self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)
        assert 1 in levels

    def test_batch_mixes_the_frame_and_the_nested_levels(self, monkeypatch):
        # exp(-(1 - i c) x^2 - y^2): c = 0.1 takes the grid; c = 5 turns so
        # fast out to its cut that the grid's budget has no room for two
        # halvings past the resolution it needs, so it nests; each member
        # gets what it gets alone
        from hypint import quadrature
        level = quadrature._level_value
        nested = []

        def spy(run, j, fixed, member, rel_tol):
            if j == 0:
                nested.append(len(member))
            return level(run, j, fixed, member, rel_tol)

        monkeypatch.setattr(quadrature, "_level_value", spy)
        chirps = (5.0, 0.1)
        specs = [IntegrandSpec(SparsePolynomial(2, {
            (2, 0): -(1 - 1j * c), (0, 2): -1}), AlphaOne()) for c in chirps]
        tol = 1e-10
        batch = integrate(specs, self.PLANE, tol)
        assert nested == [1]
        assert _bits(batch) == _bits([integrate(s, self.PLANE, tol)
                                      for s in specs])
        for c, (value, err) in zip(chirps, batch):
            exact = math.pi / cmath.sqrt(1 - 1j * c)
            assert abs(value - exact) <= max(tol * abs(exact), err)

    def test_grid_past_its_budget_is_not_evaluated(self, monkeypatch):
        # exp(-x^2 - y^2 - z^2 + 5 i x): its step asks for 23 intervals per
        # axis, and the 64 that the budget allows in three variables leave
        # room for one halving past 32 only, so it nests without
        # evaluating a grid
        from hypint import quadrature

        def no_grid(frames, tol):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(quadrature, "_grid_values", no_grid)
        P = SparsePolynomial(3, {(2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1,
                                 (1, 0, 0): 5j})
        tol, exact = 1e-9, math.pi ** 1.5 * math.exp(-25 / 4)
        value, err = integrate(IntegrandSpec(P, AlphaOne()),
                               ProductContour([[Line(0.0)]] * 3), tol)
        assert abs(value - exact) <= max(tol * exact, err)

    @pytest.fixture
    def no_grid(self, monkeypatch):
        from hypint import quadrature

        def no_grid(frames, tol):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(quadrature, "_grid_values", no_grid)

    GAUSSIAN = SparsePolynomial(2, {(2, 0): -1, (0, 2): -1})

    def test_monomial_weight_nests(self, no_grid):
        # x^2 exp(-x^2 - y^2) over the plane is pi / 2: a weight t^rho
        # takes the nested levels
        tol, exact = 1e-10, math.pi / 2
        value, err = integrate(IntegrandSpec(self.GAUSSIAN,
                                             AlphaMonomial((3, 1))),
                               self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    def test_power_product_weight_nests(self, no_grid):
        # (1 + x + y)^2 exp(-x^2 - y^2) over the plane is 2 pi: a factor
        # P_i^v takes the nested levels
        tol, exact = 1e-10, 2 * math.pi
        factor = SparsePolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        value, err = integrate(
            IntegrandSpec(self.GAUSSIAN,
                          AlphaPowerProduct([factor], [2], (1, 1))),
            self.PLANE, tol)
        assert abs(value - exact) <= max(tol * exact, err)

    def test_unit_monomial_takes_the_grid(self, monkeypatch):
        # t^(u - 1) with u = 1 is no weight: the grid, bit for bit as for
        # exp(P) alone
        from hypint import quadrature
        grid = quadrature._grid_values
        calls = []

        def spy(frames, tol):
            calls.append(len(frames))
            return grid(frames, tol)

        monkeypatch.setattr(quadrature, "_grid_values", spy)
        P = SparsePolynomial(2, {(2, 0): -1.2, (1, 1): 0.4, (0, 2): -0.9,
                                 (1, 0): 0.3 + 0.2j})
        ones = [integrate(IntegrandSpec(P, alpha), self.PLANE, 1e-10)
                for alpha in (AlphaOne(), AlphaMonomial((1, 1)))]
        assert calls == [1, 1]
        assert _bits(ones[:1]) == _bits(ones[1:])


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

    @pytest.mark.parametrize("u", [[1.5, -0.5], [1.5, 0.0]])
    def test_nonintegrable_weight_at_zero_rejected(self, u):
        # t2^(u2 - 1) with Re u2 <= 0 on a ray from 0, in two variables
        P = SparsePolynomial(2, {(1, 0): -1, (0, 1): -1})
        c = ProductContour([[Ray(0, 0)], [Ray(0, 0)]],
                           {("t", 1): 0, ("t", 2): 0})
        with pytest.raises(ValueError, match=r"u\[1\]"):
            gg_eval(P, u, c, 1e-8)

    @pytest.mark.parametrize("leg", [Ray(1e-250, 0.0), Segment(1e-250, 1)],
                             ids=["ray", "segment"])
    def test_weight_past_the_double_range(self, leg):
        # t^-1.5 near a start at 1e-250 exceeds the largest double: a
        # numeric error, reported without a floating-point warning
        import warnings
        contour = ProductContour([[leg]], {("t", 1): 0.0})
        spec = IntegrandSpec(SparsePolynomial(1, {(1,): -1}),
                             AlphaMonomial(-0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="not finite") as info:
                integrate(spec, contour, 1e-9)
        assert type(info.value) is QuadratureError

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


class TestBranchTracker:
    """The argument of a factor P_i continued along a leg: refined where it
    turns fast, and an error where it cannot be continued."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_refines_next_to_a_zero(self, monkeypatch, tol):
        # (t - a)^(1/2) with a = 0.5 + 0.003i: the argument of t - a turns
        # by nearly pi within 0.01 of t = 0.5, so the tracker's grid of 129
        # samples is refined there
        import mpmath
        from hypint import quadrature
        sizes = []

        class Spy(quadrature._BranchTracker):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append(self.keys.size)

        monkeypatch.setattr(quadrature, "_BranchTracker", Spy)
        a = 0.5 + 0.003j
        P = SparsePolynomial(1, {(0,): -a, (1,): 1})
        contour = ProductContour([[Segment(0, 1)]],
                                 {("P", 1): cmath.phase(-a)})
        with mpmath.workdps(30):
            exact = complex(mpmath.quad(
                lambda t: mpmath.sqrt(t - mpmath.mpc(a.real, a.imag)),
                [0, 0.5, 1]))
        value, err = integrate(IntegrandSpec(SparsePolynomial.zero(1),
                                             AlphaPowerProduct([P], [0.5], 1)),
                               contour, tol)
        assert abs(value - exact) <= max(tol * abs(exact), err)
        assert sizes and min(sizes) > 129

    @pytest.mark.parametrize("terms, v, message", [
        # t - 0.5 changes sign at 0.5: the jump of pi in its argument is no
        # turn that any refinement resolves
        ({(0,): -0.5, (1,): 1}, 0.5, "branch tracking failed .* factor P1"),
        # (t - 0.5)^2 keeps its argument but vanishes at 0.5
        ({(0,): 0.25, (1,): -1, (2,): 1}, 0.25, "factor P1 vanishes"),
    ])
    def test_factor_through_zero_raises(self, terms, v, message):
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): math.pi})
        spec = IntegrandSpec(SparsePolynomial.zero(1), AlphaPowerProduct(
            [SparsePolynomial(1, terms)], [v], 1))
        with pytest.raises(QuadratureError, match=message):
            integrate(spec, contour, 1e-8)


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

    @pytest.mark.parametrize("leg, exact", [
        (Ray(0, 0.0, orientation=-1), -SQRT_PI),
        (Segment(0, 1, orientation=-1), -SQRT_PI * math.erf(1)),
        (Segment(1, 0, orientation=-1), SQRT_PI * math.erf(1))],
        ids=["ray", "segment", "segment-declared-from-1"])
    def test_reversed_leg_keeps_its_singular_start(self, leg, exact):
        # t^(-1/2) e^(-t) on a leg with an end at the singular 0, which is
        # mapped to tau = 0 whichever way the leg runs, so no GK15 node
        # rounds onto it: -Gamma(1/2) and -/+gamma(1/2, 1), bit for bit
        # the negated forward leg (for Segment(1, 0), one that ends at 0)
        P = SparsePolynomial(1, {(1,): -1})
        tol = 1e-10
        spec = IntegrandSpec(P, AlphaMonomial(0.5))
        value, err = integrate(spec, ProductContour([[leg]], {("t", 1): 0.0}),
                               tol)
        assert abs(value - exact) <= max(tol * abs(exact), err)
        forward = replace(leg, orientation=1)
        assert _bits([(-value, err)]) == _bits([integrate(
            spec, ProductContour([[forward]], {("t", 1): 0.0}), tol)])

    @pytest.mark.parametrize("leg, u", [(Line(0.2), 3),
                                        (Ray(0.5, 0.4), 1.3 + 0.2j),
                                        (Ray(0, 0.4), 0.3 + 0.2j),
                                        (Arc(0, 1.5, 0.1, 1.3), 1.3 + 0.2j),
                                        (Arc(0.5, 0.5, 0.0, math.pi), 0.5)],
                             ids=["line", "ray", "ray-from-0", "arc",
                                  "arc-to-0"])
    def test_reversed_leg_negates_bit_for_bit(self, leg, u):
        # the path of a reversed leg is the forward one; only the sign of
        # its derivative changes, and on the Ray and the Arcs the branch of
        # t^(u - 1) is continued from the reversed leg's own start.  The
        # last Arc ends at the singular 0, tau = 0 in both orientations
        P = SparsePolynomial(1, {(2,): -1, (1,): 0.3j})
        spec = IntegrandSpec(P, AlphaMonomial(u))
        branch = {("t", 1): 0.0}
        forward = integrate(spec, ProductContour([[leg]], branch), 1e-10)
        reversed_leg = replace(leg, orientation=-1)
        if isinstance(leg, Arc):
            # the argument at the end of the forward arc starts the reversed
            # one (it is pi/2 into 0, in the winding of angle_end = pi)
            branch = {("t", 1): leg.angle_end}
        value, err = integrate(spec, ProductContour([[reversed_leg]], branch),
                               1e-10)
        assert _bits([(-value, err)]) == _bits([forward])

    @pytest.mark.parametrize("orientation", [1, -1])
    def test_arc_from_0(self, orientation):
        # t^(-1/2) e^(-t) on the upper half circle from 0 to 1, whose start
        # c + r e^(i pi) rounds to 6.1e-17i, not 0: gamma(1/2, 1), and its
        # negative on the reversed arc, which starts at 1 with argument 0
        import mpmath
        arc = Arc(0.5, 0.5, math.pi, 0.0, orientation=orientation)
        branch = {("t", 1): math.pi / 2 if orientation == 1 else 0.0}
        spec = IntegrandSpec(SparsePolynomial(1, {(1,): -1}),
                             AlphaMonomial(0.5))
        expected = orientation * float(mpmath.gammainc(0.5, 0, 1))
        tol = 1e-10
        value, err = integrate(spec, ProductContour([[arc]], branch), tol)
        assert abs(value - expected) <= max(tol * abs(expected), err)

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


class TestExpSinhRays:
    """Calibration of exp-sinh on a Ray from 0 under a weight t^(u - 1)
    with u not an integer, every other factor entire: the real error stays
    within max(tol * |value|, the reported estimate)."""

    @staticmethod
    def check(spec, contour, tol, expected):
        value, err = integrate(spec, contour, tol)
        assert abs(value - expected) <= max(tol * abs(expected), err)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("u", [0.05, 0.1, 0.3, 0.5, 0.3 + 0.5j, 1.5, 2.52])
    def test_gamma(self, u, c, tol):
        # exp(-c t) t^(u - 1): Gamma(u) c^-u
        import mpmath
        expected = complex(mpmath.gamma(u) * mpmath.power(c, -u))
        spec = IntegrandSpec(SparsePolynomial(1, {(1,): -c}), AlphaMonomial(u))
        self.check(spec, POSITIVE_RAY, tol, expected)

    def test_rotated_ray_with_branch_data(self):
        # exp(-c t) t^(u - 1) on the ray at angle 0.6, with the argument of
        # t taken one turn up: e^(2 pi i u) Gamma(u) c^-u, since Re(c t)
        # stays positive as the ray turns onto the positive one
        import mpmath
        u, c = 0.3 + 0.2j, 1.3 - 0.4j
        contour = ProductContour([[Ray(0, 0.6)]],
                                 {("t", 1): 0.6 + 2 * math.pi})
        expected = complex(mpmath.exp(2j * mpmath.pi * u) * mpmath.gamma(u)
                           * mpmath.power(c, -u))
        spec = IntegrandSpec(SparsePolynomial(1, {(1,): -c}), AlphaMonomial(u))
        self.check(spec, contour, 1e-10, expected)

    TWO_RAYS = ProductContour([[Ray(0, 0)], [Ray(0, 0)]],
                              {("t", 1): 0, ("t", 2): 0})

    def test_two_dimensional_singular_gamma(self):
        P = SparsePolynomial(2, {(1, 0): -1, (0, 1): -1})
        self.check(IntegrandSpec(P, AlphaMonomial((0.1, 0.3))), self.TWO_RAYS,
                   1e-8, math.gamma(0.1) * math.gamma(0.3))

    def test_two_dimensional_coupled_weights(self):
        # exp(-t1 - t2 - t1 t2) t1^(-1/2) t2^(-0.7): the inner integral is
        # Gamma(0.3) (1 + t1)^-0.3, so Gamma(0.3) Gamma(1/2) U(1/2, 1.2, 1)
        import mpmath
        P = SparsePolynomial(2, {(1, 0): -1, (0, 1): -1, (1, 1): -1})
        expected = float(mpmath.gamma(0.3) * mpmath.gamma(0.5)
                         * mpmath.hyperu(0.5, 1.2, 1))
        self.check(IntegrandSpec(P, AlphaMonomial((0.5, 0.3))), self.TWO_RAYS,
                   1e-8, expected)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_peak_far_along_the_ray(self, tol):
        # exp(-(t - 30)^2) t^(-1/2): the range starts at the last scan
        # radius below the peak's band, not at the formula's x_min
        import mpmath
        P = SparsePolynomial(1, {(2,): -1, (1,): 60, (0,): -900})
        with mpmath.workdps(30):
            expected = float(mpmath.quad(
                lambda t: mpmath.exp(-(t - 30) ** 2) / mpmath.sqrt(t),
                [15, 25, 30, 35, 45]))
        self.check(IntegrandSpec(P, AlphaMonomial(0.5)), POSITIVE_RAY, tol,
                   expected)

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_peak_far_along_the_ray_past_a_singular_start(self, tol):
        # exp(-(4/900) t^2 (t - 30)^2) t^(-1/2) is as tall at t = 30, with
        # width 1/2, as next to 0, so the range starts from the formula's
        # x_min; with the scan's slopes not carried over to x, the 17- and
        # 33-point grids both step over the peak and agree on 11 % too
        # little, and GK15's starting panels in x miss it as well
        import mpmath
        k = 4 / 900
        P = SparsePolynomial(1, {(4,): -k, (3,): 60 * k, (2,): -900 * k})
        root = math.sqrt(30)
        with mpmath.workdps(30):
            # t = s^2 takes the singular weight away
            expected = float(mpmath.quad(
                lambda s: 2 * mpmath.exp(-k * s ** 4 * (s * s - 30) ** 2),
                [0, 1, root - 0.2, root, root + 0.2, 2 * root]))
        self.check(IntegrandSpec(P, AlphaMonomial(0.5)), POSITIVE_RAY, tol,
                   expected)

    def test_singular_start_takes_the_trapezoid(self, monkeypatch):
        # the u = 0.1 stencil of the benchmark's ray check: no GK15 panel,
        # under 300 points per member, and Gamma(0.1) at its centre
        from hypint import quadrature
        gk15, adaptive = quadrature._gk15, quadrature.adaptive_quadrature
        panels, points = [], []

        def gk15_spy(*args):
            panels.append(len(args[2]))
            return gk15(*args)

        def counting(f, *args, **kwargs):
            def counted(x):
                points.append(len(x))
                return f(x)
            return adaptive(counted, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_gk15", gk15_spy)
        monkeypatch.setattr(quadrature, "adaptive_quadrature", counting)
        specs = [IntegrandSpec(SparsePolynomial(1, {(1,): -1.0 + d}),
                               AlphaMonomial(0.1)) for d in (-1e-4, 0.0, 1e-4)]
        results = integrate(specs, POSITIVE_RAY, 1e-9)
        assert panels == [] and sum(points) < 300 * len(specs)
        assert abs(results[1][0] - math.gamma(0.1)) <= 1e-9 * math.gamma(0.1)

    def test_system_check_on_the_singular_ray(self):
        # the benchmark's u = 0.1 ray check: every residual passes and the
        # centre value lies within 1e-9 of Gamma(0.1)
        from hypint.lattice import ExponentSet
        from hypint.polynomials import CoeffVar
        from hypint.verify import CoeffFunction, check_gg_system
        exponents = ExponentSet(1, [1])
        f = CoeffFunction.from_gg_quadrature(exponents, (0.1,), POSITIVE_RAY,
                                             1e-9)
        reports = check_gg_system(exponents, (0.1,), {(1,): -1.0}, f=f,
                                  quad_tol=1e-9)
        assert reports and all(r.passed for r in reports)
        centre = f({CoeffVar(0, (1,)): -1.0})
        assert abs(centre - math.gamma(0.1)) <= 1e-9


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
        # a Line over two rays nests: two Lines would take one grid
        contour = ProductContour([[Line(0.0)], TestProperIntegral.SPLIT_LINE])
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
