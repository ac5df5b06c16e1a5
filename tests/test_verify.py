import cmath
import math

import mpmath as mp
import pytest

from hypint.lattice import Base, ExponentSet
from hypint.operators import (DiffOperator, euler_t_operator,
                              gg_relation_operator)
from hypint.polynomials import CoeffVar, SparsePolynomial
from hypint import verify
from hypint.quadrature import (AccuracyError, IntegrandSpec, Line,
                               ProductContour, Ray, Segment)
from hypint.series import gg_series
from hypint.verify import (CoeffFunction, RootContinuation,
                           check_cayley_consistency, check_gg_system,
                           check_jacobian_case, check_root_theorems, fd_apply,
                           residual_report, series_vs_oracle)

A12 = ExponentSet(1, [1, 2])
REAL_LINE = ProductContour([[Line(0.0)]])
UNIT_SEGMENT = ProductContour([[Segment(0, 1)]])

C1 = CoeffVar(0, (1,))
C2 = CoeffVar(0, (2,))


class TestFdApply:
    def test_first_derivative_of_square(self):
        f = CoeffFunction((C1,), lambda a: a[C1] ** 2)
        value = fd_apply(DiffOperator([((), ((C1, 1),), 1)]), f,
                         {C1: 1.0}, h=1e-4)
        assert abs(value - 2.0) < 1e-7

    def test_euler_on_pure_power(self):
        # c1 D1 + 2 c2 D2 + 1 annihilates sqrt(pi/-c2) at c1 = 0
        f = CoeffFunction(
            (C1, C2),
            lambda a: cmath.sqrt(cmath.pi / (-a[C2]))
            * cmath.exp(-a[C1] ** 2 / (4 * a[C2])))
        op = euler_t_operator(A12, 1, 1)
        value = fd_apply(op, f, {C1: 0.0, C2: -1.0}, h=1e-5)
        assert abs(value) < 1e-6

    def test_heat_relation_against_quadrature(self):
        f = CoeffFunction.from_gg_quadrature(A12, 1, REAL_LINE, 1e-12)
        op = gg_relation_operator(2, A12)
        value = fd_apply(op, f, {C1: 0.3, C2: -1.0}, h=1e-3)
        scale = abs(f({C1: 0.3 + 0j, C2: -1.0 + 0j}))
        assert abs(value) / scale < 1e-4

    def test_richardson_removes_leading_error(self):
        f = CoeffFunction.gaussian_quadratic()
        op = gg_relation_operator(2, A12)
        center = {C1: 0.3, C2: -1.0}
        plain = abs(fd_apply(op, f, center, h=1e-2))
        refined = abs(fd_apply(op, f, center, h=1e-2, richardson=1))
        assert refined < plain / 50

    def test_default_step_scales_with_center(self):
        calls = []

        def probe(a):
            calls.append(a[C1])
            return a[C1] ** 2

        f = CoeffFunction((C1,), probe)
        fd_apply(DiffOperator([((), ((C1, 1),), 1)]), f, {C1: 100.0})
        spread = max(abs(c - 100.0) for c in calls)
        assert spread == pytest.approx(100.0 * 1e-4, rel=1e-12)


class TestGgSystemChecks:
    def test_closed_form_gaussian_all_pass_tight(self):
        f = CoeffFunction.gaussian_quadratic()
        reports = check_gg_system(A12, 1, {(1,): 0.3, (2,): -1.0}, f=f,
                                  h=1e-4, tol=1e-6)
        assert {r.label for r in reports} == \
            {"heat[2]", "box[2, -1]", "euler_t[1]"}
        assert all(r.passed for r in reports)

    def test_second_order_law_in_extended_precision(self):
        with mp.workdps(40):
            center = {(1,): mp.mpc(0.3), (2,): mp.mpc(-1.0)}
            h = mp.mpf("1e-4")
            coarse = check_gg_system(A12, 1, center,
                                     f=CoeffFunction.gaussian_quadratic(True),
                                     h=h, tol=1e-4)
            fine = check_gg_system(A12, 1, center,
                                   f=CoeffFunction.gaussian_quadratic(True),
                                   h=h / 2, tol=1e-4)
        for a, b in zip(coarse, fine):
            assert 3.5 < a.relative / b.relative < 4.5

    def test_quadrature_backed_gaussian(self):
        reports = check_gg_system(A12, 1, {(1,): 0.3, (2,): -1.0},
                                  contour=REAL_LINE, h=1e-3, tol=1e-4,
                                  quad_tol=1e-12)
        assert all(r.passed for r in reports)

    def test_single_exponent_euler_only(self):
        A = ExponentSet(1, [1])
        ray = ProductContour([[Ray(0, 0.0)]])
        reports = check_gg_system(A, 1, {(1,): -1.0}, contour=ray,
                                  tol=1e-6, quad_tol=1e-12)
        assert [r.label for r in reports] == ["euler_t[1]"]
        assert reports[0].passed

    def test_cubic_set_on_bent_contour(self):
        A = ExponentSet(1, [1, 2, 3])
        bent = ProductContour([[Ray(0, 2 * math.pi / 3, orientation=-1),
                                Ray(0, 0.0)]])
        reports = check_gg_system(A, 1, {(1,): 0.2, (2,): 0.0, (3,): -1.0},
                                  contour=bent, h=2e-3, tol=1e-3,
                                  quad_tol=1e-13)
        labels = {r.label for r in reports}
        assert "heat[3]" in labels and "euler_t[1]" in labels
        for r in reports:
            assert r.passed, (r.label, r.relative)

    def test_perturbed_parameter_fails(self):
        f = CoeffFunction.gaussian_quadratic()
        reports = check_gg_system(A12, 1, {(1,): 0.3, (2,): -1.0}, f=f,
                                  h=1e-4, tol=1e-4, operator_u=1.5)
        euler = [r for r in reports if r.label == "euler_t[1]"][0]
        assert not euler.passed and euler.relative > 1e-2


class TestCayleyChecks:
    def test_log_kernel_euler_operators(self):
        P1 = SparsePolynomial(1, {(0,): 1.0, (1,): -0.5})
        f_value = (math.log(1.0) - math.log(0.5)) / 0.5
        assert f_value == pytest.approx(2 * math.log(2))
        reports = check_cayley_consistency([P1], [-1.0], [1.0], UNIT_SEGMENT,
                                           tol=1e-5, quad_tol=1e-12)
        by_label = {r.label: r for r in reports}
        assert by_label["euler_y[1]"].passed
        assert by_label["euler_t[1]"].passed
        assert "boundary-corrected" in by_label["euler_t[1]"].note

    def test_quadratic_polynomial_weight(self):
        P = SparsePolynomial(1, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
        reports = check_cayley_consistency([P], [1.0], [1.0], UNIT_SEGMENT,
                                           tol=1e-4, quad_tol=1e-12)
        by_label = {r.label: r for r in reports}
        assert by_label["mixed[1:2]"].passed
        assert by_label["box[1, -2, 1]"].passed
        assert by_label["euler_y[1]"].passed

    def test_reciprocal_quadratic_weight(self):
        P = SparsePolynomial(1, {(0,): 1.0, (1,): 0.5, (2,): 0.25})
        reports = check_cayley_consistency([P], [-1.0], [1.0], UNIT_SEGMENT,
                                           tol=1e-4, quad_tol=1e-12)
        assert all(r.passed for r in reports)

    def test_constant_block_pure_power(self):
        P = SparsePolynomial(1, {(0,): 2.0})
        contour = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})
        reports = check_cayley_consistency([P], [0.75], [1.0], contour,
                                           tol=1e-8, quad_tol=1e-12)
        by_label = {r.label: r for r in reports}
        assert by_label["euler_y[1]"].passed

    def test_two_blocks_cross_relations(self):
        # bilinear kernel (1 - t)(0.7 + t) on [0, 1]: the joined-set box
        # relation mixes derivatives across the two blocks, and the weight
        # vanishes at both endpoints so the t-homogeneity needs no correction
        P1 = SparsePolynomial(1, {(0,): 1.0, (1,): -1.0})
        P2 = SparsePolynomial(1, {(0,): 0.7, (1,): 1.0})
        reports = check_cayley_consistency([P1, P2], [1.0, 1.0], [1.0],
                                           UNIT_SEGMENT, tol=1e-6,
                                           quad_tol=1e-12)
        by_label = {r.label: r for r in reports}
        assert by_label["box[1, -1, -1, 1]"].passed
        assert by_label["euler_y[1]"].passed
        assert by_label["euler_y[2]"].passed
        assert by_label["euler_t[1]"].passed
        assert by_label["euler_t[1]"].note == ""

    def test_perturbed_block_parameter_fails(self):
        P1 = SparsePolynomial(1, {(0,): 1.0, (1,): -0.5})
        reports = check_cayley_consistency([P1], [-1.0], [1.0], UNIT_SEGMENT,
                                           tol=1e-5, quad_tol=1e-12,
                                           operator_v=[-0.5])
        by_label = {r.label: r for r in reports}
        assert not by_label["euler_y[1]"].passed

    @pytest.mark.parametrize("operator_v", [[], [-1.0, -1.0]])
    def test_operator_v_needs_one_entry_per_block(self, operator_v):
        P1 = SparsePolynomial(1, {(0,): 1.0, (1,): -0.5})
        with pytest.raises(ValueError, match="per block"):
            check_cayley_consistency([P1], [-1.0], [1.0], UNIT_SEGMENT,
                                     operator_v=operator_v)

    def test_bounded_chains_in_two_variables_skip_euler_t(self):
        P = SparsePolynomial(2, {(0, 0): 1.0, (1, 0): 0.1, (0, 1): 0.2})
        square = ProductContour([[Segment(0, 1)], [Segment(0, 1)]])
        reports = check_cayley_consistency([P], [-1.0], [1.0, 1.0], square,
                                           tol=1e-5, quad_tol=1e-10)
        assert [r.label for r in reports] == \
            ["euler_y[1]", "euler_t[1]", "euler_t[2]"]
        assert reports[0].passed and math.isfinite(reports[0].residual)
        for r in reports[1:]:
            assert r.passed and math.isnan(r.residual)
            assert r.note.startswith("skipped:")


class TestBatchedStencils:
    """A check evaluates all its quadrature stencil points in one
    integrate call and reports exactly what the per-point path reports."""

    RAY = ProductContour([[Ray(0, 0.0)]], {("t", 1): 0.0})
    POWER_SEGMENT = ProductContour([[Segment(0, 1)]], {("P", 1): 0.0})

    @staticmethod
    def run_both(monkeypatch, check):
        """(batched reports, per-point reports, integrate batch sizes of
        the batched run, integrate calls of the per-point run)."""
        sizes = []
        real = verify.integrate

        def counting(spec, contour, tol=1e-9):
            sizes.append(1 if isinstance(spec, IntegrandSpec) else len(spec))
            return real(spec, contour, tol)

        monkeypatch.setattr(verify, "integrate", counting)
        batched = check()
        batched_sizes = list(sizes)
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(verify, "_takes_batches", lambda fn: fn)
            lazy = check()
        return batched, lazy, batched_sizes, len(sizes)

    @pytest.mark.parametrize("check", [
        lambda: check_gg_system(A12, 1, {(1,): 0.3 + 0.1j, (2,): -1.1},
                                contour=REAL_LINE, quad_tol=1e-10),
        lambda: check_gg_system(ExponentSet(1, [1]), 0.62, {(1,): -1.0},
                                contour=TestBatchedStencils.RAY, quad_tol=1e-10,
                                operator_u=0.7),
        lambda: check_gg_system(ExponentSet(1, [1]), 0.1, {(1,): -1.0},
                                contour=TestBatchedStencils.RAY, quad_tol=1e-9),
        lambda: check_cayley_consistency(
            [SparsePolynomial(1, {(0,): 1.2, (1,): -0.4})], [0.73], [2.0],
            TestBatchedStencils.POWER_SEGMENT, quad_tol=1e-10),
        lambda: check_cayley_consistency(
            [SparsePolynomial(1, {(0,): 1.0, (1,): -1.0}),
             SparsePolynomial(1, {(0,): 0.7, (1,): 1.0})], [1.0, 1.0], [1.0],
            UNIT_SEGMENT, tol=1e-6, quad_tol=1e-12),
        # the euler_t rows are skipped and add no points
        lambda: check_cayley_consistency(
            [SparsePolynomial(2, {(0, 0): 1.0, (1, 0): 0.1, (0, 1): 0.2})],
            [-1.0], [1.0, 1.0],
            ProductContour([[Segment(0, 1)], [Segment(0, 1)]]), quad_tol=1e-8),
    ])
    def test_one_integrate_call_same_reports(self, monkeypatch, check):
        batched, lazy, sizes, lazy_calls = self.run_both(monkeypatch, check)
        assert [repr(r) for r in batched] == [repr(r) for r in lazy]
        # one call whose members are the distinct points looked up one by one
        assert sizes == [lazy_calls] and lazy_calls > 1

    def test_accuracy_error_in_the_stencil(self, monkeypatch):
        # t^(0.02 - 1) at the ray's end: every point exhausts its bisections
        def check():
            return check_gg_system(ExponentSet(1, [1]), 0.02, {(1,): -1.0},
                                   contour=self.RAY, quad_tol=1e-9)

        with monkeypatch.context() as m:
            m.setattr(verify, "_takes_batches", lambda fn: fn)
            with pytest.raises(AccuracyError) as lazy:
                check()
        with pytest.raises(AccuracyError) as batched:
            check()
        assert str(batched.value) == str(lazy.value)
        assert batched.value.value == lazy.value.value

    def test_prefetch_keeps_each_points_outcome(self, monkeypatch):
        # c1 = 2e5 i oscillates past the interval budget; the other points
        # converge, and no point is integrated a second time
        f = CoeffFunction.from_gg_quadrature(ExponentSet(1, [1]), 1,
                                             UNIT_SEGMENT, 1e-10)
        points = [{C1: c1} for c1 in (1j, 2e5j, -2.0 + 3j)]
        alone = []
        for point in points:
            try:
                alone.append(f.fn(point))
            except AccuracyError as exc:
                alone.append(exc)
        calls = []
        real = verify.integrate

        def counting(spec, contour, tol=1e-9):
            calls.append(spec)
            return real(spec, contour, tol)

        monkeypatch.setattr(verify, "integrate", counting)
        f.prefetch(points)
        assert len(calls) == 1
        for point, want in zip(points, alone):
            if isinstance(want, AccuracyError):
                with pytest.raises(AccuracyError) as got:
                    f(point)
                assert (str(got.value), got.value.value) == (str(want), want.value)
            else:
                assert f(point) == want
        assert len(calls) == 1

    def test_per_point_functions_stay_lazy(self):
        gauss = CoeffFunction.gaussian_quadratic()
        calls = []

        def fn(assignment):
            assert isinstance(assignment, dict)
            calls.append(tuple(assignment[v] for v in (C1, C2)))
            return gauss.fn(assignment)

        f = CoeffFunction((C1, C2), fn, name="counted")
        f.prefetch([{C1: 0.3, C2: -1.0}])
        assert calls == []
        reports = check_gg_system(A12, 1, {(1,): 0.3, (2,): -1.0}, f=f)
        assert all(r.passed for r in reports)
        assert len(calls) == len(set(calls)) > 1
        # the reports look the same points up again, from the cache
        assert [repr(r) for r in check_gg_system(
            A12, 1, {(1,): 0.3, (2,): -1.0}, f=f)] == [repr(r) for r in reports]
        assert len(calls) == len(set(calls))


class TestRootTheorems:
    def test_root_matches_quadratic_formula(self):
        P0 = SparsePolynomial(1, {(1,): 1.0, (2,): 0.1})
        _, cont = check_root_theorems(P0, 1.0, omega=2)
        formula = 2 * (-1.0) / (-1.0 - math.sqrt(1 + 0.4))
        assert abs(cont.x0 - formula) < 1e-12

    def test_continuation_tracks_formula(self):
        cont = RootContinuation({0: -1.0, 1: 1.0, 2: 0.1}, 0.9)
        for c2 in (0.2, 0.3, -0.1):
            x = cont.root_at({0: -1.0, 1: 1.0, 2: c2})
            formula = 2 * (-1.0) / (-1.0 - cmath.sqrt(1 + 4 * c2))
            assert abs(x - formula) < 1e-12

    def test_mixed_relation_and_tightening(self):
        P0 = SparsePolynomial(1, {(1,): 1.0, (2,): 0.1})
        coarse, _ = check_root_theorems(P0, 1.0, gamma=lambda x: x * x,
                                        omega=2, h=1e-3, tol=1e-3)
        fine, _ = check_root_theorems(P0, 1.0, gamma=lambda x: x * x,
                                      omega=2, h=5e-4, tol=1e-3)
        by_label = {r.label: r for r in coarse}
        assert by_label["mixed[2] on x"].passed
        assert by_label["mixed[2] on gamma(x)"].passed
        assert by_label["mixed[2] on gamma(x)/P'(x)"].passed
        assert by_label["continuation[c2 +/- 0.3]"].passed
        fine_by = {r.label: r for r in fine}
        for label in ("mixed[2] on x", "mixed[2] on gamma(x)"):
            assert fine_by[label].relative < by_label[label].relative / 2.5

    def test_mixed_partials_match_implicit_differentiation(self):
        from hypint.verify import _derivative_estimate
        c0, c1, c2 = -1.0, 1.0, 0.1
        x = 2 * c0 / (-c1 - math.sqrt(c1 * c1 - 4 * c0 * c2))
        fp = c1 + 2 * c2 * x
        closed = (2 * x - 2 * c2 * x * x / fp) / fp ** 2
        cont = RootContinuation({0: c0, 1: c1, 2: c2}, x)
        v0, v1, v2 = (CoeffVar(1, (e,)) for e in (0, 1, 2))
        f = CoeffFunction((v0, v1, v2),
                          lambda a: cont.root_at({0: a[v0], 1: a[v1], 2: a[v2]}))
        center = {v0: c0, v1: c1, v2: c2}
        steps = {v0: 1e-4, v1: 1e-4, v2: 1e-4}
        d02 = _derivative_estimate(f, center, ((v0, 1), (v2, 1)), steps)
        d11 = _derivative_estimate(f, center, ((v1, 2),), steps)
        assert abs(d02 - closed) < 1e-6
        assert abs(d11 - closed) < 1e-6

    def test_root_collision_detected(self):
        # double root of t^2 - 2t + 1 at t = 1
        with pytest.raises(ValueError, match="root collision"):
            RootContinuation({0: 1.0, 1: -2.0, 2: 1.0}, 1.05)

    def test_linear_gamma_sanity(self):
        # gamma(t) = t^2 with c1 t = y0: gamma(x) = y0^2 / c1^2
        cont = RootContinuation({0: -1.0, 1: 2.0}, 0.5)
        x = cont.root_at({0: -1.0, 1: 2.0})
        assert (x * x).real == pytest.approx(0.25)


class TestJacobianCase:
    def test_identity_translation(self):
        P1 = SparsePolynomial(2, {(1, 0): 1.0, (0, 0): -1.0})
        P2 = SparsePolynomial(2, {(0, 1): 1.0, (0, 0): -2.0})
        quantity, reports = check_jacobian_case([P1, P2])
        assert quantity == pytest.approx(1.0, abs=1e-12)
        assert all(r.passed for r in reports)

    def test_scaled_row(self):
        P1 = SparsePolynomial(2, {(1, 0): 2.0, (0, 0): -2.0})
        P2 = SparsePolynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0})
        quantity, reports = check_jacobian_case([P1, P2])
        assert quantity == pytest.approx(0.5, abs=1e-12)
        assert all(r.passed for r in reports)

    def test_gamma_at_solution(self):
        P1 = SparsePolynomial(2, {(1, 0): 1.0, (0, 0): -1.0})
        P2 = SparsePolynomial(2, {(0, 1): 1.0, (0, 0): -2.0})
        quantity, _ = check_jacobian_case(
            [P1, P2], gamma=lambda x: x[0] + x[1])
        assert quantity == pytest.approx(3.0, abs=1e-12)

    def test_singular_part_rejected(self):
        P1 = SparsePolynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
        P2 = SparsePolynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 1.0})
        with pytest.raises(ValueError):
            check_jacobian_case([P1, P2])

    def test_non_affine_rejected(self):
        P1 = SparsePolynomial(2, {(2, 0): 1.0})
        P2 = SparsePolynomial(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            check_jacobian_case([P1, P2])


class TestSeriesVsOracle:
    def test_linear_base_small_points(self):
        series = gg_series(A12, Base(A12, (0,)), 1, 12)
        ray = ProductContour([[Ray(0, 0.0)]])
        points = [{1: -1.0, 2: c2} for c2 in (-0.001, -0.002, -0.004, -0.008)]
        report = series_vs_oracle(series, ray, points, u=1, quad_tol=1e-12)
        assert abs(report.kappa - 1.0) < 1e-9
        assert report.max_deviation < 1e-6
        assert report.kappa_refit_delta < 1e-6
        assert len(report.comparisons) == 3 and not report.skipped

    def test_tail_gate_skips_wild_points(self):
        series = gg_series(A12, Base(A12, (0,)), 1, 12)
        ray = ProductContour([[Ray(0, 0.0)]])
        points = [{1: -1.0, 2: -0.001}, {1: -1.0, 2: -0.25}]
        report = series_vs_oracle(series, ray, points, u=1, quad_tol=1e-12)
        assert len(report.skipped) == 1
        assert report.skipped[0][0][2] == -0.25

    def test_points_whose_value_is_not_finite_are_skipped(self):
        # at a1 = -1e-300 the powers (-a1)**(-1 - 2m) overflow and the sum
        # is nan, whose tail no gate comparison would reject
        series = gg_series(A12, Base(A12, (0,)), 1, 12)
        ray = ProductContour([[Ray(0, 0.0)]])
        points = [{1: -1.0, 2: -0.001}, {1: -1e-300, 2: 1.0},
                  {1: -1.0, 2: -0.002}]
        report = series_vs_oracle(series, ray, points, u=1, quad_tol=1e-12)
        assert [s[0] for s in report.skipped] == [points[1]]
        assert "not finite" in report.skipped[0][2]
        assert len(report.comparisons) == 1
        assert report.max_deviation < 1e-6

    def test_standard_expansion_against_closed_form(self):
        A1 = ExponentSet(1, [1])
        P0 = SparsePolynomial(1, {(2,): -1})

        def moments(m):
            k = m[0]
            return 0.0 if k % 2 else math.gamma((k + 1) / 2)

        from hypint.series import standard_expansion
        series = standard_expansion(P0, A1, moments, 20)
        points = [{1: a} for a in (0.0, 0.3, 0.6)]
        report = series_vs_oracle(series, REAL_LINE, points, center=P0,
                                  quad_tol=1e-12)
        assert abs(report.kappa - 1.0) < 1e-10
        assert report.max_deviation < 1e-8

    def test_all_points_skipped_is_an_error(self):
        series = gg_series(A12, Base(A12, (0,)), 1, 12)
        ray = ProductContour([[Ray(0, 0.0)]])
        with pytest.raises(ValueError):
            series_vs_oracle(series, ray, [{1: -1.0, 2: -0.5}], u=1)


class TestDerivativeTransferRecipes:
    """Differentiating under the integral: a coefficient derivative of the
    integral equals the integral with the monomial-shifted weight."""

    def test_coefficient_derivative_shifts_the_weight(self):
        from hypint.quadrature import gg_eval
        from hypint.verify import _derivative_estimate
        f = CoeffFunction.from_gg_quadrature(A12, 1, REAL_LINE, 1e-12)
        center = {C1: 0.3 + 0j, C2: -1.0 + 0j}
        steps = {C1: 1e-4, C2: 1e-4}
        P = SparsePolynomial(1, {(1,): 0.3, (2,): -1.0})
        # d/dc2 brings down t^2: the weight becomes t^(3-1)
        fd = _derivative_estimate(f, center, ((C2, 1),), steps)
        direct = gg_eval(P, 3.0, REAL_LINE, 1e-12)
        assert abs(fd - direct) / abs(direct) < 1e-6

    def test_block_coefficient_derivative_lowers_the_power(self):
        from hypint.quadrature import euler_integral_eval
        from hypint.verify import _derivative_estimate
        A1 = ExponentSet(1, [0, 1])
        f = CoeffFunction.from_euler_quadrature([A1], [-1.0], [1.0],
                                                UNIT_SEGMENT, 1e-12)
        b0, b1 = CoeffVar(1, (0,)), CoeffVar(1, (1,))
        center = {b0: 1.0 + 0j, b1: -0.5 + 0j}
        steps = {b0: 1e-4, b1: 1e-4}
        P = SparsePolynomial(1, {(0,): 1.0, (1,): -0.5})
        fd = _derivative_estimate(f, center, ((b1, 1),), steps)
        direct = -euler_integral_eval([P], [-2.0], [2.0], UNIT_SEGMENT, 1e-12)
        assert abs(fd - direct) / abs(direct) < 1e-6


def test_residual_report_serialization():
    f = CoeffFunction.gaussian_quadratic()
    report = residual_report(gg_relation_operator(2, A12), f,
                             {C1: 0.3, C2: -1.0}, h=1e-4, tol=1e-4)
    data = report.to_dict()
    assert data["passed"] is True
    assert set(data) >= {"label", "operator", "center", "step", "residual",
                        "relative", "tol", "passed"}
