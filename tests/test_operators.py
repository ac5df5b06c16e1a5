from fractions import Fraction

import pytest

from hypint.exact import ExactComplex
from hypint.lattice import Base, ExponentSet, LatticeRelation, kernel_basis
from hypint.operators import (DiffOperator, apply_to_series, box_operator,
                              build_system, euler_t_operator, euler_y_operator,
                              gg_relation_operator, operator_text)
from hypint.polynomials import CoeffVar
from hypint.series import GammaSeries, GammaTerm, SeriesLayout, gg_series

A12 = ExponentSet(1, [1, 2])
A123 = ExponentSet(1, [1, 2, 3])


def cayley_vars(*sets):
    return tuple(CoeffVar(i + 1, w) for i, s in enumerate(sets) for w in s)


class TestBoxOperator:
    def test_quadratic_relation(self):
        op = box_operator(LatticeRelation(A12, (2, -1)))
        c1, c2 = CoeffVar(0, (1,)), CoeffVar(0, (2,))
        assert op.terms == {
            ((), ((c1, 2),)): ExactComplex.from_value(1),
            ((), ((c2, 1),)): ExactComplex.from_value(-1),
        }
        assert operator_text(op) == "D[c1]^2 - D[c2]"

    def test_homogeneous_cubic_relation(self):
        op = box_operator(LatticeRelation(A123, (1, -2, 1)))
        assert operator_text(op) == "D[c1]*D[c3] - D[c2]^2"

    def test_joined_set_relation(self):
        A1 = ExponentSet(1, [0, 1, 2])
        op = box_operator((1, -2, 1), cayley_vars(A1))
        assert operator_text(op) == "D[c0]*D[c2] - D[c1]^2"

    def test_zero_relation_rejected(self):
        with pytest.raises(ValueError):
            box_operator((0, 0), cayley_vars(A12))

    def test_sign_antisymmetry(self):
        u = LatticeRelation(A123, (2, -1, 0))
        w = LatticeRelation(A123, (-2, 1, 0))
        assert (box_operator(u) + box_operator(w)).is_zero()


class TestEulerOperators:
    def test_t_operator_text(self):
        op = euler_t_operator(A12, 1, 1)
        assert operator_text(op, identity_label="u1") == \
            "c1*D[c1] + 2*c2*D[c2] + u1"

    def test_t_operator_on_block_vars(self):
        A1 = ExponentSet(1, [0, 1])
        op = euler_t_operator(cayley_vars(A1), 1, 2.5)
        # only the linear exponent contributes
        assert operator_text(op) == "c1*D[c1] + 5/2"

    def test_t_operator_constant_exponent_only(self):
        op = euler_t_operator(ExponentSet(2, [(0, 0)]), 1, 0)
        assert op.is_zero()

    def test_y_operator(self):
        A1 = ExponentSet(1, [0, 1])
        op = euler_y_operator(cayley_vars(A1), 1, 0.5)
        assert operator_text(op) == "c0*D[c0] + c1*D[c1] - 1/2"

    def test_y_operator_second_block(self):
        A1 = ExponentSet(1, [0])
        A2 = ExponentSet(1, [2])
        op = euler_y_operator(cayley_vars(A1, A2), 2, 1)
        assert operator_text(op) == "c2_2*D[c2_2] - 1"

    def test_y_operator_empty_block(self):
        op = euler_y_operator((), 1, 0)
        assert op.is_zero()


class TestHeatRelations:
    def test_quadratic(self):
        op = gg_relation_operator(2, A12)
        assert operator_text(op) == "D[c2] - D[c1]^2"

    def test_mixed_two_vars(self):
        A = ExponentSet(2, [(1, 0), (0, 1), (1, 1)])
        op = gg_relation_operator((1, 1), A)
        assert operator_text(op) == "D[c1_1] - D[c0_1]*D[c1_0]"

    def test_block_form_with_constant(self):
        A1 = ExponentSet(1, [0, 1, 2])
        op = gg_relation_operator(2, A1, block=1)
        assert operator_text(op) == "D[c0]*D[c2] - D[c1]^2"

    def test_matches_box_of_unit_decomposition(self):
        op = gg_relation_operator(2, A12)
        rel = LatticeRelation(A12, (-2, 1))
        assert op == box_operator(rel)

    def test_missing_units_rejected(self):
        with pytest.raises(ValueError):
            gg_relation_operator(2, ExponentSet(1, [2, 3]))

    def test_missing_constant_rejected_in_block_form(self):
        with pytest.raises(ValueError):
            gg_relation_operator(2, ExponentSet(1, [1, 2]), block=1)

    def test_unit_exponent_gives_zero_operator(self):
        assert gg_relation_operator(1, A12).is_zero()


class TestBuildSystem:
    def test_single_set(self):
        rows = build_system([A12], 0, (1,))
        assert [r[:3] for r in rows] == [
            ("heat", (2,), "heat[2]"),
            ("box", (2, -1), "box[2, -1]"),
            ("euler_t", 1, "euler_t[1]"),
        ]
        assert [r[3] for r in rows] == [
            gg_relation_operator(2, A12),
            box_operator(LatticeRelation(A12, (2, -1))),
            euler_t_operator(A12, 1, 1),
        ]

    def test_single_set_without_units_has_no_heat_rows(self):
        rows = build_system([ExponentSet(1, [2, 3])], 0, (1,))
        assert [r[0] for r in rows] == ["box", "euler_t"]

    def test_one_block(self):
        A1 = ExponentSet(1, [0, 1, 2])
        variables = cayley_vars(A1)
        rows = build_system([A1], 1, (1,), (0.5,))
        assert [r[:3] for r in rows] == [
            ("box", (1, -2, 1), "box[1, -2, 1]"),
            ("euler_y", 1, "euler_y[1]"),
            ("heat", (2,), "mixed[1:2]"),
            ("euler_t", 1, "euler_t[1]"),
        ]
        assert [r[3] for r in rows] == [
            box_operator((1, -2, 1), variables),
            euler_y_operator(variables, 1, 0.5),
            gg_relation_operator(2, A1, block=1),
            euler_t_operator(variables, 1, 1),
        ]

    def test_two_blocks(self):
        A1, A2 = ExponentSet(1, [0, 1]), ExponentSet(1, [0, 1, 2])
        variables = cayley_vars(A1, A2)
        rows = build_system([A1, A2], 2, (1,), (-1,))
        assert [r[:3] for r in rows] == [
            ("box", (1, -1, -1, 1, 0), "box[1, -1, -1, 1, 0]"),
            ("box", (2, -2, -1, 0, 1), "box[2, -2, -1, 0, 1]"),
            ("euler_y", 1, "euler_y[1]"),
            ("euler_y", 2, "euler_y[2]"),
            ("heat", (2,), "mixed[2:2]"),
            ("euler_t", 1, "euler_t[1]"),
        ]
        # block 1 lacks the exponent 2, so only block 2 has a mixed row;
        # the missing v entry of block 2 stands for 0
        assert rows[3][3] == euler_y_operator(variables, 2, 0)
        assert rows[4][3] == gg_relation_operator(2, A2, block=2)

    def test_two_dimensional_set(self):
        A = ExponentSet(2, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
        rows = build_system([A], 0, None)
        assert [r[:3] for r in rows] == [
            ("heat", (2, 0), "heat[2,0]"),
            ("heat", (1, 1), "heat[1,1]"),
            ("heat", (0, 2), "heat[0,2]"),
            ("box", (2, 0, -1, 0, 0), "box[2, 0, -1, 0, 0]"),
            ("box", (1, 1, 0, -1, 0), "box[1, 1, 0, -1, 0]"),
            ("box", (0, 2, 0, 0, -1), "box[0, 2, 0, 0, -1]"),
            ("euler_t", 1, "euler_t[1]"),
            ("euler_t", 2, "euler_t[2]"),
        ]
        # u None: the Euler operators have no constant term
        assert rows[-1][3] == euler_t_operator(A, 2, 0)

    def test_set_count_must_match_blocks(self):
        with pytest.raises(ValueError):
            build_system([A12, A12], 0, (1,))
        with pytest.raises(ValueError):
            build_system([A12], 2, (1,))


class TestApplyToSeries:
    def setup_method(self):
        self.base = Base(A12, (0,))
        self.series = gg_series(A12, self.base, 1, 6)

    def test_series_variable_power_rule(self):
        c2 = CoeffVar(0, (2,))
        op = DiffOperator([((), ((c2, 1),), 1)])
        out = apply_to_series(op, self.series)
        by_m = {t.m: t for t in out.terms}
        # d/dc2 of the m=3 term (1/3!) gives 1/2! at m=2
        assert by_m[(2,)].scalar == ExactComplex.from_value(Fraction(1, 2))

    def test_base_variable_homogeneity(self):
        # c1 * d/dc1 multiplies each power term by its exponent
        c1 = CoeffVar(0, (1,))
        op = DiffOperator([(((c1, 1),), ((c1, 1),), 1)])
        layout = SeriesLayout(A12, self.base)
        term = GammaTerm((0,), ExactComplex.from_value(1),
                         (ExactComplex.from_value(Fraction(3, 2)),))
        single = GammaSeries(layout, 0, [term])
        out = apply_to_series(op, single)
        assert len(out.terms) == 1
        # the power is rho = -3/2, and c d/dc (-c)^rho = rho (-c)^rho
        assert out.terms[0].scalar == ExactComplex.from_value(Fraction(-3, 2))
        assert out.terms[0].args == term.args

    def test_box_annihilates_below_truncation(self):
        op = box_operator(LatticeRelation(A12, (2, -1)))
        out = apply_to_series(op, self.series)
        assert all(sum(t.m) == self.series.truncation_order for t in out.terms)
        assert len(out.terms) == 1
        assert out.complete_below == self.series.truncation_order

    def test_euler_annihilates_exactly(self):
        op = euler_t_operator(A12, 1, 1)
        out = apply_to_series(op, self.series)
        assert out.terms == ()
        assert out.complete_below == self.series.truncation_order + 1

    def test_reciprocal_form_annihilates_too(self):
        series = gg_series(A12, self.base, 1, 5, form="reciprocal")
        out = apply_to_series(box_operator(LatticeRelation(A12, (2, -1))), series)
        assert all(sum(t.m) == 5 for t in out.terms)
        out2 = apply_to_series(euler_t_operator(A12, 1, 1), series)
        assert out2.terms == ()

    def test_linearity(self):
        op = box_operator(LatticeRelation(A12, (2, -1)))
        s1 = gg_series(A12, self.base, 1, 4)
        s2 = gg_series(A12, self.base, Fraction(5, 2), 4)
        left = apply_to_series(op, s1 + s2)
        right = apply_to_series(op, s1) + apply_to_series(op, s2)
        assert left == right

    def test_variable_mismatch_rejected(self):
        other = CoeffVar(0, (7,))
        op = DiffOperator([((), ((other, 1),), 1)])
        with pytest.raises(KeyError):
            apply_to_series(op, self.series)

    def test_non_closed_form_rejected(self):
        from hypint.series import expand_general
        series = expand_general(A12, self.base, lambda m: (lambda a: 1.0), 2)
        op = euler_t_operator(A12, 1, 1)
        with pytest.raises(ValueError):
            apply_to_series(op, series)


class TestOperatorAlgebra:
    def test_equality_ignores_construction_order(self):
        c1 = CoeffVar(0, (1,))
        c2 = CoeffVar(0, (2,))
        a = DiffOperator([((), ((c1, 1),), 1), ((), ((c2, 1),), 2)])
        b = DiffOperator([((), ((c2, 1),), 2), ((), ((c1, 1),), 1)])
        assert a == b

    def test_duplicate_keys_merge(self):
        c1 = CoeffVar(0, (1,))
        op = DiffOperator([((), ((c1, 1),), 1), ((), ((c1, 1),), -1)])
        assert op.is_zero()

    def test_scalar_multiplication(self):
        op = gg_relation_operator(2, A12)
        assert (2 * op) - op == op

    def test_zero_renders_as_zero(self):
        assert operator_text(DiffOperator()) == "0"


@pytest.mark.parametrize("members, base, u, order", [
    # 2-D, base (1,1) (0,2) of determinant 2: 5456 terms at order 30
    ([(1, 0), (1, 1), (0, 2), (2, 1), (2, 2)], (1, 2),
     (0.37 + 0.21j, 1.2 - 0.4j), 30),
    # 3-D, base (0,1,0) (0,0,1) (2,0,0) of determinant 2
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 1), (0, 2, 1)],
     (1, 2, 3), (0.37 + 0.21j, Fraction(6, 5), 0.8 + 0.1j), 10),
    # 2-D, base (0,1) (1,1) of determinant 1
    ([(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)], (0, 1),
     (0.37 + 0.21j, 1.2 - 0.4j), 20),
    # 2-D, base (2,1) (1,2) of determinant 3
    ([(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)], (2, 3),
     (0.37 + 0.21j, 1.2 - 0.4j), 20),
])
def test_exact_annihilation_at_high_order(members, base, u, order):
    """Every Euler residual is empty; every box residual keeps no term
    below complete_below, which sits where the relation's series
    derivatives reach past the truncation order.  Both forms: the
    reciprocal one through its reflection signs."""
    A = ExponentSet(len(members[0]), members)
    series_idx = [i for i in range(len(members)) if i not in base]
    relations = kernel_basis(A)
    assert len(relations) == len(members) - A.dimension
    for form in ("direct", "reciprocal"):
        series = gg_series(A, Base(A, base), u, order, form=form)
        for rel in relations:
            out = apply_to_series(box_operator(rel), series)
            down = max(sum(max(sign * rel.coefficients[i], 0)
                           for i in series_idx) for sign in (1, -1))
            assert out.complete_below == order + 1 - down
            assert all(sum(t.m) >= out.complete_below for t in out.terms)
        for j in range(A.dimension):
            out = apply_to_series(euler_t_operator(A, j + 1, u[j]), series)
            assert out.terms == ()


def _reference_apply(op, series):
    """apply_to_series in ExactComplex arithmetic, one operator term on one
    series term at a time; GammaSeries merges and orders the result."""
    layout = series.layout
    reciprocal = series.form == "reciprocal"
    out = []
    for (mono, deriv), op_scalar in op.terms.items():
        for term in series.terms:
            m, args = list(term.m), list(term.args)
            scalar = term.scalar * op_scalar
            for var, p in deriv:
                if var in layout.series_vars:
                    i = layout.series_vars.index(var)
                    if m[i] < p:
                        break
                    for step in range(p):
                        scalar = scalar * (m[i] - step)
                    m[i] -= p
                else:
                    j = layout.base_vars.index(var)
                    if reciprocal and p % 2:
                        scalar = -scalar
                    args[j] = args[j] + p
            else:
                for var, p in mono:
                    if var in layout.series_vars:
                        m[layout.series_vars.index(var)] += p
                        continue
                    j = layout.base_vars.index(var)
                    for _ in range(p):
                        args[j] = args[j] - 1
                        scalar = scalar * (args[j] if reciprocal else -args[j])
                if sum(m) <= series.truncation_order:
                    out.append(GammaTerm(tuple(m), scalar, tuple(args)))
    return GammaSeries(layout, series.truncation_order, out,
                       form=series.form).terms


@pytest.mark.parametrize("form", ["direct", "reciprocal"])
def test_integer_application_matches_exact_reference(form):
    # base (2,1) (1,2) of determinant 3; two parameter vectors summed, so
    # the Gamma arguments of one multi-index do not all differ by integers
    A = ExponentSet(2, [(1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
    base = Base(A, (2, 3))
    u1, u2 = (0.37 + 0.21j, Fraction(5, 3)), (Fraction(1, 2), 1.1 - 0.3j)
    series = gg_series(A, base, u1, 5, form=form) \
        + gg_series(A, base, u2, 5, form=form)
    c10, c01, c21, c12, c22 = (CoeffVar(0, w) for w in A.members)
    ops = [box_operator(r) for r in kernel_basis(A)]
    ops += [euler_t_operator(A, 1, u1[0]), euler_t_operator(A, 2, 0.5)]
    ops.append(gg_relation_operator((2, 2), A))
    ops.append(DiffOperator([
        (((c21, 2), (c10, 1)), ((c21, 1), (c10, 3)), 0.25 - 1.5j),
        (((c12, 1),), ((c12, 2), (c22, 1)), Fraction(-7, 3)),
        ((), ((c01, 2),), 1), (((c22, 1),), (), -1)]))
    for op in ops:
        out = apply_to_series(op, series)
        assert out.terms == _reference_apply(op, series)
        # ordered by |m|, m, then the numerators and denominators of args
        keys = [(sum(t.m), t.m, [(a.re.numerator, a.re.denominator,
                                  a.im.numerator, a.im.denominator)
                                 for a in t.args]) for t in out.terms]
        assert keys == sorted(keys)
        # nonzero complex scalars and shifted arguments as input
        assert apply_to_series(ops[-1], out).terms == \
            _reference_apply(ops[-1], out)


# three (exponent set, base) pairs of the benchmark's series menu, base
# determinants 1, 2 and 4, at its order 10; two-decimal float parameters
# give s0 denominators near 2**56, against D <= 4 for the lattice part
MENU_CASES = [
    ([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], (0, 1),
     (1.37 + 0.21j, 0.84 - 0.33j)),
    ([(1, 0), (1, 1), (0, 2), (2, 1), (2, 2)], (1, 2),
     (0.56 - 0.47j, 1.93 + 0.12j)),
    ([(1, 0), (0, 1), (2, 0), (0, 2), (1, 2)], (2, 3),
     (1.08 + 0.35j, 0.29 - 0.18j)),
]


@pytest.mark.parametrize("form", ["direct", "reciprocal"])
@pytest.mark.parametrize("members, base, u", MENU_CASES)
def test_menu_applications_match_exact_reference(members, base, u, form):
    A = ExponentSet(2, members)
    series = gg_series(A, Base(A, base), u, 10, form=form)
    boxes = [box_operator(r) for r in kernel_basis(A)]
    eulers = [euler_t_operator(A, j + 1, u[j]) for j in range(2)]
    shifted = euler_t_operator(A, 1, u[0] + 0.05)
    for op in boxes + eulers + [shifted]:
        out = apply_to_series(op, series)
        assert out.terms == _reference_apply(op, series)
        if op in eulers:
            assert out.terms == ()
    # u1 + 0.05 leaves 0.05 * (the series) over the anchors' denominators,
    # whose numerators pass int64, while the box results stay in it
    out = apply_to_series(shifted, series)
    assert len(out.terms) == len(series.terms)
    assert out.lattice_form().re.dtype == object
    boxed = apply_to_series(boxes[0], series)
    assert boxed.lattice_form().re.dtype.kind == "i"
    for op in boxes:
        assert apply_to_series(op, boxed).terms == _reference_apply(op, boxed)


@pytest.mark.parametrize("order", [20, 30])
def test_sums_past_int64_match_exact_reference(order):
    # S = order! is 2**61 at 20, inside int64, and 2**108 at 30, outside
    # it; either way the sums of an application pass 2**63
    base = Base(A12, (0,))
    c1, c2 = CoeffVar(0, (1,)), CoeffVar(0, (2,))
    cubic = DiffOperator([
        (((c1, 3),), ((c1, 1), (c2, 2)), Fraction(3, 7) - 0.5j),
        (((c2, 1),), ((c1, 3),), -1)])
    for form in ("direct", "reciprocal"):
        series = gg_series(A12, base, 0.37 + 0.21j, order, form=form)
        assert (series.lattice_form().re.dtype == object) == (order == 30)
        for op in (gg_relation_operator(2, A12), cubic):
            out = apply_to_series(op, series)
            assert out.terms == _reference_apply(op, series)


def test_large_coefficients_on_vanishing_rows():
    # at order 0 every D[c2] row function is 0, so no sum can pass 2**63,
    # yet the coefficients z1**3 and z1**2 of c1**3 and c1**2 have
    # numerators far past it; the chained application starts from their
    # lattice form
    c1, c2 = CoeffVar(0, (1,)), CoeffVar(0, (2,))
    op = DiffOperator([(((c1, 3),), ((c2, 1),), 1),
                       (((c1, 2),), ((c2, 2),), 0.5j)])
    series = gg_series(A12, Base(A12, (0,)), 0.37 + 0.21j, 0)
    assert apply_to_series(op, series).terms == ()
    cubed = DiffOperator([(((c1, 3),), (), 1)])
    out = apply_to_series(cubed, series)
    assert out.terms == _reference_apply(cubed, series)
    assert apply_to_series(op, out).terms == ()
