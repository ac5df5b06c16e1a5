"""Formal differential operators in the coefficient variables.

An operator is a sum of terms scalar * (coefficient monomial) * (partial
derivative monomial), held in normal form with the derivatives to the
right.  The generators produced here are the box operators attached to
integer relations among exponents, the Euler (homogeneity) operators,
and the heat-type relations expressing a higher coefficient derivative
through the linear ones.

Application to a closed-form series is exact: differentiating a power
function shifts its Gamma argument (the Pochhammer factor is absorbed
by the shift identity), so generated operators annihilate the series by
exact rational cancellation up to the truncation boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .exact import ExactComplex, common_denominator
from .lattice import (ExponentSet, LatticeRelation, cayley_set, kernel_basis,
                      unit_exponents)
from .polynomials import CoeffVar, joined_vars

if TYPE_CHECKING:  # build_system and the operators themselves need no series
    from .series import GammaSeries


def _as_power_key(powers: Iterable) -> tuple:
    merged = {}
    for var, p in powers:
        if not isinstance(var, CoeffVar):
            raise TypeError(f"expected CoeffVar, got {var!r}")
        p = int(p)
        if p < 0:
            raise ValueError("negative power in operator term")
        if p:
            merged[var] = merged.get(var, 0) + p
    return tuple(sorted(merged.items()))


class DiffOperator:
    """Sum of scalar * monomial * derivative terms, in normal form.

    Terms keep their construction order (which fixes the rendered text)
    but equality and arithmetic treat the term map as unordered.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        normal = {}
        for mono, deriv, scalar in terms:
            key = (_as_power_key(mono), _as_power_key(deriv))
            scalar = ExactComplex.from_value(scalar)
            if key in normal:
                normal[key] = normal[key] + scalar
            else:
                normal[key] = scalar
        object.__setattr__(
            self, "terms", {k: v for k, v in normal.items() if not v.is_zero()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("DiffOperator is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> tuple:
        seen = []
        for mono, deriv in self.terms:
            for var, _ in mono + deriv:
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        combined = [(m, d, s) for (m, d), s in self.terms.items()]
        combined += [(m, d, s) for (m, d), s in other.terms.items()]
        return DiffOperator(combined)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator([(m, d, -s) for (m, d), s in self.terms.items()])

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def __rmul__(self, factor) -> "DiffOperator":
        factor = ExactComplex.from_value(factor)
        return DiffOperator(
            [(m, d, factor * s) for (m, d), s in self.terms.items()]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, DiffOperator) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        return operator_text(self)

    __repr__ = __str__


def _scalar_text(scalar: ExactComplex) -> tuple:
    """Returns (sign, body or None); body None means magnitude one."""
    if scalar.im == 0:
        sign = "-" if scalar.re < 0 else "+"
        mag = abs(scalar.re)
        return sign, None if mag == 1 else str(mag)
    return "+", f"({scalar})"


def operator_text(op: DiffOperator, identity_label: str | None = None) -> str:
    """Fixed text grammar: D[cNAME]^k factors joined by '*', terms by
    ' + '/' - '; coefficient variables named c{block}_{exponents}.

    ``identity_label`` (say ``u1`` or ``-v1``) stands for the constant
    term: the label is written last, also when that term is 0 or unknown.
    """
    pieces = []
    for (mono, deriv), scalar in op.terms.items():
        if not mono and not deriv and identity_label is not None:
            continue
        sign, scalar_body = _scalar_text(scalar)
        factors = [] if scalar_body is None else [scalar_body]
        factors += [
            str(var) + (f"^{p}" if p > 1 else "") for var, p in mono
        ]
        factors += [
            f"D[{var}]" + (f"^{p}" if p > 1 else "") for var, p in deriv
        ]
        if not factors:
            factors = [str(abs(scalar.re)) if scalar.im == 0 else f"({scalar})"]
        pieces.append((sign, "*".join(factors)))
    if identity_label is not None:
        pieces.append(("-" if identity_label.startswith("-") else "+",
                       identity_label.lstrip("-")))
    if not pieces:
        return "0"
    sign0, body0 = pieces[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _block_vars(exponents: ExponentSet, block: int = 0) -> tuple:
    return tuple(CoeffVar(block, w) for w in exponents.members)


def box_operator(relation, variables: Sequence | None = None) -> DiffOperator:
    """The binomial operator D^(u+) - D^(u-) attached to an integer relation.

    ``relation`` is a LatticeRelation (variables default to block-0 names
    for its exponent set) or a raw coefficient sequence with explicit
    ``variables``.
    """
    if isinstance(relation, LatticeRelation):
        coeffs = relation.coefficients
        if variables is None:
            variables = _block_vars(relation.exponents)
    else:
        coeffs = tuple(int(c) for c in relation)
        if variables is None:
            raise ValueError("raw relations need explicit variables")
    variables = tuple(variables)
    if len(variables) != len(coeffs):
        raise ValueError("relation and variable list differ in length")
    if all(c == 0 for c in coeffs):
        raise ValueError("zero relation has no box operator")
    plus = [(v, c) for v, c in zip(variables, coeffs) if c > 0]
    minus = [(v, -c) for v, c in zip(variables, coeffs) if c < 0]
    return DiffOperator([((), plus, 1), ((), minus, -1)])


def _euler_vars(source) -> tuple:
    if isinstance(source, ExponentSet):
        return _block_vars(source)
    return tuple(source)


def euler_t_operator(source, axis: int, u_j) -> DiffOperator:
    """Homogeneity operator in t_axis: sum_w w^axis c_w D[c_w] + u_axis.

    ``source`` is an ExponentSet (single-polynomial variables) or a
    sequence of CoeffVar whose exponents live in the t variables.
    """
    variables = _euler_vars(source)
    if axis < 1:
        raise ValueError("axis is 1-based")
    terms = []
    for var in variables:
        if axis > len(var.exponent):
            raise ValueError(f"axis {axis} exceeds exponent length of {var}")
        weight = var.exponent[axis - 1]
        if weight:
            terms.append((((var, 1),), ((var, 1),), weight))
    terms.append(((), (), u_j))
    return DiffOperator(terms)


def euler_y_operator(source, block: int, v_i) -> DiffOperator:
    """Block homogeneity operator: sum_{w in block} c_w D[c_w] - v_block."""
    variables = _euler_vars(source)
    terms = [(((var, 1),), ((var, 1),), 1)
             for var in variables if var.block == block]
    terms.append(((), (), -ExactComplex.from_value(v_i)))
    return DiffOperator(terms)


def gg_relation_operator(omega, exponents: ExponentSet,
                         block: int | None = None) -> DiffOperator:
    """Expresses D[c_omega] through the low-order coefficient derivatives.

    Plain form: D[c_omega] - D[c_e1]^w1 ... D[c_en]^wn, requiring the
    set to contain omega and all unit exponents.  With ``block`` the
    constant-term variant is built instead:
    D[c_0]^(|omega|-1) * D[c_omega] - prod_j D[c_ej]^wj, additionally
    requiring the constant exponent in the set.
    """
    n = exponents.dimension
    if isinstance(omega, int):
        omega = (omega,)
    omega = tuple(int(e) for e in omega)
    if len(omega) != n:
        raise ValueError("omega does not match the exponent dimension")
    if omega not in exponents:
        raise ValueError(f"{omega} is not a member of the exponent set")
    units = unit_exponents(n)
    missing = [e for e in units if e not in exponents]
    if missing:
        raise ValueError(f"missing linear exponents {missing}")
    blk = 0 if block is None else block
    rhs = [(CoeffVar(blk, units[j]), omega[j])
           for j in range(n) if omega[j] > 0]
    if block is None:
        lhs = [(CoeffVar(blk, omega), 1)]
    else:
        zero = tuple(0 for _ in range(n))
        if zero not in exponents:
            raise ValueError("the constant exponent is required for the "
                             "block form")
        total = sum(omega)
        if total < 1:
            raise ValueError("block form needs |omega| >= 1")
        lhs = [(CoeffVar(blk, zero), total - 1), (CoeffVar(blk, omega), 1)]
    return DiffOperator([((), lhs, 1), ((), rhs, -1)])


def _exponent_text(w) -> str:
    return ",".join(str(e) for e in w)


def build_system(exponent_sets: Sequence, blocks: int, u,
                 v: Sequence = ()) -> list:
    """The differential system of a problem as (kind, key, label, op) rows.

    With ``blocks`` = 0 the one exponent set gives, in this order, the
    heat-type relations (kind ``heat``, key the exponent w, label
    ``heat[w]``; only when all unit exponents are present), the box
    operators of a kernel lattice basis (``box``, key and label the
    relation coefficients) and the Euler operators in t (``euler_t``,
    key the 1-based axis j, label ``euler_t[j]``).

    With k = ``blocks`` >= 1 the k sets are joined, and the rows are the
    box operators of the joined set, the block homogeneity operators
    (``euler_y``, key the 1-based block i, label ``euler_y[i]``), the
    constant-term relations of each block holding the constant and unit
    exponents (``heat``, key w with |w| >= 2, label ``mixed[i:w]``) and
    the Euler operators in t.

    The Euler operators carry the entries of ``u`` and ``v``; a missing
    entry (or ``u`` None) stands for 0.
    """
    exponent_sets = tuple(exponent_sets)
    if len(exponent_sets) != max(blocks, 1):
        raise ValueError(f"expected {max(blocks, 1)} exponent set(s) for "
                         f"blocks={blocks}")
    n = exponent_sets[0].dimension
    units = unit_exponents(n)
    u = tuple(u or ())
    if blocks == 0:
        support = exponent_sets[0]
        variables = _block_vars(support)
        heat = []
        if all(e in support for e in units):
            for w in support.members:
                op = gg_relation_operator(w, support)
                if not op.is_zero():  # zero for the unit exponents
                    heat.append(("heat", w, f"heat[{_exponent_text(w)}]", op))
    else:
        support = cayley_set(*exponent_sets)
        variables = joined_vars(exponent_sets)
        heat = [("heat", w, f"mixed[{i + 1}:{_exponent_text(w)}]",
                 gg_relation_operator(w, s, block=i + 1))
                for i, s in enumerate(exponent_sets)
                if (0,) * n in s and all(e in s for e in units)
                for w in s.members if sum(w) >= 2]
    box = [("box", rel.coefficients, f"box{list(rel.coefficients)}",
            box_operator(rel.coefficients, variables))
           for rel in (kernel_basis(support) if len(support) > 1 else ())]
    euler_t = [("euler_t", j + 1, f"euler_t[{j + 1}]",
                euler_t_operator(variables, j + 1, u[j] if j < len(u) else 0j))
               for j in range(n)]
    if blocks == 0:
        return heat + box + euler_t
    euler_y = [("euler_y", i + 1, f"euler_y[{i + 1}]",
                euler_y_operator(variables, i + 1, v[i] if i < len(v) else 0j))
               for i in range(blocks)]
    return box + euler_y + heat + euler_t


def _application_plan(mono, deriv, op_scalar, series_index, base_index,
                      reciprocal, W):
    """How one operator term acts on a term whose args are (A + B i) / W.

    Returns (falling, dm, dk, factors, (nr, ni), den): the series
    derivatives (i, p), which multiply by m_i (m_i - 1) ... (m_i - p + 1);
    the shifts of m and of the Gamma arguments; the offsets o with one
    factor (A_j + o + B_j i) per (j, o) from the base monomial; and the
    signed operator scalar as (nr + ni i) / den, where den also carries
    the W of each factor.
    """
    dm, dk = [0] * len(series_index), [0] * len(base_index)
    falling, factors = [], []
    sign = 1
    for var, p in deriv:
        if var in series_index:
            i = series_index[var]
            falling.append((i, p))
            dm[i] -= p
        else:
            j = base_index[var]
            if reciprocal and p % 2:
                sign = -sign
            dk[j] += p
    for var, p in mono:
        if var in series_index:
            dm[series_index[var]] += p
        else:
            # d^p/da^p left s + d; a^p then takes the factors
            # -(s + d - r) (direct) or (s + d - r) (reciprocal), r = 1..p
            j = base_index[var]
            if not reciprocal and p % 2:
                sign = -sign
            factors += [(j, (dk[j] - r) * W) for r in range(1, p + 1)]
            dk[j] -= p
    c = common_denominator([op_scalar])
    nr, ni = op_scalar.numerators(c)
    return (tuple(falling), tuple(dm), tuple(dk), tuple(factors),
            (sign * nr, sign * ni), c * W ** len(factors))


def apply_to_series(op: DiffOperator, series: GammaSeries) -> GammaSeries:
    """Apply an operator to a closed-form series, exactly.

    Derivatives act first, then the coefficient monomial.  Derivatives
    in a base variable shift the Gamma argument (scalar untouched in the
    direct form); derivatives in a series variable use the integer power
    rule.  The result is truncated to the input order; ``complete_below``
    marks where truncation may have removed cancelling partners.

    The work is done on integers: every Gamma argument is (A + B i) / W
    and every scalar a Gaussian integer over one denominator, so terms
    are keyed on (m, A, B) and summed without Fraction arithmetic.  The
    sums over the denominator S * G become the result's integer_form(),
    so a chained application starts from integers again.
    """
    from .series import GammaSeries, GammaTerm, _args_key

    layout = series.layout
    if not series.is_closed_form():
        raise ValueError("operator application needs a closed-form series")
    for var in op.variables():
        layout.role(var)  # raises KeyError on a variable mismatch
    reciprocal = series.form == "reciprocal"
    series_index = {var: i for i, var in enumerate(layout.series_vars)}
    base_index = {var: j for j, var in enumerate(layout.base_vars)}
    order = series.truncation_order
    W, S, rows = series.integer_form()

    plans = [_application_plan(mono, deriv, op_scalar, series_index,
                               base_index, reciprocal, W)
             for (mono, deriv), op_scalar in op.terms.items()]
    # the most orders one operator term moves a multi-index down
    max_down = max([0] + [-sum(dm) for _, dm, *_ in plans])
    # every contribution is a Gaussian integer over S * G
    G = math.lcm(*(plan[-1] for plan in plans))

    # operator terms that shift m and the arguments alike send a row to
    # one output key: their contributions are summed before the lookup
    shifts = {}
    for falling, dm, dk, factors, (nr, ni), den in plans:
        shifts.setdefault((dm, dk), []).append(
            (falling, factors, nr * (G // den), ni * (G // den)))

    sums = {}  # (m, A, B) -> [re, im]
    for (dm, dk), group in shifts.items():
        dm = dm if any(dm) else None
        dA = tuple(d * W for d in dk) if any(dk) else None
        # a term whose |m| passes top leaves the truncation order
        top = order - sum(dm) if dm and sum(dm) > 0 else None
        for term, (sr, si), A, B in rows:
            m = term.m
            if top is not None and sum(m) > top:
                continue
            re = im = 0
            for falling, factors, nr, ni in group:
                ff = 1
                for i, p in falling:
                    ff *= math.perm(m[i], p)  # 0 when m_i < p
                if not ff:
                    continue
                cr, ci = sr * ff, si * ff
                if ni:
                    cr, ci = cr * nr - ci * ni, cr * ni + ci * nr
                elif nr != 1:
                    cr, ci = cr * nr, ci * nr
                for j, offset in factors:
                    fr, fi = A[j] + offset, B[j]
                    if fi:
                        cr, ci = cr * fr - ci * fi, cr * fi + ci * fr
                    else:
                        cr, ci = cr * fr, ci * fr
                re += cr
                im += ci
            if not (re or im):
                continue
            key = (tuple(map(add, m, dm)) if dm else m,
                   tuple(map(add, A, dA)) if dA else A, B)
            acc = sums.get(key)
            if acc is None:
                sums[key] = [re, im]
            else:
                acc[0] += re
                acc[1] += im

    # one ExactComplex per distinct (base variable, argument)
    den = S * G
    arguments = {}
    zero = Fraction(0)
    out_rows = []
    for (m, A, B), (re, im) in sums.items():
        if not (re or im):
            continue
        args = []
        for j, (a, b) in enumerate(zip(A, B)):
            arg = arguments.get((j, a, b))
            if arg is None:
                arg = arguments[j, a, b] = ExactComplex(Fraction(a, W),
                                                        Fraction(b, W))
            args.append(arg)
        scalar = ExactComplex(Fraction(re, den),
                              Fraction(im, den) if im else zero)
        out_rows.append((GammaTerm(m, scalar, tuple(args)), (re, im), A, B))
    if len(shifts) > 1 or any(any(dk) for _, dk in shifts):
        # merge_gamma_terms order; with one shift of m alone the rows
        # keep the input's order, which is that order already
        by_m = {}
        for row in out_rows:
            by_m.setdefault(row[0].m, []).append(row)
        out_rows = []
        for m in sorted(by_m, key=lambda m: (sum(m), m)):
            group = by_m[m]
            if len(group) > 1:
                group.sort(key=lambda row: _args_key(row[0].args))
            out_rows += group
    complete = min(series.complete_below, order + 1) - max_down
    return GammaSeries._from_rows(layout, order, series.form,
                                  max(complete, 0), (W, den, tuple(out_rows)))
