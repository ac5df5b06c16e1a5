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

import itertools
import math
from fractions import Fraction
from operator import add, mul
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


def _term_classes(mono, deriv, series_index, base_index, reciprocal, D):
    """How one operator term acts on a term with s_j = z_j + q_j / D.

    Returns the shifts (dm, dk) of m and of the arguments and the classes
    (row function, z powers, factor): the term multiplies the scalar of
    a row by the sum over its classes of the row function's value times
    factor * prod_j z_j**power_j.  A row function is (falling, offsets):
    a factor m_i (m_i - 1) ... (m_i - p + 1) per series derivative
    (i, p), which is 0 when m_i < p, and a factor q_j + k per (j, k).
    """
    dm, dk = [0] * len(series_index), [0] * len(base_index)
    falling, factors = [], {}
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
            # -(s + d - r) (direct) or (s + d - r) (reciprocal), r = 1..p,
            # each z + (q + D (d - r)) / D
            j = base_index[var]
            if not reciprocal and p % 2:
                sign = -sign
            factors[j] = [D * (dk[j] - r) for r in range(1, p + 1)]
            dk[j] -= p
    # prod_r (z + (q + k_r) / D) is the sum over the subsets T of the
    # factors of z**(p - |T|) D**-|T| prod_{r in T} (q + k_r)
    choices = [[(tuple((j, k) for k in chosen), j, len(ks) - size)
                for size in range(len(ks) + 1)
                for chosen in itertools.combinations(ks, size)]
               for j, ks in factors.items()]
    classes = []
    for picks in itertools.product(*choices):
        powers = [0] * len(base_index)
        offsets = ()
        for chosen, j, power in picks:
            offsets += chosen
            powers[j] = power
        classes.append(((tuple(falling), offsets), tuple(powers),
                        Fraction(sign, D ** len(offsets))))
    return (tuple(dm), tuple(dk)), classes


def _monomial(anchor, powers) -> ExactComplex:
    """prod_j anchor[j]**powers[j] for powers not all 0."""
    out = None
    for z, power in zip(anchor, powers):
        for _ in range(power):
            out = z if out is None else out * z
    return out


def apply_to_series(op: DiffOperator, series: GammaSeries) -> GammaSeries:
    """Apply an operator to a closed-form series, exactly.

    Derivatives act first, then the coefficient monomial.  Derivatives
    in a base variable shift the Gamma argument (scalar untouched in the
    direct form); derivatives in a series variable use the integer power
    rule.  The result is truncated to the input order; ``complete_below``
    marks where truncation may have removed cancelling partners.

    The work is done on the series' lattice_form(), whose arguments are
    s_j = z_j + q_j / D with exact anchors z_j and small integers q_j,
    in three steps:

    1. The operator collapses once into classes (shift of m and of the
       arguments, row function, coefficient): a row function is a
       product of falling factorials in m and of offsets q_j + k, and
       its coefficient the operator scalar times anchors z_j and powers
       of 1/D, per coset.  Equal classes merge exactly, so an Euler
       operator's constant u cancels against sum_j w_j z_j in one sum.
    2. The coefficients, over their common denominator L, fold into one
       integer weight per row.  The weights times the scalar numerators
       are summed per output key (coset, m, q), coded as one integer,
       by sorting them and np.add.reduceat over each run of one key,
       into the numerators over S * L.
       The arrays are int64 where the largest scalar numerator times the
       sum of the coefficient numerators times the largest row values
       bounds every sum below 2**63, and of dtype object otherwise (an
       operator whose coefficients keep the anchors' large denominators
       takes that path).
    3. Only the keys that survive become terms, with one ExactComplex
       per distinct argument and per distinct scalar; their integers
       are the result's lattice form, so a chained application starts
       from small integers again.
    """
    import numpy as np

    from .series import GammaSeries, LatticeForm, _args_key, _new_term

    layout = series.layout
    if not series.is_closed_form():
        raise ValueError("operator application needs a closed-form series")
    for var in op.variables():
        layout.role(var)  # raises KeyError on a variable mismatch
    reciprocal = series.form == "reciprocal"
    series_index = {var: i for i, var in enumerate(layout.series_vars)}
    base_index = {var: j for j, var in enumerate(layout.base_vars)}
    order = series.truncation_order
    lattice = series.lattice_form()
    D, anchors = lattice.D, lattice.anchors

    # 1. classes: (shift, row function) -> coefficient per coset
    classes, monomials = {}, {}
    max_down = 0  # the most orders one operator term moves m down
    for (mono, deriv), scalar in op.terms.items():
        shift, expansion = _term_classes(mono, deriv, series_index,
                                         base_index, reciprocal, D)
        max_down = max(max_down, -sum(shift[0]))
        for function, powers, factor in expansion:
            coefficient = scalar if factor == 1 else scalar * factor
            if any(powers):
                zs = monomials.get(powers)
                if zs is None:
                    zs = monomials[powers] = [_monomial(z, powers)
                                              for z in anchors]
                parts = [z * coefficient for z in zs]
            else:
                parts = [coefficient] * len(anchors)
            known = classes.get((shift, function))
            classes[shift, function] = parts if known is None else \
                list(map(add, known, parts))

    # 2. the live coefficients over one common denominator L
    live = [(key, cs) for key, cs in classes.items() if any(cs)]
    L = common_denominator(c for _, cs in live for c in cs)
    plan = {}  # shift -> [(row function, numerators per coset)]
    for (shift, function), cs in live:
        plan.setdefault(shift, []).append(
            (function, [c.numerators(L) for c in cs]))

    rows, ns = lattice.m.shape
    nb = lattice.offsets.shape[1]
    inputs, top, q_lo, q_hi, largest = lattice.extent
    # on |re| and |im| of every sum over one output key; a factor of at
    # least 1 per class also makes it bound every numerator and scalar
    # that goes into the arrays
    bound = 0
    for entries in plan.values():
        for (falling, offsets), numerators in entries:
            value = math.prod(top[i] ** p for i, p in falling) * math.prod(
                max(abs(q_lo[j] + k), abs(q_hi[j] + k)) for j, k in offsets)
            bound += max(value, 1) * max(abs(a) + abs(b)
                                         for a, b in numerators)
    bound *= max(largest, 1)
    # the key code's digits, most significant first: |m|, m, coset, q,
    # each q digit spanning the input's offsets and the shifted ones
    lo = [min([q_lo[j]] + [q_lo[j] + D * dk[j] for _, dk in plan])
          for j in range(nb)]
    radices = [order + 1] * (ns + 1) + [len(anchors)] + [
        max([q_hi[j]] + [q_hi[j] + D * dk[j] for _, dk in plan]) - lo[j] + 1
        for j in range(nb)]
    strides = [math.prod(radices[d + 1:]) for d in range(len(radices))]
    dtype = np.int64 if max(bound, math.prod(radices)) < 2 ** 63 else object
    inputs = inputs.astype(dtype, copy=False)
    total, M, Q = inputs[:, 0], inputs[:, 1:ns + 1], inputs[:, ns + 2:]
    RE, IM = (a.astype(dtype, copy=False) for a in (lattice.re, lattice.im))
    coset = lattice.coset.astype(np.intp, copy=False)
    code = inputs @ np.array(strides, dtype=dtype) - sum(
        x * s for x, s in zip(lo, strides[ns + 2:]))

    ones = np.ones(rows, dtype=dtype)
    codes, weights = [np.zeros(0, dtype=dtype)], [np.zeros((2, 0), dtype)]
    for (dm, dk), entries in plan.items():
        a = b = 0  # the coefficient numerators times the row functions
        for (falling, offsets), numerators in entries:
            value = ones
            for i, p in falling:
                for step in range(p):
                    value = value * (M[:, i] - step)
            for j, k in offsets:
                value = value * (Q[:, j] + k)
            x, y = (np.array(n, dtype=dtype)[coset] for n in zip(*numerators))
            a, b = a + x * value, b + y * value
        weight = np.stack((a * RE - b * IM, a * IM + b * RE))
        keep = (weight != 0).any(axis=0)
        if sum(dm) > 0:  # a term whose |m| passes the order leaves
            keep &= total <= order - sum(dm)
        keep = np.flatnonzero(keep)
        codes.append(code[keep] + sum(map(mul, strides, (
            sum(dm), *dm, 0, *(D * d for d in dk)))))
        weights.append(weight.take(keep, axis=1))
    # the rows sorted by key, and each run of one key summed
    codes = np.concatenate(codes)
    rank = codes.argsort()
    codes = codes[rank]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(first)
    keys = codes[starts]
    weights = np.concatenate(weights, axis=1)[:, rank]
    re, im = np.add.reduceat(weights, starts, axis=1) if len(keys) \
        else weights

    # 3. the numerators over S * L, per surviving key
    alive = np.flatnonzero((re != 0) | (im != 0))
    digits = (keys[alive, None] // np.array(strides, dtype=dtype)
              % np.array(radices, dtype=dtype))
    c_out, re, im = digits[:, ns + 1].astype(np.intp), re[alive], im[alive]
    m_out, q_out = digits[:, 1:ns + 1], digits[:, ns + 2:] + lo

    # the surviving keys as terms, with one ExactComplex per distinct
    # argument and per distinct scalar
    count = len(alive)
    cosets, memo = c_out.tolist(), lattice.arguments
    args = []
    for j, q in enumerate(q_out.T.tolist()):
        column = []
        for c, k in zip(cosets, q):
            arg = memo.get((c, j, k))
            if arg is None:
                z = anchors[c][j]
                arg = memo[c, j, k] = ExactComplex(z.re + Fraction(k, D), z.im)
            column.append(arg)
        args.append(column)
    args = list(zip(*args)) if nb else [()] * count
    S = lattice.S * L
    numerators = list(zip(re.tolist(), im.tolist()))
    scalars, zero = dict.fromkeys(numerators), Fraction(0)
    for p, q in scalars:
        scalars[p, q] = ExactComplex(Fraction(p, S),
                                     Fraction(q, S) if q else zero)
    # keys run in (|m|, m) order; within one m, merge_gamma_terms orders
    # by the args
    pick = list(range(count))
    block = digits[:, :ns + 1]
    if count > 1 and (block[1:] == block[:-1]).all(axis=1).any():
        pick = []
        for _, group in itertools.groupby(range(count),
                                          key=block.tolist().__getitem__):
            pick += sorted(group, key=lambda r: _args_key(args[r]))
        numerators, args = ([x[r] for r in pick] for x in (numerators, args))
    terms = tuple(map(_new_term, zip(map(tuple, m_out[pick].tolist()),
                                     map(scalars.__getitem__, numerators),
                                     args)))
    result = LatticeForm(D, anchors, c_out[pick], m_out[pick], q_out[pick],
                         re[pick], im[pick], S, memo)
    complete = max(min(series.complete_below, order + 1) - max_down, 0)
    return GammaSeries._built(layout, order, series.form, complete, terms,
                              result)
