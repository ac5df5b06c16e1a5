"""Base-indexed power series with Gamma-product coefficients.

A series lives on a layout split A = B + (A \\ B): the exponents outside
the base B index the series variables a_w, while the base exponents
carry the coefficient functions of a_1..a_n.  gg_series builds the
closed-form terms straight from the layout and the parameters u:

    scalar * prod_j Gamma(s_j) * (-a_j)**(-s_j) * prod_w a_w**m_w

with scalar = 1 / prod_w m_w!, s(m) = s0 + sum_w m_w * l_w, where l_w
are the exact rational coordinates of w in the base and s0 solves
sum_j s0_j * w_j = u.  The reciprocal form reads each Gamma(s) as
1/Gamma(1 - s) and multiplies the scalar by the reflection sign
(-1)**(sum_j k_j), k_j the integer part of s_j(m) - s0_j.
expand_general (a coefficient function of the base values per m) and
standard_expansion (a fixed number per m) give terms that can be
evaluated but not differentiated exactly.

The scalars and the arguments s_j are kept in exact complex-rational
arithmetic.  Differentiating with respect to a base variable then maps
Gamma(s)(-a)**(-s) to Gamma(s+1)(-a)**(-(s+1)) with the scalar
unchanged (the Gamma shift identity absorbed into the argument), so
annihilation by the generated operators is an exact cancellation of
equal Fractions, not a floating-point near-miss.  The same terms are
also held as small integers (lattice_form()), on which operators work
and from which numeric_form() is compiled: the arguments fall into
cosets, each with exact anchors z_j, and s_j = z_j + q_j / D with small
integer offsets q_j; the scalars are numerators over one common
denominator.  In gg_series z = s0 and q = N m, so the large
denominators of s0 (u = 1.37 enters as Fraction(1.37), over 2**52) stay
in the anchors, and an operator is applied by collapsing it once into
exact coefficients per class of rows and summing the rows in int64
arrays (see apply_to_series).  gg_series writes that form while it
builds the terms, apply_to_series writes the form of its result, and
both share one ExactComplex per distinct argument, so a built series is
never converted back from Fractions.  Other closed-form series derive
their lattice form from their terms once; integer_form() gives the
terms over two common denominators on request.

Numeric evaluation happens only at the very end.  A closed-form series
compiles once into a cached numeric_form(): the complex scalars, per
base variable the table of distinct arguments s with Gamma(s) (or
1/Gamma(1 - s), from a reciprocal-Gamma-safe routine) and each term's
index into it, and the exponent matrix of m.  Each point then computes
only (-a_j)**(-s) per table entry and the products and sums in arrays.
The principal branch of log is used for the powers (-a_j)**(-s_j), with
the plane cut along the negative real axis of (-a_j).  Only this numeric
path and the lattice form's arrays import numpy, so building a series
loads no numpy; applying an operator imports it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Callable, Mapping, Sequence

from .exact import ExactComplex, common_denominator, solve_exact
from .lattice import Base, ExponentSet, base_coords
from .polynomials import CoeffVar, SparsePolynomial, as_coeff_var


class SeriesPoleError(ValueError):
    """A direct-form term sits on a pole of Gamma and cannot be evaluated."""


# Lanczos approximation of Gamma with g = 7 and Godfrey's nine
# coefficients (Lanczos, SIAM J. Numer. Anal. B 1, 1964): relative
# error near 1e-15 for Re z >= 1/2.  Taking exp of log Gamma adds about
# |log Gamma(z)| ulps, under 4e-13 for |z| up to a few hundred.
_LANCZOS_G = 7.0
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6,
            1.5056327351493116e-7)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z) for Re z >= 1/2 (not the principal one)."""
    z -= 1
    x = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        x += _LANCZOS[k] / (z + k)
    t = z + (_LANCZOS_G + 0.5)
    return _LOG_SQRT_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(x)


def _exp(w: complex) -> complex:
    """exp(w), infinite in the quadrant of the value past the double range
    (a part that is exactly 0, as for a real w, stays 0)."""
    try:
        return cmath.exp(w)
    except OverflowError:
        c, s = math.cos(w.imag), math.sin(w.imag)
        return complex(math.copysign(math.inf, c) if c else 0.0,
                       math.copysign(math.inf, s) if s else 0.0)


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z) on the complex plane.

    Exactly 0j at 0, -1, -2, ...; computed in log space, so a large Re z
    underflows to 0j and a large -Re z overflows to an infinity.  Re z <
    1/2 uses the reflection formula 1/Gamma(z) = sin(pi z) Gamma(1 - z)
    / pi.  A real z gives a real value (imaginary part 0).
    """
    z = complex(z)
    if z.real >= 0.5:
        return _exp(-_log_gamma(z))
    if z.imag == 0 and z.real.is_integer():
        return 0j
    # sin(pi z) = (-1)**n sin(w) with w = pi (z - n), accurate near integers
    n = round(z.real)
    w = math.pi * (z - n)
    sign = -1 if n % 2 else 1
    log_g = _log_gamma(1 - z) - _LOG_PI
    if abs(w.imag) < 20.0:
        sin_w = sign * cmath.sin(w)
        if log_g.real < 690.0:  # |sin w| < cosh 20 < e**19.4: no overflow
            return sin_w * cmath.exp(log_g)
        if z.imag == 0:
            # the phase of a negative sin w is pi, and exp(i pi) is not
            # real in floats: keep the sign out of the exponential
            magnitude = _exp(log_g.real + math.log(abs(sin_w.real))).real
            return complex(math.copysign(magnitude, sin_w.real), 0.0)
        return _exp(log_g + cmath.log(sin_w))
    # |exp(2iw)| < 1e-17, so sin w = k (i/2) exp(-k i w) to double precision
    k = 1 if w.imag > 0 else -1
    return sign * k * 0.5j * _exp(log_g - k * 1j * w)


def complex_gamma(z: complex) -> complex:
    """Gamma on the complex plane via the entire reciprocal function.

    Raises SeriesPoleError at 0, -1, -2, ...  Past the double range,
    where reciprocal_gamma underflows to 0j, the value is infinite; where
    it overflows, far left of the origin, Gamma underflows to a zero in
    the quadrant of the value.
    """
    rg = reciprocal_gamma(z)
    if cmath.isinf(rg):
        # 1/rg is the conjugate direction; 1.0 / rg would give nan
        return complex(math.copysign(0.0, rg.real), -math.copysign(0.0, rg.imag))
    if rg != 0:
        return 1.0 / rg
    z = complex(z)
    if z.real < 0.5:  # only the poles give an exact 0j below Re z = 1/2
        raise SeriesPoleError(f"Gamma pole at argument {z}")
    return _exp(_log_gamma(z))


def _unit_power(d: complex, n: int) -> complex:
    """d**n for |d| = 1 by repeated squaring, exact on 1, -1, 1j and -1j
    (Python's ``complex ** int`` goes through exp and log for |n| > 100,
    which leaves a component of rounding size off an axis)."""
    if n < 0:
        d, n = d.conjugate(), -n
    out = 1.0 + 0j
    while n:
        if n & 1:
            out *= d
        d *= d
        n >>= 1
    return out


def _int_power(base: complex, n: int) -> complex:
    """base**n for a nonzero base, infinite in the quadrant of the value
    past the double range (a real base gives a real infinity).  Python
    raises there (ZeroDivisionError where base**-n underflows to 0), or,
    multiplying out a small n, may give nan."""
    try:
        value = base ** n
        if cmath.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    if base.imag == 0:
        negative = base.real < 0 and n % 2
        return complex(-math.inf if negative else math.inf, 0.0)
    d = _unit_power(base / abs(base), n)
    return complex(math.copysign(math.inf, d.real) if d.real else 0.0,
                   math.copysign(math.inf, d.imag) if d.imag else 0.0)


def negated_power(a: complex, rho: complex) -> complex:
    """Principal-branch (-a)**rho; rho may be complex.  Past the double
    range the value is infinite in its quadrant, as from _exp."""
    base = -complex(a)
    if base == 0:
        if rho == 0:
            return 1.0 + 0j
        if rho.real > 0:
            return 0j
        raise ValueError("0 raised to an exponent with nonpositive real part")
    if rho.imag == 0 and float(rho.real).is_integer():
        return _int_power(base, int(rho.real))
    return _exp(complex(rho) * cmath.log(base))


def multi_indices(width: int, max_total: int):
    """All tuples of ``width`` nonnegative ints with sum <= max_total,
    ordered by total then lexicographically."""
    if width == 0:
        yield ()
        return
    for total in range(max_total + 1):
        def rec(prefix, remaining, slots):
            if slots == 1:
                yield prefix + (remaining,)
                return
            for head in range(remaining + 1):
                yield from rec(prefix + (head,), remaining - head, slots - 1)
        yield from rec((), total, width)


@dataclass(frozen=True)
class SeriesLayout:
    """Variable split for a series: base variables vs series variables."""

    exponents: ExponentSet
    base: Base | None
    base_vars: tuple = field(init=False)
    series_vars: tuple = field(init=False)

    def __post_init__(self):
        if self.base is not None and self.base.parent != self.exponents:
            raise ValueError("base does not belong to the exponent set")
        base_idx = set(self.base.indices) if self.base is not None else set()
        base_vars = tuple(
            CoeffVar(0, self.exponents.members[i]) for i in
            (self.base.indices if self.base is not None else ())
        )
        series_vars = tuple(
            CoeffVar(0, w) for i, w in enumerate(self.exponents.members)
            if i not in base_idx
        )
        object.__setattr__(self, "base_vars", base_vars)
        object.__setattr__(self, "series_vars", series_vars)

    def coords(self, var: CoeffVar) -> tuple:
        """Exact coordinates of a series exponent in the base."""
        if self.base is None:
            raise ValueError("layout has no base")
        return base_coords(self.base, var.exponent)

    def role(self, var: CoeffVar) -> str:
        if var in self.base_vars:
            return "base"
        if var in self.series_vars:
            return "series"
        raise KeyError(f"{var} is not a variable of this layout")

    @property
    def all_vars(self) -> tuple:
        return self.base_vars + self.series_vars


@dataclass(frozen=True)
class GammaTerm:
    """A full series term in closed form (weight folded into the scalar)."""

    m: tuple
    scalar: ExactComplex
    args: tuple

    def is_pole(self) -> bool:
        return any(a.is_nonpositive_integer() for a in self.args)

    def rho(self) -> tuple:
        """Exponents of the base-variable power functions, rho_j = -s_j."""
        return tuple(-a for a in self.args)


@dataclass(frozen=True)
class OracleTerm:
    """A term whose coefficient is an opaque function of the base values."""

    m: tuple
    weight: Fraction
    coefficient: Callable


@dataclass(frozen=True)
class NumericTerm:
    """A term whose coefficient is a fixed number (standard expansion)."""

    m: tuple
    weight: Fraction
    value: complex


def _args_key(args):
    """The within-m order key of a term's args: their parts' numerators
    and denominators."""
    return tuple((a.re.numerator, a.re.denominator, a.im.numerator,
                  a.im.denominator) for a in args)


def _merge_args(terms):
    """Terms of one multi-index with equal args combined, ordered by args."""
    bucket = {}
    for t in terms:
        key = _args_key(t.args)
        prev = bucket.get(key)
        bucket[key] = t if prev is None else \
            GammaTerm(t.m, prev.scalar + t.scalar, t.args)
    return [bucket[key] for key in sorted(bucket)]


def merge_gamma_terms(terms):
    """Combine terms sharing (m, args), dropping exact zeros.

    Terms are ordered by (|m|, m) and, within one m, by the numerators
    and denominators of their args; that key is built only for the
    multi-indices that carry more than one term.
    """
    by_m = {}
    for t in terms:
        by_m.setdefault(t.m, []).append(t)
    merged = []
    for m in sorted(by_m, key=lambda m: (sum(m), m)):
        group = by_m[m]
        if len(group) > 1:
            group = _merge_args(group)
        merged.extend(t for t in group if not t.scalar.is_zero())
    return tuple(merged)


def _check_order_and_form(truncation_order: int, form: str):
    if truncation_order < 0:
        raise ValueError("truncation order must be >= 0")
    if form not in ("direct", "reciprocal"):
        raise ValueError(f"unknown series form {form!r}")


class GammaSeries:
    """A truncated series over a layout.

    ``form`` selects the term normal form: "direct" uses Gamma factors in
    the numerator (poles are flagged), "reciprocal" uses the entire
    function 1/Gamma(1 - s) so parameter collisions give zero terms
    instead of infinities.  ``complete_below`` marks the first order that
    may be polluted by truncation when the series came out of an
    operator application.
    """

    __slots__ = ("layout", "truncation_order", "terms", "form",
                 "complete_below", "_closed", "_lattice", "_numeric")

    def __init__(self, layout: SeriesLayout, truncation_order: int,
                 terms: Sequence, form: str = "direct",
                 complete_below: int | None = None):
        _check_order_and_form(truncation_order, form)
        terms = tuple(terms)
        for t in terms:
            if sum(t.m) > truncation_order:
                raise ValueError("term beyond the truncation order")
            if len(t.m) != len(layout.series_vars):
                raise ValueError("term multi-index does not match the layout")
        closed = all(isinstance(t, GammaTerm) for t in terms)
        if closed:
            terms = merge_gamma_terms(terms)
        self._fill(layout, truncation_order, terms, form, complete_below,
                   closed, None)

    @classmethod
    def _built(cls, layout: SeriesLayout, truncation_order: int, form: str,
               complete_below: int | None, terms: tuple,
               lattice) -> "GammaSeries":
        """A closed-form series with the lattice form that gg_series or
        apply_to_series wrote while building it.

        ``terms`` are in merge_gamma_terms order with no zero scalar, and
        ``lattice`` is a LatticeForm or the arguments of _lattice_arrays
        after the layout, with the rows in the order of the terms.
        """
        series = object.__new__(cls)
        series._fill(layout, truncation_order, terms, form, complete_below,
                     True, lattice)
        return series

    def _fill(self, layout, truncation_order, terms, form, complete_below,
              closed, lattice):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "truncation_order", truncation_order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "form", form)
        object.__setattr__(
            self, "complete_below",
            truncation_order + 1 if complete_below is None else complete_below,
        )
        object.__setattr__(self, "_closed", closed)
        object.__setattr__(self, "_lattice", lattice)
        object.__setattr__(self, "_numeric", None)

    def __setattr__(self, name, value):
        raise AttributeError("GammaSeries is immutable")

    def is_closed_form(self) -> bool:
        return self._closed

    def integer_form(self) -> tuple:
        """The closed-form terms over two common denominators.

        Returns (W, S, rows): each row is (term, (p, q), A, B) with
        scalar = (p + q i) / S and args[j] = (A[j] + B[j] i) / W in
        integers, with the least common denominators W and S.  It is
        computed from the terms on each call; operators work on
        lattice_form() instead.
        """
        terms = self.terms
        W = common_denominator(a for t in terms for a in t.args)
        S = common_denominator(t.scalar for t in terms)
        rows = []
        for t in terms:
            nums = [a.numerators(W) for a in t.args]
            rows.append((t, t.scalar.numerators(S),
                         tuple(a for a, _ in nums),
                         tuple(b for _, b in nums)))
        return W, S, tuple(rows)

    def lattice_form(self) -> "LatticeForm":
        """The closed-form terms as small integers around exact anchors,
        computed once; operators are applied to this form.

        gg_series writes its integers in the pass that builds the terms
        (as lists, which this call makes arrays, so that building a
        series loads no numpy) and apply_to_series writes the form of its
        result; any other series derives it from its terms.
        """
        lattice = self._lattice
        if not isinstance(lattice, LatticeForm):
            lattice = _lattice_arrays(self.layout,
                                      *(lattice or _lattice_rows(self)))
            object.__setattr__(self, "_lattice", lattice)
        return lattice

    def numeric_form(self) -> "NumericForm":
        """The closed-form terms as arrays and Gamma tables, computed once.

        Built from lattice_form(): the scalars as complex numbers, per
        base variable the distinct arguments s with Gamma(s) (direct) or
        1/Gamma(1 - s) (reciprocal) and each term's index into them, the
        exponent matrix of m, the first direct-form pole term and the
        last-order mask.
        """
        if self._numeric is None:
            object.__setattr__(self, "_numeric", _numeric_form(self))
        return self._numeric

    def __add__(self, other: "GammaSeries") -> "GammaSeries":
        if (self.layout != other.layout or self.form != other.form
                or self.truncation_order != other.truncation_order):
            raise ValueError("series are not compatible for addition")
        return GammaSeries(
            self.layout, self.truncation_order, self.terms + other.terms,
            form=self.form,
            complete_below=min(self.complete_below, other.complete_below),
        )

    def __eq__(self, other) -> bool:
        return (isinstance(other, GammaSeries)
                and self.layout == other.layout
                and self.truncation_order == other.truncation_order
                and self.form == other.form
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return (f"GammaSeries(order={self.truncation_order}, "
                f"form={self.form}, terms={len(self.terms)})")


@dataclass(frozen=True, eq=False)
class LatticeForm:
    """Closed-form terms as small integers around exact anchors.

    The terms fall into cosets, whose Gamma arguments differ by
    multiples of 1/D.  Row r is the series' term r: of coset c, it has
    the arguments s_j = anchors[c][j] + offsets_j / D, each also held in
    ``arguments``, and the scalar (re + im i) / S.
    In gg_series the anchor is s0 and the offsets are N m, so the large
    denominators of s0 stay in the anchors and every array entry is
    small.  The integer arrays are int64 where every entry fits and of
    dtype object otherwise.
    """

    D: int
    anchors: tuple           # per coset, an ExactComplex per base variable
    coset: np.ndarray        # each term's coset
    m: np.ndarray            # (terms, series variables) matrix of m
    offsets: np.ndarray      # (terms, base variables)
    re: np.ndarray           # the scalars' numerators over S
    im: np.ndarray
    S: int
    # (coset, base variable, offset) -> the argument: one ExactComplex
    # per distinct argument, shared by the series with these anchors and
    # holding at least every argument of their terms
    arguments: dict

    @functools.cached_property
    def extent(self) -> tuple:
        """What every application reads, computed once: the matrix of
        each term's (|m|, m, coset, offsets), the largest m_i, the least
        and the largest offset per base variable, and the largest |re|
        plus the largest |im|, the last four as Python ints."""
        import numpy as np

        digits = np.column_stack((self.m.sum(axis=1), self.m, self.coset,
                                  self.offsets))
        return (digits, self.m.max(axis=0, initial=0).tolist(),
                self.offsets.min(axis=0, initial=0).tolist(),
                self.offsets.max(axis=0, initial=0).tolist(),
                int(abs(self.re).max(initial=0))
                + int(abs(self.im).max(initial=0)))


def _int_array(values, columns: int | None = None) -> np.ndarray:
    """Python ints as an int64 array, or of dtype object where one does
    not fit; ``columns`` reshapes a list of rows to (rows, columns)."""
    import numpy as np

    try:
        out = np.array(values, dtype=np.int64)
    except OverflowError:
        out = np.array(values, dtype=object)
    return out if columns is None else out.reshape(len(values), columns)


def _lattice_arrays(layout, D, anchors, coset, m, offsets, re, im, S,
                    arguments) -> LatticeForm:
    """A LatticeForm from lists: m and offsets as lists of rows."""
    return LatticeForm(D, anchors, _int_array(coset),
                       _int_array(m, len(layout.series_vars)),
                       _int_array(offsets, len(layout.base_vars)),
                       _int_array(re), _int_array(im), S, arguments)


def _lattice_rows(series: GammaSeries) -> tuple:
    """The arguments of _lattice_arrays from the terms: D is the
    denominator of the layout's base coordinates, each coset of arguments
    modulo 1/D takes the least nonnegative residue as anchor, and S is
    the least common denominator of the scalars."""
    layout = series.layout
    D = 1
    if layout.base is not None:
        D = math.lcm(*(l.denominator for var in layout.series_vars
                       for l in layout.coords(var)))
    S = common_denominator(t.scalar for t in series.terms)
    cosets = {}  # (residue, imaginary part) per argument -> index
    anchors, coset, ms, offsets, re, im = [], [], [], [], [], []
    arguments = {}
    for term in series.terms:
        shifts = tuple(math.floor(a.re * D) for a in term.args)
        key = tuple((a.re - Fraction(k, D), a.im)
                    for a, k in zip(term.args, shifts))
        c = cosets.get(key)
        if c is None:
            c = cosets[key] = len(anchors)
            anchors.append(tuple(ExactComplex(*z) for z in key))
        arguments.update(((c, j, k), arg)
                         for j, (k, arg) in enumerate(zip(shifts, term.args)))
        p, q = term.scalar.numerators(S)
        coset.append(c)
        ms.append(term.m)
        offsets.append(shifts)
        re.append(p)
        im.append(q)
    return D, tuple(anchors), coset, ms, offsets, re, im, S, arguments


class _GammaArguments:
    """The Gamma arguments s(m) = s0 + L m of one layout and parameter u.

    s0 (sum_j s0_j * w_j = u) and the base coordinates L of the series
    exponents are solved once.  With D the common denominator of L,
    L = N / D for an integer matrix N; with W a common denominator of
    every s_j(m), Re s_j(m) = (A0_j + (N m)_j * W / D) / W, where
    A0_j / W = Re s0_j.
    """

    def __init__(self, layout: SeriesLayout, u):
        if layout.base is None:
            raise ValueError("a base is required for the closed-form "
                             "series")
        n = layout.exponents.dimension
        u = tuple(u) if isinstance(u, (list, tuple)) else (u,)
        if len(u) != n:
            raise ValueError(
                f"parameter vector has length {len(u)}, expected {n}")
        vectors = layout.base.vectors
        rows = [[ExactComplex.from_value(vectors[j][i]) for j in range(n)]
                for i in range(n)]
        self.s0 = tuple(solve_exact(rows,
                                    [ExactComplex.from_value(x) for x in u]))
        coords = [layout.coords(var) for var in layout.series_vars]
        self.D = math.lcm(*(l.denominator for c in coords for l in c))
        # N row by row: (N m)_j = sum(map(mul, m, N[j]))
        self.N = tuple(tuple(c[j].numerator * (self.D // c[j].denominator)
                             for c in coords) for j in range(n))
        self.W = math.lcm(self.D, common_denominator(self.s0))
        self.A0 = tuple(s.numerators(self.W)[0] for s in self.s0)


def _weight(m) -> Fraction:
    return Fraction(1, math.prod(map(math.factorial, m)))


def expand_general(exponents: ExponentSet, base: Base, coefficient: Callable,
                   order: int) -> GammaSeries:
    """Series over A \\ B to the given order with opaque coefficients.

    ``coefficient(m)`` returns a function of the base values (a mapping
    from each base variable to its value); each multi-index m with
    |m| <= order contributes that function times 1 / prod m_w!.  Such a
    series can be evaluated but not differentiated exactly.
    """
    layout = SeriesLayout(exponents, base)
    return GammaSeries(layout, order, [
        OracleTerm(m, _weight(m), coefficient(m))
        for m in multi_indices(len(layout.series_vars), order)])


def gg_series(exponents: ExponentSet, base: Base, u, order: int,
              form: str = "direct") -> GammaSeries:
    """Closed-form series for the monomial-weight kernel with parameters u.

    The term of m is prod_j Gamma(s_j(m)) * (-a_j)**(-s_j(m)) times the
    scalar 1 / prod m_w!, with s(m) from _GammaArguments and the overall
    contour constant fixed to 1 (fitted against quadrature separately).
    Terms whose argument lands on a Gamma pole are flagged, not dropped.

    In reciprocal form each Gamma(s) is read as 1/Gamma(1 - s) =
    Gamma(s) sin(pi s) / pi, and the scalar carries the reflection sign
    (-1)**(k_1 + ... + k_n), with k_j = floor((N m)_j / D) the integer
    part of s_j(m) - s0_j.  sin(pi s_j(m)) / (-1)**k_j then has one
    value on every term of an argument coset, so the series is the
    direct one times a constant per coset, annihilated by the same
    operators.

    The lattice form is written in the same pass over m, with one
    ExactComplex per distinct argument of a base variable and one per
    distinct scalar shared by the terms.  It has one coset, anchored at
    s0, whose offsets are N m.
    """
    layout = SeriesLayout(exponents, base)
    grid = _GammaArguments(layout, u)
    _check_order_and_form(order, form)
    W, D = grid.W, grid.D
    unit = W // D
    reciprocal = form == "reciprocal"
    S = math.factorial(order) if layout.series_vars else 1
    tables = [{} for _ in grid.s0]  # per base variable: (N m)_j -> argument
    scalars = {}  # (prod m_w!, sign) -> (numerator over S, the scalar)
    ms, terms, offsets, numerators = [], [], [], []
    for m in multi_indices(len(layout.series_vars), order):
        args, shifts, flips = [], [], 0
        for n_j, table, a0, s0 in zip(grid.N, tables, grid.A0, grid.s0):
            shift = sum(map(mul, m, n_j))
            arg = table.get(shift)
            if arg is None:
                arg = table[shift] = ExactComplex(
                    Fraction(a0 + shift * unit, W), s0.im)
            args.append(arg)
            shifts.append(shift)
            flips += shift // D
        key = (math.prod(map(math.factorial, m)),
               -1 if reciprocal and flips % 2 else 1)
        scalar = scalars.get(key)
        if scalar is None:
            scalar = scalars[key] = (key[1] * (S // key[0]), ExactComplex(
                Fraction(key[1], key[0]), Fraction(0)))
        terms.append(GammaTerm(m, scalar[1], tuple(args)))
        ms.append(m)
        offsets.append(shifts)
        numerators.append(scalar[0])
    zeros = [0] * len(terms)
    return GammaSeries._built(
        layout, order, form, None, tuple(terms),
        (D, (grid.s0,), zeros, ms, offsets, numerators, zeros, S,
         {(0, j, shift): arg for j, table in enumerate(tables)
          for shift, arg in table.items()}))


def standard_expansion(center: SparsePolynomial, exponents: ExponentSet,
                       moment_oracle: Callable, order: int) -> GammaSeries:
    """Expansion around a center polynomial with all of A as series variables.

    ``moment_oracle(m)`` must return the integral of t**(sum m_w * w)
    times the weight against exp(center); no base is involved.
    """
    if center.dimension != exponents.dimension:
        raise ValueError("dimension mismatch between center and exponents")
    layout = SeriesLayout(exponents, None)
    terms = []
    for m in multi_indices(len(layout.series_vars), order):
        try:
            value = complex(moment_oracle(m))
        except Exception as exc:
            raise RuntimeError(f"moment oracle failed at m={m}") from exc
        terms.append(NumericTerm(m, _weight(m), value))
    return GammaSeries(layout, order, terms)


def _normalize_assignment(layout: SeriesLayout, assignment: Mapping):
    values = {as_coeff_var(key): complex(val)
              for key, val in assignment.items()}
    missing = [v for v in layout.all_vars if v not in values]
    if missing:
        raise ValueError(f"assignment misses variables {missing}")
    return values


def _gamma_part(s: complex, form: str):
    """Gamma(s) (None where it fails) or, in reciprocal form, 1/Gamma(1 - s)."""
    if form == "reciprocal":
        return reciprocal_gamma(1 - s)
    try:
        return complex_gamma(s)
    except SeriesPoleError:
        return None


def _log_reciprocal_gamma(z: complex) -> complex:
    """A logarithm of 1/Gamma(z) (not the principal one); z is not one of
    0, -1, -2, ...  Re z < 1/2 uses the reflection formula, as
    reciprocal_gamma does."""
    if z.real >= 0.5:
        return -_log_gamma(z)
    # sin(pi z) = (-1)**n sin(w) with w = pi (z - n)
    n = round(z.real)
    w = math.pi * (z - n)
    if abs(w.imag) < 20.0:
        log_sin = cmath.log(cmath.sin(w))
    else:
        k = 1 if w.imag > 0 else -1
        log_sin = cmath.log(k * 0.5j) - k * 1j * w
    if n % 2:
        log_sin += 1j * math.pi
    return log_sin + _log_gamma(1 - z) - _LOG_PI


@dataclass(frozen=True)
class ArgumentTable:
    """The distinct Gamma arguments of one base variable over a series."""

    args: tuple        # each distinct s as a complex number
    gammas: tuple      # _gamma_part of each s
    index: np.ndarray  # each term's entry


@dataclass(frozen=True)
class NumericForm:
    """What evaluating a closed-form series needs that no point changes."""

    scalars: np.ndarray     # each term's scalar, complex
    tables: tuple           # one ArgumentTable per base variable
    exponents: np.ndarray   # (terms, series variables) integer matrix of m
    first_pole: int | None  # the first direct-form term on a Gamma pole
    last_order: np.ndarray  # the terms with |m| == truncation order


def _numeric_form(series: GammaSeries) -> NumericForm:
    import numpy as np

    lattice = series.lattice_form()
    direct = series.form == "direct"
    cosets = lattice.coset.tolist()
    tables = []
    poles = np.zeros(len(cosets), dtype=bool)
    for j, offsets in enumerate(lattice.offsets.T.tolist()):
        entries = {}
        index = np.array([entries.setdefault((c, k), len(entries))
                          for c, k in zip(cosets, offsets)], dtype=np.intp)
        exact = [lattice.arguments[c, j, k] for c, k in entries]
        args = tuple(map(complex, exact))
        tables.append(ArgumentTable(
            args, tuple(_gamma_part(s, series.form) for s in args), index))
        if direct:
            on_pole = np.array([a.is_nonpositive_integer() for a in exact],
                               dtype=bool)
            poles |= on_pole[index]
    exponents = lattice.m.astype(np.intp)
    S = lattice.S
    return NumericForm(
        scalars=np.array([complex(p / S, q / S) for p, q in
                          zip(lattice.re.tolist(), lattice.im.tolist())],
                         dtype=complex),
        tables=tuple(tables),
        exponents=exponents,
        first_pole=int(np.argmax(poles)) if poles.any() else None,
        last_order=exponents.sum(axis=1) == series.truncation_order,
    )


def _closed_form_values(series: GammaSeries, values) -> np.ndarray:
    """Each term's value at the point, raising as a term-by-term loop would.

    Per point only (-a_j)**(-s) is computed, once per table entry.  Where
    the Gamma part or the power leaves the double range, so that their
    product comes out 0 or not finite, the product is formed again in
    log space, which keeps it wherever it is itself in range.  A factor
    that is exactly 0 makes its term 0 and hides its later factors.  The
    first term in series order that reaches a failing factor (a Gamma
    overflow or a zero base value under an exponent with nonpositive
    real part) raises, and a direct-form pole term raises SeriesPoleError
    unless an earlier term has raised.
    """
    import numpy as np

    form = series.numeric_form()
    layout = series.layout
    direct = series.form == "direct"
    out = form.scalars.copy()
    live = np.ones(len(out), dtype=bool)
    culprit = np.full(len(out), -1)  # the base variable whose factor failed
    for j, (var, table) in enumerate(zip(layout.base_vars, form.tables)):
        a = values[var]
        factors = np.zeros(len(table.args), dtype=complex)
        failing = np.zeros(len(table.args), dtype=bool)
        for k, (s, g) in enumerate(zip(table.args, table.gammas)):
            if g is None:
                failing[k] = True
                continue
            if g == 0 and not direct and s.imag == 0 and s.real >= 1 \
                    and s.real.is_integer():
                continue  # 1/Gamma(1 - s) is exactly 0 here
            try:
                factor = g * negated_power(a, -s) if g != 0 else 0j
            except ValueError:
                failing[k] = True
                continue
            if (factor == 0 or not cmath.isfinite(factor)) and a != 0:
                log_g = -_log_reciprocal_gamma(s) if direct \
                    else _log_reciprocal_gamma(1 - s)
                factor = _exp(log_g - s * cmath.log(-a))
            factors[k] = factor
        term_factors = factors[table.index]
        culprit[live & failing[table.index]] = j
        live &= term_factors != 0
        out *= term_factors
    stop = len(out) if form.first_pole is None else form.first_pole
    failed = np.flatnonzero(culprit[:stop] >= 0)
    if failed.size:
        # evaluate the failing factor again to raise its exception
        j = culprit[failed[0]]
        entry = form.tables[j].index[failed[0]]
        s = form.tables[j].args[entry]
        if form.tables[j].gammas[entry] is None:
            complex_gamma(s)
        negated_power(values[layout.base_vars[j]], -s)
    if form.first_pole is not None:
        term = series.terms[form.first_pole]
        raise SeriesPoleError(
            f"term m={term.m} has a Gamma pole (args {[str(a) for a in term.args]})"
        )
    for i, var in enumerate(layout.series_vars):
        x = values[var]
        powers = np.array([_int_power(x, k)
                           for k in range(series.truncation_order + 1)],
                          dtype=complex)
        out *= powers[form.exponents[:, i]]
    out[~live] = 0
    return out


def _term_value(term, series: GammaSeries, values) -> complex:
    """One term's value in a series that is not all closed-form."""
    layout = series.layout
    if isinstance(term, GammaTerm):
        alone = GammaSeries(layout, series.truncation_order, [term],
                            form=series.form)
        return complex(_closed_form_values(alone, values)[0])
    series_part = 1.0 + 0j
    for mw, var in zip(term.m, layout.series_vars):
        if mw:
            series_part *= _int_power(values[var], mw)
    if isinstance(term, OracleTerm):
        base_values = {var: values[var] for var in layout.base_vars}
        return float(term.weight) * complex(term.coefficient(base_values)) \
            * series_part
    return float(term.weight) * term.value * series_part


def evaluate_series(series: GammaSeries, assignment: Mapping):
    """Sum the stored terms at the given variable values.

    Returns (value, tail) where tail is the magnitude of the last
    order's contribution, the only truncation indicator available (the
    expansion carries no remainder bound).  Direct-form pole terms raise
    SeriesPoleError; a zero base value under a negative-real-part
    exponent raises ValueError.  Past the double range a power or a term
    overflows to an infinity, and infinities may sum to nan, silently (no
    OverflowError and no warning).  A closed-form series is evaluated in
    arrays from its cached numeric_form().
    """
    values = _normalize_assignment(series.layout, assignment)
    if series.is_closed_form():
        import numpy as np

        # inf and nan arise silently, as in Python's complex arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _closed_form_values(series, values)
            last = terms[series.numeric_form().last_order]
            return complex(terms.sum()), abs(complex(last.sum()))
    total = 0j
    last_order = 0j
    for term in series.terms:
        value = _term_value(term, series, values)
        total += value
        if sum(term.m) == series.truncation_order:
            last_order += value
    return total, abs(last_order)
