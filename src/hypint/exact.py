"""Exact complex-rational arithmetic.

The series layer keeps term scalars and power-function exponents in
Q(i) so that operator application cancels terms exactly instead of to
rounding error.  Floats convert losslessly (every float is a rational),
so callers may pass ordinary complex numbers for parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError("cannot represent non-finite value exactly")
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


@dataclass(frozen=True)
class ExactComplex:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def from_value(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, complex):
            return ExactComplex(_as_fraction(x.real), _as_fraction(x.imag))
        return ExactComplex(_as_fraction(x), Fraction(0))

    def __add__(self, other):
        other = ExactComplex.from_value(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-ExactComplex.from_value(other))

    def __rsub__(self, other):
        return ExactComplex.from_value(other) + (-self)

    def __mul__(self, other):
        # a real factor (int, Fraction or zero imaginary part) scales both
        # parts; the general formula would only add exact zeros
        if isinstance(other, (int, Fraction)):
            return ExactComplex(self.re * other, self.im * other)
        other = ExactComplex.from_value(other)
        if not other.im:
            return ExactComplex(self.re * other.re, self.im * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.from_value(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("exact complex division by zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return ExactComplex.from_value(other) / self

    def numerators(self, den: int) -> tuple:
        """Integers (p, q) with self = (p + q i) / den; ``den`` must be a
        multiple of both parts' denominators."""
        return (self.re.numerator * (den // self.re.denominator),
                self.im.numerator * (den // self.im.denominator))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_nonpositive_integer(self) -> bool:
        """True when the value is in {0, -1, -2, ...} (a Gamma pole)."""
        return self.im == 0 and self.re.denominator == 1 and self.re <= 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = ExactComplex(Fraction(0), Fraction(0))
ONE = ExactComplex(Fraction(1), Fraction(0))


def common_denominator(values) -> int:
    """The least common denominator of the parts of ExactComplex values."""
    return math.lcm(*{x.denominator for v in values for x in (v.re, v.im)})


def solve_exact(rows, rhs):
    """Solve a square linear system by Gaussian elimination over a field.

    ``rows`` is a list of n lists and ``rhs`` a list of n values; entries
    may be Fraction or ExactComplex (anything supporting exact +,-,*,/).
    Raises ValueError when the matrix is singular.
    """
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix in exact solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [entry / pv for entry in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]
