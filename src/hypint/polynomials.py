"""Sparse multivariate polynomials over the complex numbers.

Terms are stored as a dict mapping exponent tuples to nonzero complex
coefficients, e.g. 2*t1*t2**3 - 0.5 in two variables is
{(1, 3): 2+0j, (0, 0): -0.5+0j}.  Iteration order is graded
lexicographic so that printing and serialization are deterministic.
Only exact zeros are pruned; tiny coefficients survive arithmetic so
the support (and hence any system generated from it) never changes
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .lattice import ExponentSet, _normalize_member


class CoeffVar(NamedTuple):
    """Names one polynomial coefficient: block i (0 = single polynomial)
    and the exponent of its monomial."""

    block: int
    exponent: tuple

    def __str__(self) -> str:
        body = "_".join(str(e) for e in self.exponent)
        if self.block <= 1:
            return f"c{body}"
        return f"c{self.block}_{body}"


def as_coeff_var(key) -> CoeffVar:
    """The variable an assignment key names: a CoeffVar as given, an
    exponent tuple (or an int, in one variable) as a block-0 variable."""
    if isinstance(key, CoeffVar):
        return key
    if isinstance(key, int):
        key = (key,)
    return CoeffVar(0, tuple(int(e) for e in key))


def joined_vars(exponent_sets) -> tuple:
    """The coefficient variables of several blocks, CoeffVar(i + 1, w) for
    each member w of the i-th set, block after block."""
    return tuple(CoeffVar(i + 1, w)
                 for i, s in enumerate(exponent_sets) for w in s.members)


def _check_coeff(value) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError("polynomial coefficients must be finite")
    return value


def _grlex(exponent):
    return (sum(exponent), exponent)


class SparsePolynomial:
    """Immutable sparse polynomial; do not mutate ``terms`` after creation."""

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms: Mapping | None = None):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        cleaned = {}
        for exponent, coeff in (terms or {}).items():
            exponent = _normalize_member(exponent, dimension)
            coeff = _check_coeff(coeff)
            if coeff != 0:
                cleaned[exponent] = cleaned.get(exponent, 0) + coeff
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(
            self, "terms", dict(sorted(cleaned.items(), key=lambda kv: _grlex(kv[0])))
        )

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    @staticmethod
    def zero(dimension: int) -> "SparsePolynomial":
        return SparsePolynomial(dimension, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> ExponentSet:
        return ExponentSet(self.dimension, list(self.terms))

    def coefficient(self, exponent) -> complex:
        return self.terms.get(_normalize_member(exponent, self.dimension), 0j)

    def evaluate(self, point) -> complex:
        """Value at a complex point (sequence of length n, or scalar if n=1)."""
        if isinstance(point, (int, float, complex)):
            point = (point,)
        point = tuple(point)
        if len(point) != self.dimension:
            raise ValueError(
                f"point has length {len(point)}, expected {self.dimension}"
            )
        total = 0j
        for exponent, coeff in self.terms.items():
            term = coeff
            for z, e in zip(point, exponent):
                if e:
                    term *= z ** e
            total += term
        return total

    def partial_derivative(self, axis: int) -> "SparsePolynomial":
        """Derivative along the 1-based axis."""
        if not 1 <= axis <= self.dimension:
            raise ValueError(f"axis {axis} out of range 1..{self.dimension}")
        j = axis - 1
        out = {}
        for exponent, coeff in self.terms.items():
            if exponent[j] == 0:
                continue
            lowered = exponent[:j] + (exponent[j] - 1,) + exponent[j + 1:]
            out[lowered] = out.get(lowered, 0) + exponent[j] * coeff
        return SparsePolynomial(self.dimension, out)

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        merged = dict(self.terms)
        for exponent, coeff in other.terms.items():
            merged[exponent] = merged.get(exponent, 0) + coeff
        return SparsePolynomial(self.dimension, merged)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.dimension, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, tuple(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"SparsePolynomial({self.dimension}, 0)"
        bits = []
        for exponent, coeff in self.terms.items():
            mono = "*".join(
                f"t{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exponent) if e
            )
            bits.append(f"({coeff})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


@dataclass(frozen=True, init=False)
class Perturbation:
    """A center polynomial plus coefficient shifts on a declared support."""

    support: ExponentSet
    center: SparsePolynomial
    deltas: tuple

    def __init__(self, support: ExponentSet, center: SparsePolynomial,
                 deltas: Mapping):
        if center.dimension != support.dimension:
            raise ValueError("dimension mismatch between center and support")
        for exponent in center.terms:
            if exponent not in support:
                raise ValueError(
                    f"center term {exponent} lies outside the declared support"
                )
        cleaned = []
        for exponent, value in deltas.items():
            exponent = _normalize_member(exponent, support.dimension)
            if exponent not in support:
                raise ValueError(f"delta {exponent} lies outside the support")
            cleaned.append((exponent, _check_coeff(value)))
        cleaned.sort(key=lambda kv: _grlex(kv[0]))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "deltas", tuple(cleaned))


def apply_perturbation(perturbation: Perturbation) -> SparsePolynomial:
    """Coefficient-wise sum of the center and the shifts (exact zeros drop)."""
    shift = SparsePolynomial(perturbation.support.dimension,
                             dict(perturbation.deltas))
    return perturbation.center + shift


def cayley_polynomial(*polys: SparsePolynomial) -> SparsePolynomial:
    """Combine P_1..P_k in n variables into sum_i y_i * P_i in n + k variables.

    The support of the result is the joined support set: each term
    (w, coeff) of P_i becomes the term (w, e_i) with the same coefficient.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    n = polys[0].dimension
    for p in polys:
        if p.dimension != n:
            raise ValueError("all polynomials must share one dimension")
    k = len(polys)
    terms = {}
    for i, p in enumerate(polys):
        tag = tuple(1 if j == i else 0 for j in range(k))
        for exponent, coeff in p.terms.items():
            terms[exponent + tag] = coeff
    return SparsePolynomial(n + k, terms)
