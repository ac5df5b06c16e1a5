"""Exact integer and rational linear algebra on sets of monomial exponents.

Provides the combinatorial layer everything else is built on: exponent
sets, bases (linearly independent n-subsets), rational coordinates with
respect to a base, integer kernel lattices of exponent matrices, and the
extra-variable set construction that turns several polynomial supports
into a single one.

All values are immutable and all operations are pure functions; results
are deterministic (fixed enumeration orders, normalized signs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

ExponentVector = tuple  # tuple[int, ...]; the multi-degree of a monomial


def _normalize_member(member, dimension: int) -> ExponentVector:
    if isinstance(member, int):
        member = (member,)
    member = tuple(int(e) for e in member)
    if len(member) != dimension:
        raise ValueError(
            f"exponent {member} has length {len(member)}, expected {dimension}"
        )
    if any(e < 0 for e in member):
        raise ValueError(f"negative exponent in {member}: only polynomial "
                         "exponents are supported")
    return member


@dataclass(frozen=True, init=False)
class ExponentSet:
    """An ordered set of distinct exponent vectors in Z^n (entries >= 0)."""

    dimension: int
    members: tuple

    def __init__(self, dimension: int, members: Iterable = ()):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        norm = tuple(_normalize_member(m, dimension) for m in members)
        if len(set(norm)) != len(norm):
            raise ValueError("exponent set members must be distinct")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "members", norm)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, member) -> bool:
        try:
            return _normalize_member(member, self.dimension) in self.members
        except ValueError:
            return False

    def index(self, member) -> int:
        return self.members.index(_normalize_member(member, self.dimension))


@dataclass(frozen=True, init=False)
class Base:
    """n member indices of an ExponentSet whose vectors are independent."""

    parent: ExponentSet
    indices: tuple

    def __init__(self, parent: ExponentSet, indices: Sequence[int]):
        indices = tuple(int(i) for i in indices)
        n = parent.dimension
        if len(indices) != n:
            raise ValueError(f"a base needs {n} indices, got {len(indices)}")
        if len(set(indices)) != len(indices):
            raise ValueError("base indices must be distinct")
        if not all(0 <= i < len(parent.members) for i in indices):
            raise ValueError("base index out of range")
        vectors = [parent.members[i] for i in indices]
        if int_det([list(v) for v in vectors]) == 0:
            raise ValueError(f"vectors {vectors} are linearly dependent")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "indices", indices)

    @property
    def vectors(self) -> tuple:
        return tuple(self.parent.members[i] for i in self.indices)


@dataclass(frozen=True, init=False)
class LatticeRelation:
    """An integer vector u over the members of a set with sum_w u_w * w = 0.

    With ``homogeneous`` the coefficients additionally sum to zero.
    """

    exponents: ExponentSet
    coefficients: tuple
    homogeneous: bool = False

    def __init__(self, exponents: ExponentSet, coefficients: Sequence[int],
                 homogeneous: bool = False):
        coefficients = tuple(int(c) for c in coefficients)
        if len(coefficients) != len(exponents.members):
            raise ValueError("relation length does not match the exponent set")
        if all(c == 0 for c in coefficients):
            raise ValueError("the zero vector is not a lattice relation")
        n = exponents.dimension
        for j in range(n):
            if sum(c * w[j] for c, w in zip(coefficients, exponents.members)):
                raise ValueError(f"{coefficients} is not a relation among "
                                 f"{exponents.members}")
        if homogeneous and sum(coefficients) != 0:
            raise ValueError("coefficients of a homogeneous relation must "
                             "sum to zero")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "homogeneous", homogeneous)


def unit_exponents(n: int) -> list:
    """The standard unit vectors of Z^n, the exponents of t_1, ..., t_n."""
    return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]


def int_det(matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def base_inverse(base: Base) -> tuple:
    """(det B, adj B) of the matrix B whose columns are the base vectors.

    adj B is the integer adjugate (the transposed cofactors, a tuple of
    rows), so B^-1 = adj B / det B: the coordinates of any vector v in
    the base are adj B v / det B, with one integer denominator.
    """
    columns = [list(v) for v in zip(*base.vectors)]
    n = len(columns)
    adj = tuple(
        tuple((-1) ** (i + j) * int_det([row[:i] + row[i + 1:]
                                         for k, row in enumerate(columns)
                                         if k != j])
              for j in range(n))
        for i in range(n))
    return int_det(columns), adj


def base_coords(base: Base, omega) -> tuple:
    """Exact rational coordinates of ``omega`` in the given base.

    Returns l = (l^1, ..., l^n) with sum_j l^j * base_vector_j = omega,
    as adj B omega / det B from base_inverse (no floating arithmetic).
    """
    omega = _normalize_member(omega, base.parent.dimension)
    det, adj = base_inverse(base)
    return tuple(Fraction(sum(map(mul, row, omega)), det) for row in adj)


def kernel_basis(exponents: ExponentSet, homogeneous: bool = False):
    """Basis of the integer kernel lattice of the exponent matrix.

    The matrix has the members of ``exponents`` as columns; with
    ``homogeneous`` an all-ones row is appended, so relations also
    preserve the number of factors.  Row-reduces [M^T | I] over Z with
    unimodular operations; the identity parts of the zero rows of the
    reduced M^T form a basis of the full kernel lattice.

    Returns a (possibly empty) list of LatticeRelation; the count equals
    ``len(exponents) - rank``.
    """
    members = exponents.members
    if not members:
        raise ValueError("kernel_basis requires a nonempty exponent set")
    ncols = exponents.dimension + (1 if homogeneous else 0)
    nrows = len(members)
    aug = []
    for r, w in enumerate(members):
        row = list(w) + ([1] if homogeneous else [])
        row += [1 if c == r else 0 for c in range(nrows)]
        aug.append(row)

    pivot_row = 0
    for col in range(ncols):
        while True:
            live = [r for r in range(pivot_row, nrows) if aug[r][col] != 0]
            if not live:
                break
            best = min(live, key=lambda r: abs(aug[r][col]))
            aug[pivot_row], aug[best] = aug[best], aug[pivot_row]
            done = True
            p = aug[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if aug[r][col] != 0:
                    q = aug[r][col] // p
                    aug[r] = [a - q * b for a, b in zip(aug[r], aug[pivot_row])]
                    if aug[r][col] != 0:
                        done = False
            if done:
                pivot_row += 1
                break

    basis = []
    for r in range(pivot_row, nrows):
        vec = aug[r][ncols:]
        lead = next(v for v in vec if v != 0)
        if lead < 0:
            vec = [-v for v in vec]
        basis.append(LatticeRelation(exponents, vec, homogeneous=homogeneous))
    return basis


def cayley_set(*exponent_sets: ExponentSet) -> ExponentSet:
    """Join k exponent sets in n variables into one set in n + k variables.

    Each member of the i-th set is extended by the i-th standard unit
    vector in the trailing k slots, so the blocks stay disjoint.
    """
    if not exponent_sets:
        raise ValueError("need at least one exponent set")
    n = exponent_sets[0].dimension
    for s in exponent_sets:
        if s.dimension != n:
            raise ValueError("all exponent sets must share one dimension")
    k = len(exponent_sets)
    members = []
    for i, s in enumerate(exponent_sets):
        tag = tuple(1 if j == i else 0 for j in range(k))
        for w in s.members:
            members.append(w + tag)
    return ExponentSet(n + k, members)


def enumerate_bases(exponents: ExponentSet):
    """All bases of the set, in lexicographic order of their index tuples."""
    n = exponents.dimension
    bases = []
    for combo in itertools.combinations(range(len(exponents.members)), n):
        vectors = [list(exponents.members[i]) for i in combo]
        if int_det(vectors) != 0:
            bases.append(Base(exponents, combo))
    return bases
