import itertools
import random
from fractions import Fraction

import pytest

from exact_reference import solve_exact
from hypint.lattice import (Base, ExponentSet, LatticeRelation, base_coords,
                            base_inverse, cayley_set, enumerate_bases, int_det,
                            kernel_basis)


def brute_force_kernel(members, bound=4, homogeneous=False):
    """Every integer kernel vector with entries in [-bound, bound]."""
    n = len(members[0])
    out = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=len(members)):
        if all(v == 0 for v in vec):
            continue
        if any(sum(c * w[j] for c, w in zip(vec, members)) for j in range(n)):
            continue
        if homogeneous and sum(vec):
            continue
        out.append(vec)
    return out


def in_lattice(vec, basis):
    """Exact check that vec is an integer combination of the basis rows."""
    cols = list(range(len(vec)))
    # solve on an invertible column subset, then confirm every coordinate
    for combo in itertools.combinations(cols, len(basis)):
        sub = [[Fraction(basis[i][j]) for i in range(len(basis))] for j in combo]
        try:
            x = solve_exact(sub, [Fraction(vec[j]) for j in combo])
        except ValueError:
            continue
        if any(xi.denominator != 1 for xi in x):
            return False
        recon = [sum(int(xi) * b[j] for xi, b in zip(x, basis))
                 for j in cols]
        return recon == list(vec)
    return False


class TestExponentSet:
    def test_normalizes_ints_in_dimension_one(self):
        A = ExponentSet(1, [1, 2, 3])
        assert A.members == ((1,), (2,), (3,))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ExponentSet(1, [1, 1])

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            ExponentSet(2, [(1, -1)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ExponentSet(2, [(1, 0), (1,)])


class TestBaseCoords:
    def test_standard_basis_identity(self):
        A = ExponentSet(2, [(1, 0), (0, 1)])
        B = Base(A, (0, 1))
        assert base_coords(B, (2, 3)) == (Fraction(2), Fraction(3))

    def test_exact_two_by_two(self):
        A = ExponentSet(2, [(1, 0), (1, 2)])
        B = Base(A, (0, 1))
        assert base_coords(B, (2, 2)) == (Fraction(1), Fraction(1))
        assert base_coords(B, (0, 1)) == (Fraction(-1, 2), Fraction(1, 2))

    def test_base_members_get_unit_coordinates(self):
        A = ExponentSet(2, [(1, 1), (2, 0), (0, 3)])
        for B in enumerate_bases(A):
            for j, w in enumerate(B.vectors):
                coords = base_coords(B, w)
                assert coords == tuple(
                    Fraction(1 if i == j else 0) for i in range(2))

    def test_dimension_mismatch(self):
        A = ExponentSet(2, [(1, 0), (0, 1)])
        B = Base(A, (0, 1))
        with pytest.raises(ValueError):
            base_coords(B, (1, 2, 3))

    def test_reconstruction_is_exact(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            members = set()
            while len(members) < n + 2:
                members.add(tuple(rng.randint(0, 6) for _ in range(n)))
            A = ExponentSet(n, sorted(members))
            bases = enumerate_bases(A)
            if not bases:
                continue
            B = rng.choice(bases)
            w = rng.choice(A.members)
            coords = base_coords(B, w)
            recon = tuple(
                sum(c * v[j] for c, v in zip(coords, B.vectors))
                for j in range(n))
            assert recon == tuple(Fraction(x) for x in w)

    def test_base_inverse_is_the_adjugate(self):
        # adj B . B = det B . I, with det B from int_det, and base_coords
        # equals Gaussian elimination over Fractions; reversed indices
        # give bases of negative determinant
        rng = random.Random(11)
        signs = set()
        for _ in range(200):
            n = rng.randint(1, 4)
            members = set()
            while len(members) < n + 2:
                members.add(tuple(rng.randint(0, 6) for _ in range(n)))
            A = ExponentSet(n, sorted(members))
            bases = enumerate_bases(A)
            if not bases:
                continue
            B = rng.choice(bases)
            if rng.random() < 0.5:
                B = Base(A, B.indices[::-1])
            det, adj = base_inverse(B)
            columns = [list(v) for v in zip(*B.vectors)]
            assert det == int_det(columns)
            signs.add(det > 0)
            assert [[sum(a * columns[k][j] for k, a in enumerate(row))
                     for j in range(n)] for row in adj] == \
                [[det if i == j else 0 for j in range(n)] for i in range(n)]
            w = rng.choice(A.members)
            rows = [[Fraction(x) for x in row] for row in columns]
            assert list(base_coords(B, w)) == solve_exact(
                rows, [Fraction(x) for x in w])
        assert signs == {True, False}


class TestKernelBasis:
    def test_one_dim_lattice_equality(self):
        A = ExponentSet(1, [1, 2, 3])
        basis = [r.coefficients for r in kernel_basis(A)]
        assert len(basis) == 2
        brute = brute_force_kernel(A.members)
        assert all(in_lattice(v, basis) for v in brute)
        reference = [(2, -1, 0), (3, 0, -1)]
        assert all(in_lattice(v, reference) for v in basis)

    def test_homogeneous_rank_one(self):
        A = ExponentSet(1, [1, 2, 3])
        basis = kernel_basis(A, homogeneous=True)
        assert len(basis) == 1
        assert basis[0].coefficients == (1, -2, 1)

    def test_independent_columns_trivial_kernel(self):
        A = ExponentSet(2, [(1, 0), (0, 1)])
        assert kernel_basis(A) == []

    def test_relation_invariants(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 4)
            members = set()
            while len(members) < rng.randint(n, n + 3):
                members.add(tuple(rng.randint(0, 6) for _ in range(n)))
            A = ExponentSet(n, sorted(members))
            for hom in (False, True):
                for rel in kernel_basis(A, homogeneous=hom):
                    for j in range(n):
                        assert sum(c * w[j] for c, w in
                                   zip(rel.coefficients, A.members)) == 0
                    if hom:
                        assert sum(rel.coefficients) == 0

    def test_joined_set_kernel_respects_block_counts(self):
        # the unit-tag rows force the relation to balance within each block
        A1 = ExponentSet(1, [0, 1, 2])
        A2 = ExponentSet(1, [1, 3])
        joined = cayley_set(A1, A2)
        sizes = [len(A1), len(A2)]
        for rel in kernel_basis(joined):
            offset = 0
            for size in sizes:
                assert sum(rel.coefficients[offset:offset + size]) == 0
                offset += size

    def test_zero_relation_rejected(self):
        A = ExponentSet(1, [1, 2])
        with pytest.raises(ValueError):
            LatticeRelation(A, (0, 0))

    def test_non_relation_rejected(self):
        A = ExponentSet(1, [1, 2])
        with pytest.raises(ValueError):
            LatticeRelation(A, (1, 1))


class TestCayleySet:
    def test_single_block(self):
        A = ExponentSet(1, [0, 1, 2])
        assert cayley_set(A).members == ((0, 1), (1, 1), (2, 1))

    def test_two_blocks(self):
        A1 = ExponentSet(1, [0, 1])
        A2 = ExponentSet(1, [2])
        assert cayley_set(A1, A2).members == ((0, 1, 0), (1, 1, 0), (2, 0, 1))

    def test_constant_term_only(self):
        A = ExponentSet(2, [(0, 0)])
        assert cayley_set(A).members == ((0, 0, 1),)

    def test_tag_coordinates_sum_to_one(self):
        A1 = ExponentSet(2, [(0, 0), (1, 2)])
        A2 = ExponentSet(2, [(3, 0)])
        joined = cayley_set(A1, A2)
        for w in joined.members:
            assert sum(w[2:]) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cayley_set(ExponentSet(1, [1]), ExponentSet(2, [(1, 0)]))


class TestEnumerateBases:
    def test_dimension_one_every_member(self):
        A = ExponentSet(1, [1, 2])
        assert [b.indices for b in enumerate_bases(A)] == [(0,), (1,)]

    def test_all_pairs_when_independent(self):
        A = ExponentSet(2, [(1, 0), (0, 1), (1, 1)])
        assert [b.indices for b in enumerate_bases(A)] == [(0, 1), (0, 2), (1, 2)]

    def test_collinear_gives_nothing(self):
        A = ExponentSet(2, [(1, 1), (2, 2)])
        assert enumerate_bases(A) == []

    def test_dependent_base_rejected(self):
        A = ExponentSet(2, [(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            Base(A, (0, 1))


def test_int_det_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        d = int_det(m)
        # expansion by permutations as the independent reference
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
        assert d == total
