"""Gaussian elimination over an exact field, kept in the tests as a
reference independent of the library's integer-adjugate route."""


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
