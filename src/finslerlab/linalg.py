"""Small dense linear algebra over generic scalars (floats, arrays or jets).

Charts here have n <= 4, so plain Gaussian elimination with partial
pivoting is both fast enough and exact modulo rounding.  Pivots are
chosen by the magnitude of the standard part, which keeps the pivot
sequence identical between a float evaluation and a jet evaluation of
the same matrix.  A matrix whose entries are floats and 1-D arrays is a
batch of matrices, one per array element; `inv` hands it to a stacked
LAPACK inverse.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .jets import Jet, standard_part


class SingularMatrixError(ZeroDivisionError):
    """Matrix with a (numerically) vanishing pivot."""


def det(matrix) -> object:
    """Determinant via LU with partial pivoting; scalar type follows entries."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    sign = 1.0
    result = 1.0
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(standard_part(a[r][col])))
        if abs(standard_part(a[pivot_row][col])) == 0.0:
            return 0.0 * result
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        result = result * pivot
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - factor * a[col][c]
    return sign * result


def inv(matrix) -> list:
    """Inverse via Gauss-Jordan; raises SingularMatrixError on rank loss.

    A batch (float and array entries, at least one array) is inverted by
    one stacked `np.linalg.inv`; its entries come back as arrays, and a
    singular member raises SingularMatrixError for the whole batch.
    """
    n = len(matrix)
    leaves = {type(entry) for row in matrix for entry in row}
    if np.ndarray in leaves and Jet not in leaves:
        return _inv_batch(matrix, n)
    # Float matrices skip the standard-part walk; the pivots are the same.
    magnitude = abs if leaves == {float} else (lambda e: abs(standard_part(e)))
    a = [list(row) for row in matrix]
    b = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: magnitude(a[r][col]))
        if magnitude(a[pivot_row][col]) == 0.0:
            raise SingularMatrixError(f"singular matrix (pivot column {col})")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        for c in range(n):
            a[col][c] = a[col][c] / pivot
            b[col][c] = b[col][c] / pivot
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if isinstance(factor, float) and factor == 0.0:
                continue
            for c in range(n):
                a[r][c] = a[r][c] - factor * a[col][c]
                b[r][c] = b[r][c] - factor * b[col][c]
    return b


def _inv_batch(matrix, n: int) -> list:
    """inv of a batch of matrices given by float and 1-D array entries."""
    size = next(len(e) for row in matrix for e in row if isinstance(e, np.ndarray))
    stacked = np.empty((size, n, n))
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            stacked[:, i, j] = entry
    try:
        result = np.linalg.inv(stacked)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix in a batch of {size}: {exc}") from None
    return [list(row) for row in np.ascontiguousarray(result.transpose(1, 2, 0))]


def sum_(terms):
    """Left-to-right sum without a float 0 start (keeps jet types clean)."""
    terms = iter(terms)
    for first in terms:
        return reduce(add, terms, first)
    return 0.0
