"""Small dense linear algebra over generic scalars (floats, arrays or jets).

Charts here have n <= 4, so plain Gaussian elimination with partial
pivoting is both fast enough and exact modulo rounding.  Pivots are
chosen by the magnitude of the standard part, which keeps the pivot
sequence identical between a float evaluation and a jet evaluation of
the same matrix.  A matrix whose leaves include 1-D arrays is a batch,
one matrix per lane.  The elimination is the float path's own; each
lane picks its pivot row from its own standard parts, and a lane whose
pivot row differs from the others' swaps its rows by a masked select,
so every lane equals the float result of its matrix bit for bit.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .jets import select, standard_part


class SingularMatrixError(ZeroDivisionError):
    """Matrix with a (numerically) vanishing pivot."""


def det(matrix) -> object:
    """Determinant via LU with partial pivoting; scalar type follows entries."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    lanes = _has_lanes(a)
    sign = 1.0
    result = 1.0
    done = None  # lanes whose determinant is already zero, with their value
    for col in range(n):
        if lanes:
            magnitude, swapped = _pivot_lanes(col, a)
            sign = select(swapped, -sign, sign)
            zero = magnitude == 0.0
            if zero.any():
                # These lanes end as the float path returns: 0.0 * result.
                # A unit pivot keeps their elimination finite until then.
                if done is None:
                    done, early = zero, 0.0 * result
                else:
                    early = select(zero & ~done, 0.0 * result, early)
                    done = done | zero
            pivot = a[col][col] if done is None else select(done, 1.0, a[col][col])
        else:
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
    return sign * result if done is None else select(done, early, sign * result)


def inv(matrix) -> list:
    """Inverse via Gauss-Jordan; raises SingularMatrixError on rank loss
    (in a batch, when any lane has a zero pivot)."""
    n = len(matrix)
    leaves = {type(entry) for row in matrix for entry in row}
    # Float matrices skip the standard-part walk; the pivots are the same.
    magnitude = abs if leaves == {float} else (lambda e: abs(standard_part(e)))
    a = [list(row) for row in matrix]
    b = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    lanes = leaves != {float} and _has_lanes(a)
    for col in range(n):
        if lanes:
            if not _pivot_lanes(col, a, b)[0].all():
                raise SingularMatrixError(f"singular matrix (pivot column {col})")
        else:
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


def _stacked(matrix) -> np.ndarray:
    """A matrix of float or 1-D array leaves as one (n, n) or (lanes, n, n) array."""
    entries = [e for row in matrix for e in row]
    if not any(isinstance(e, np.ndarray) for e in entries):
        return np.array(matrix, dtype=float)
    n = len(matrix)
    flat = np.array(np.broadcast_arrays(*entries))
    return np.moveaxis(flat, 0, -1).reshape(flat.shape[1:] + (n, n))


def _has_lanes(matrix) -> bool:
    return any(isinstance(standard_part(e), np.ndarray) for row in matrix for e in row)


def _pivot_lanes(col: int, a: list, *others: list):
    """Partial pivoting in column `col` of `a`, lane by lane.

    In every lane the first row at or below `col` whose standard part is
    largest in magnitude (the row max picks on floats) swaps with row
    `col`, in `a` and in `others`.  Returns the pivot magnitude and the
    mask of lanes that swapped.
    """
    best = abs(standard_part(a[col][col]))
    row = col
    for r in range(col + 1, len(a)):
        candidate = abs(standard_part(a[r][col]))
        better = candidate > best
        best = np.where(better, candidate, best)
        row = np.where(better, r, row)
    for r in range(col + 1, len(a)):
        mask = row == r
        if mask.any():
            for rows in (a, *others):
                for c, (x, y) in enumerate(zip(rows[col], rows[r])):
                    rows[col][c], rows[r][c] = select(mask, y, x), select(mask, x, y)
    return np.asarray(best), np.asarray(row != col)


def sum_(terms):
    """Left-to-right sum without a float 0 start (keeps jet types clean)."""
    terms = iter(terms)
    for first in terms:
        return reduce(add, terms, first)
    return 0.0
