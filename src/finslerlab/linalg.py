"""Small dense linear algebra over generic scalars (floats, arrays or jets).

Charts here have n <= 4, so plain Gaussian elimination with partial
pivoting is both fast enough and exact modulo rounding.  Pivots are
chosen by the magnitude of the standard part, which keeps the pivot
sequence identical between a float evaluation and a jet evaluation of
the same matrix.  A matrix whose leaves include 1-D arrays is a batch,
one matrix per lane.  The elimination is the float path's own; each
lane picks its pivot row from its own standard parts, and a lane whose
pivot row differs from the others' swaps its rows by a masked select,
so every lane equals the float result of its matrix bit for bit.  A
zero pivot in any lane raises SingularMatrixError, in det as in inv:
jets.lanewise then hands the batch to the per-matrix float loop, where
det returns 0.0 for that matrix and inv raises.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .jets import select, standard_part


class SingularMatrixError(ZeroDivisionError):
    """Matrix with a (numerically) vanishing pivot."""


def det(matrix) -> object:
    """Determinant via LU with partial pivoting; scalar type follows entries.
    A zero pivot gives 0.0 * result; in a batch it raises
    SingularMatrixError instead, as inv does."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    lanes = _has_lanes(a)
    sign = 1.0
    result = 1.0
    for col in range(n):
        if lanes:
            magnitude, swapped = _pivot_lanes(col, a)
            if not magnitude.all():
                raise SingularMatrixError(f"singular matrix (pivot column {col})")
            sign = select(swapped, -sign, sign)
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
    return sign * result


def inv(matrix) -> list:
    """Inverse via Gauss-Jordan; raises SingularMatrixError on rank loss
    (in a batch, when any lane has a zero pivot).  The elimination updates
    only the columns of `a` right of the pivot: no later step reads the
    others."""
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
        top, b_top = a[col], b[col]
        pivot = top[col]
        for c in range(n):
            if c > col:
                top[c] = top[c] / pivot
            b_top[c] = b_top[c] / pivot
        for r in range(n):
            if r == col:
                continue
            row, b_row = a[r], b[r]
            factor = row[col]
            if isinstance(factor, float):
                if factor == 0.0:
                    continue
            elif isinstance(factor, np.ndarray):
                # Each lane skips a zero factor, as the float path does:
                # x - 0 * y is not x when x is -0.0 or y is not finite.
                nonzero = np.count_nonzero(factor)
                if nonzero == 0:
                    continue
                if nonzero < factor.size:
                    zero = factor == 0.0
                    row[col + 1 :] = [
                        select(zero, e, e - factor * t) for e, t in zip(row[col + 1 :], top[col + 1 :])
                    ]
                    b_row[:] = [select(zero, e, e - factor * t) for e, t in zip(b_row, b_top)]
                    continue
            for c in range(n):
                if c > col:
                    row[c] = row[c] - factor * top[c]
                b_row[c] = b_row[c] - factor * b_top[c]
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
    mask of lanes that swapped.  A candidate that is the float 0.0 is
    skipped: 0.0 > best is false for every best >= 0 and for NaN.
    """
    best = abs(standard_part(a[col][col]))
    row = col
    for r in range(col + 1, len(a)):
        entry = a[r][col]
        if isinstance(entry, float) and entry == 0.0:
            continue
        candidate = abs(standard_part(entry))
        better = candidate > best
        best = np.where(better, candidate, best)
        row = np.where(better, r, row)
    for r in range(col + 1, len(a)):
        mask = row == r
        if np.any(mask):
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
