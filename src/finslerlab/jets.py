"""Nestable truncated-Taylor scalars (forward-mode differentiation).

A Jet holds a value plus one partial-derivative slot per seeded direction.
Both the value and the slots may themselves be Jets, so stacking two or
three levels yields exact second and third mixed partials.  Plain floats
mix freely with Jets and act as constants, which keeps constant-heavy
expressions cheap.

The innermost leaves may be floats or 1-D float64 NumPy arrays; an
array leaf holds one value per member of a batch, and the primitives
below send it to the matching NumPy ufunc, so one evaluation serves the
whole batch.  Jets sit above arrays: ``Jet.__array_ufunc__ = None``
makes ``ndarray * Jet`` defer to the Jet operators.

Discipline for nesting: every *Jet-valued* scalar entering a computation
at a new derivative level must be wrapped as a constant at that level
(see ``seed_group``); bare floats need no wrapping.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

Scalar = Union[float, np.ndarray, "Jet"]

__all__ = [
    "Jet",
    "Scalar",
    "seed",
    "seed_group",
    "partial",
    "value_of",
    "standard_part",
    "is_constant",
    "gradient",
    "hessian",
    "third_order",
    "fd_oracle",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "tanh",
    "intpow",
    "powf",
]


class Jet:
    """Truncated first-order Taylor scalar with nestable slots."""

    __slots__ = ("value", "partials")

    # NumPy binary operators return NotImplemented, so `ndarray op Jet`
    # reaches the reflected Jet method instead of looping over the array.
    __array_ufunc__ = None

    def __init__(self, value: Scalar, partials: tuple):
        self.value = value
        self.partials = partials

    def __repr__(self) -> str:
        return f"Jet({self.value!r}, {self.partials!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in +")
            return Jet(
                self.value + other.value,
                tuple([a + b for a, b in zip(self.partials, other.partials)]),
            )
        return Jet(self.value + other, self.partials)

    def __radd__(self, other):
        return Jet(other + self.value, self.partials)

    def __sub__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in -")
            return Jet(
                self.value - other.value,
                tuple([a - b for a, b in zip(self.partials, other.partials)]),
            )
        return Jet(self.value - other, self.partials)

    def __rsub__(self, other):
        return Jet(other - self.value, tuple([-p for p in self.partials]))

    def __neg__(self):
        return Jet(-self.value, tuple([-p for p in self.partials]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in *")
            sv, ov = self.value, other.value
            return Jet(
                sv * ov,
                tuple([sv * q + ov * p for p, q in zip(self.partials, other.partials)]),
            )
        return Jet(self.value * other, tuple([p * other for p in self.partials]))

    def __rmul__(self, other):
        return Jet(other * self.value, tuple([other * p for p in self.partials]))

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in /")
            d = other.value
            q = self.value / d
            return Jet(
                q, tuple([(p - q * r) / d for p, r in zip(self.partials, other.partials)])
            )
        return Jet(self.value / other, tuple([p / other for p in self.partials]))

    def __rtruediv__(self, other):
        q = other / self.value
        factor = -q / self.value
        return Jet(q, tuple([factor * p for p in self.partials]))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return intpow(self, exponent)
        raise TypeError("Jet ** only supports integer exponents; use powf")


# -- seeding and extraction ---------------------------------------------------


def seed(point: Sequence[float], directions=None) -> list:
    """Jets over `point` with the identity seed matrix on `directions`.

    Slot k corresponds to coordinate k; unseeded coordinates get all-zero
    partials.  ``directions=None`` seeds every coordinate.
    """
    n = len(point)
    if directions is None:
        chosen = set(range(n))
    else:
        chosen = set(directions)
        for i in chosen:
            if not 0 <= i < n:
                raise IndexError(f"seed direction {i} out of range for dimension {n}")
    return [
        Jet(
            float(point[i]),
            tuple([1.0 if (j == i and i in chosen) else 0.0 for j in range(n)]),
        )
        for i in range(n)
    ]


def seed_group(values: Sequence[Scalar], indices: Sequence[int]) -> list:
    """Add a new outermost derivative level with one slot per entry of `indices`.

    values[indices[k]] receives a unit partial in slot k; every other entry
    becomes a constant at the new level (Jets are wrapped, floats pass
    through).  Repeated application stacks levels for higher derivatives.
    """
    width = len(indices)
    slot = {idx: k for k, idx in enumerate(indices)}
    zeros = (0.0,) * width
    out = []
    for i, val in enumerate(values):
        k = slot.get(i)
        if k is None:
            out.append(Jet(val, zeros) if isinstance(val, Jet) else val)
        else:
            out.append(Jet(val, tuple([1.0 if j == k else 0.0 for j in range(width)])))
    return out


def partial(scalar: Scalar, k: int) -> Scalar:
    """Partial in slot k of the outermost level (0.0 for constants)."""
    if isinstance(scalar, Jet):
        return scalar.partials[k]
    return 0.0


def value_of(scalar: Scalar) -> Scalar:
    """Value slot of the outermost level (identity for floats)."""
    if isinstance(scalar, Jet):
        return scalar.value
    return scalar


def standard_part(scalar: Scalar) -> Union[float, np.ndarray]:
    """Innermost leaf (float or array) of an arbitrarily nested scalar."""
    while isinstance(scalar, Jet):
        scalar = scalar.value
    return scalar


def is_constant(scalar: Scalar) -> bool:
    """True iff the scalar carries no derivative content at any level."""
    if not isinstance(scalar, Jet):
        return True
    return is_constant(scalar.value) and all(_is_zero(p) for p in scalar.partials)


def _is_zero(scalar: Scalar) -> bool:
    if isinstance(scalar, Jet):
        return _is_zero(scalar.value) and all(_is_zero(p) for p in scalar.partials)
    if isinstance(scalar, np.ndarray):
        return not scalar.any()
    return scalar == 0.0


# -- derivative drivers -------------------------------------------------------


def gradient(f: Callable, point: Sequence[float]) -> tuple[float, list[float]]:
    """(f(point), exact gradient) via one seeded evaluation."""
    r = f(seed_group([float(p) for p in point], range(len(point))))
    return standard_part(r), [standard_part(partial(r, i)) for i in range(len(point))]


def hessian(f: Callable, point: Sequence[float]) -> list[list[float]]:
    """Exact Hessian of a scalar function via two nested levels.

    The returned matrix is checked for the symmetry that exact mixed
    partials guarantee (rounding noise only).
    """
    n = len(point)
    xs = seed_group([float(p) for p in point], range(n))
    xs = seed_group(xs, range(n))
    r = f(xs)
    h = [
        [standard_part(partial(partial(r, i), j)) for j in range(n)] for i in range(n)
    ]
    scale = 1.0 + max(abs(h[i][j]) for i in range(n) for j in range(n))
    for i in range(n):
        for j in range(i):
            if abs(h[i][j] - h[j][i]) > 1e-9 * scale:
                raise ValueError(
                    f"Hessian asymmetry {h[i][j] - h[j][i]!r} at ({i},{j}); "
                    "function is not twice differentiable here"
                )
    return h


def third_order(f: Callable, point: Sequence[float], i: int, j: int, k: int) -> float:
    """Exact third mixed partial d^3 f / dx_i dx_j dx_k via three levels."""
    n = len(point)
    xs = seed_group([float(p) for p in point], range(n))
    xs = seed_group(xs, range(n))
    xs = seed_group(xs, range(n))
    r = f(xs)
    return standard_part(partial(partial(partial(r, i), j), k))


def fd_oracle(
    f: Callable,
    point: Sequence[float],
    direction: Sequence[float],
    order: int = 1,
    step: float | None = None,
) -> float:
    """Central-difference directional derivative (test oracle only).

    Default steps 1e-6 (order 1) and 1e-4 (order 2) balance truncation
    against rounding for O(1) values.
    """
    if order not in (1, 2):
        raise ValueError("fd_oracle supports order 1 or 2")
    if step is None:
        step = 1e-6 if order == 1 else 1e-4
    if step <= 0:
        raise ValueError("step must be positive")
    plus = [p + step * d for p, d in zip(point, direction)]
    minus = [p - step * d for p, d in zip(point, direction)]
    if order == 1:
        return (f(plus) - f(minus)) / (2.0 * step)
    return (f(plus) - 2.0 * f(list(point)) + f(minus)) / (step * step)


# -- smooth primitives --------------------------------------------------------
#
# Each function recurses through nesting: applying f to the value and
# chaining f' across the slots handles any depth.  The leaf branches are
# the recursion floor, so zero-seeded Jets reproduce plain evaluation bit
# for bit in the value slot.  Floats are tested first because they are the
# common leaf; arrays go to the NumPy ufunc, anything else (ints) to math.


def sin(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sin(x)
    if isinstance(x, Jet):
        d = cos(x.value)
        return Jet(sin(x.value), tuple([d * p for p in x.partials]))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.cos(x)
    if isinstance(x, Jet):
        d = -sin(x.value)
        return Jet(cos(x.value), tuple([d * p for p in x.partials]))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def tan(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.tan(x)
    if isinstance(x, Jet):
        t = tan(x.value)
        d = 1.0 + t * t
        return Jet(t, tuple([d * p for p in x.partials]))
    return np.tan(x) if isinstance(x, np.ndarray) else math.tan(x)


def exp(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.exp(x)
    if isinstance(x, Jet):
        e = exp(x.value)
        return Jet(e, tuple([e * p for p in x.partials]))
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def log(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.log(x)
    if isinstance(x, Jet):
        v = x.value
        return Jet(log(v), tuple([p / v for p in x.partials]))
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def sqrt(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, Jet):
        s = sqrt(x.value)
        d = 0.5 / s
        return Jet(s, tuple([d * p for p in x.partials]))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def sinh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sinh(x)
    if isinstance(x, Jet):
        d = cosh(x.value)
        return Jet(sinh(x.value), tuple([d * p for p in x.partials]))
    return np.sinh(x) if isinstance(x, np.ndarray) else math.sinh(x)


def cosh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.cosh(x)
    if isinstance(x, Jet):
        d = sinh(x.value)
        return Jet(cosh(x.value), tuple([d * p for p in x.partials]))
    return np.cosh(x) if isinstance(x, np.ndarray) else math.cosh(x)


def tanh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.tanh(x)
    if isinstance(x, Jet):
        t = tanh(x.value)
        d = 1.0 - t * t
        return Jet(t, tuple([d * p for p in x.partials]))
    return np.tanh(x) if isinstance(x, np.ndarray) else math.tanh(x)


def intpow(x: Scalar, k: int) -> Scalar:
    """x**k for integer k by binary exponentiation (valid for any sign of x).

    The k = 1, 2, 3 shortcuts replicate the general loop's operation
    order exactly, so results are bit-identical either way.
    """
    if k == 1:
        return x
    if k == 2:
        return x * x
    if k == 3:
        return x * (x * x)
    if k == 0:
        return 1.0
    if k < 0:
        return 1.0 / intpow(x, -k)
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def powf(x: Scalar, y: Scalar) -> Scalar:
    """General power exp(y*log(x)); requires a positive base."""
    return exp(y * log(x))
