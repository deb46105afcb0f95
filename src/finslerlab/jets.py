"""Nestable truncated-Taylor scalars (forward-mode differentiation).

A Jet holds a value plus one partial-derivative slot per seeded direction.
Both the value and the slots may themselves be Jets, so stacking two or
three levels yields exact second and third mixed partials.  Plain floats
mix freely with Jets and act as constants, which keeps constant-heavy
expressions cheap.

The innermost leaves may be floats or 1-D float64 NumPy arrays; an
array leaf holds one value per member of a batch (one lane per point),
so one evaluation serves the whole batch.  Every lane equals the float
evaluation of its point bit for bit: ``+ - * /`` and ``sqrt`` are
correctly rounded in NumPy as in Python, and the other primitives map
``math``'s function over the lanes, because NumPy's ``exp``, ``log``,
``tanh`` and their kin may differ from ``math`` in the last place.
Jets sit above arrays: ``Jet.__array_ufunc__ = None`` makes
``ndarray * Jet`` defer to the Jet operators.  ``lanewise`` runs a
per-point function once over the lanes of a grid, returns one list of
values per quantity, and hands a batch that fails back to the per-point
loop.  A third kind of leaf, ``staged.Sym``, computes nothing: each
operation on it, primitives included, writes a line of a generated
function (see ``finslerlab.staged``).

Four rules spare work that the plain product, sum and chain rules would
do.  A square ``x * x`` forms each slot product ``x.value * p`` once and
doubles it, and ``x * 1.0`` is ``x`` itself; neither changes a bit.
``half_square(x)``, x^2/2, writes each slot product ``x.value * p`` as
it is, where ``0.5 * (x * x)`` doubles it and halves the sum again:
0.5 * (t + t) is t for every leaf t, +-0.0, inf, NaN and subnormals
included, so the two agree bit for bit, except for a slot product above
half the largest float, where the doubling overflows to inf and
half_square keeps the finite t.
``ZERO`` is the structural zero: the slots that ``seed_group`` gives a
constant or an unseeded direction, a constant's ``partial``, and an
expression's literal 0 hold it.  A Jet operation skips a term that holds
ZERO: ``a + ZERO`` and ``a - ZERO`` are ``a``, ``ZERO - a`` is ``-a``, a
Jet times ZERO and a product or quotient with a ZERO factor or
numerator are ZERO, ``select`` between two ZEROs is ZERO, and a
primitive's chain rule keeps a ZERO slot.  Leaf arithmetic takes ZERO as
the float 0.0 and returns an ordinary float or array, so a computed zero
is never ZERO, and a float run and a lane run skip the same terms, bit
for bit.  The one exception is ``select`` between ZERO and another value
under a mask that differs across lanes: the lane run holds an array
where each lane's float run holds ZERO or the value, so it can skip
fewer terms and differ in the sign of an exact zero.  A skipped term
would have added +-0.0 (NaN beside an inf or a NaN), so a value differs
from the rules without ZERO in the sign of an exact zero, or where a
skip leaves a constant c that a Jet d then divides: c / d rounds each
slot as -(c / d.value) / d.value * s, where the rule for a jet
numerator rounds -((c / d.value) * s) / d.value, a unit or two in the
last place.

Discipline for nesting: every *Jet-valued* scalar entering a computation
at a new derivative level must be wrapped as a constant at that level
(see ``seed_group``); bare floats need no wrapping.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Union

import numpy as np

from .staged import Sym

Scalar = Union[float, np.ndarray, "Jet"]

__all__ = [
    "Jet",
    "ZERO",
    "Scalar",
    "seed_group",
    "partial",
    "value_of",
    "standard_part",
    "gradient",
    "hessian",
    "third_order",
    "fd_oracle",
    "lanewise",
    "select",
    "maximum",
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
    "half_square",
]


class _Zero(float):
    """The type of ZERO: 0.0 that pickles, copies and deep-copies as ZERO."""

    __slots__ = ()

    def __reduce__(self):
        return "ZERO"


# The structural zero (see the module docstring).
ZERO = float.__new__(_Zero, 0.0)


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
    #
    # A term that holds ZERO is skipped (the module docstring's zero rule).

    def __add__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in +")
            return Jet(
                self.value + other.value,
                tuple([
                    b if a is ZERO else a if b is ZERO else a + b
                    for a, b in zip(self.partials, other.partials)
                ]),
            )
        if other is ZERO:
            return self
        return Jet(self.value + other, self.partials)

    def __radd__(self, other):
        if other is ZERO:
            return self
        return Jet(other + self.value, self.partials)

    def __sub__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in -")
            return Jet(
                self.value - other.value,
                tuple([
                    a if b is ZERO else -b if a is ZERO else a - b
                    for a, b in zip(self.partials, other.partials)
                ]),
            )
        if other is ZERO:
            return self
        return Jet(self.value - other, self.partials)

    def __rsub__(self, other):
        if other is ZERO:
            return -self
        return Jet(other - self.value, _negated(self.partials))

    def __neg__(self):
        return Jet(-self.value, _negated(self.partials))

    def __mul__(self, other):
        if isinstance(other, Jet):
            sv = self.value
            if other is self:
                # A square: the rule below would form sv * p + sv * p, one
                # product evaluated twice; t + t with t = sv * p is that
                # sum bit for bit, and sv * sv recurses into this rule.
                return Jet(
                    sv * sv,
                    tuple([p if p is ZERO else (t := sv * p) + t for p in self.partials]),
                )
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in *")
            ov = other.value
            return Jet(
                sv * ov,
                tuple([
                    (p if p is ZERO else ov * p) if q is ZERO
                    else sv * q if p is ZERO
                    else sv * q + ov * p
                    for p, q in zip(self.partials, other.partials)
                ]),
            )
        if other is ZERO:
            return ZERO
        if type(other) is float and other == 1.0:
            # x * 1.0 equals x bit for bit (-0.0, inf and NaN included) and
            # raises no flag, and no Jet is changed in place, so the jet
            # itself serves.  The type is tested first: == on an array
            # leaf is an array, whose truth value raises.
            return self
        return Jet(
            self.value * other, tuple([p if p is ZERO else p * other for p in self.partials])
        )

    def __rmul__(self, other):
        if other is ZERO:
            return ZERO
        if type(other) is float and other == 1.0:  # as in __mul__
            return self
        return Jet(
            other * self.value, tuple([p if p is ZERO else other * p for p in self.partials])
        )

    def __truediv__(self, other):
        if isinstance(other, Jet):
            if len(self.partials) != len(other.partials):
                raise ValueError("jet slot count mismatch in /")
            d = other.value
            q = self.value / d
            return Jet(
                q,
                tuple([
                    (p if p is ZERO else p / d) if r is ZERO
                    else -(q * r) / d if p is ZERO
                    else (p - q * r) / d
                    for p, r in zip(self.partials, other.partials)
                ]),
            )
        return Jet(
            self.value / other, tuple([p if p is ZERO else p / other for p in self.partials])
        )

    def __rtruediv__(self, other):
        if other is ZERO:
            return ZERO
        q = other / self.value
        factor = -q / self.value
        return Jet(q, tuple([p if p is ZERO else factor * p for p in self.partials]))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return intpow(self, exponent)
        raise TypeError("Jet ** only supports integer exponents; use powf")


def _negated(partials: tuple) -> tuple:
    return tuple([p if p is ZERO else -p for p in partials])


# -- seeding and extraction ---------------------------------------------------


def seed_group(values: Sequence[Scalar], indices: Sequence[int]) -> list:
    """Add a new outermost derivative level with one slot per entry of `indices`.

    values[indices[k]] receives a unit partial in slot k; every other entry
    becomes a constant at the new level (Jets are wrapped, floats pass
    through).  Repeated application stacks levels for higher derivatives.
    """
    width = len(indices)
    slot = {idx: k for k, idx in enumerate(indices)}
    zeros = (ZERO,) * width
    out = []
    for i, val in enumerate(values):
        k = slot.get(i)
        if k is None:
            out.append(Jet(val, zeros) if isinstance(val, Jet) else val)
        else:
            out.append(Jet(val, tuple([1.0 if j == k else ZERO for j in range(width)])))
    return out


def partial(scalar: Scalar, k: int) -> Scalar:
    """Partial in slot k of the outermost level (ZERO for constants)."""
    if isinstance(scalar, Jet):
        return scalar.partials[k]
    return ZERO


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


# -- lanes: one array leaf per coordinate, one lane per point ----------------


def lanewise(fn: Callable, points: Sequence) -> list:
    """fn at every point, from one call of fn over array leaves, as columns.

    fn maps a point (a sequence of scalars) to a scalar or to nested lists
    of scalars.  The result keeps that nesting, and each leaf becomes the
    list of its values over the points as Python floats: for a scalar fn,
    [fn(p) for p in points]; no points give [].  The batch passes one 1-D
    array per coordinate, with one lane per point, under NumPy's raising
    error state, and lane k of each leaf is point k's value.  A batch that
    raises ArithmeticError or ValueError (a singular pivot, a domain
    guard, an overflow that ``math`` raises or NumPy would turn into inf,
    a geodesic that leaves its chart or blows up: core re-bases
    DomainExitError on ValueError and NonFiniteStateError on
    ArithmeticError for this clause) hands the points to the per-point
    loop on float leaves, which raises what it raises; its rows are
    transposed once into the same columns.
    """
    points = list(points)
    if not points:
        return []
    try:
        with np.errstate(all="raise", under="ignore"):
            lanes = [np.array(c, dtype=float) for c in zip(*points)]
            return _columns(fn(lanes), len(points))
    except (ArithmeticError, ValueError):
        pass
    return _transposed([fn(p) for p in points])


def _leaves(values) -> list:
    """Float coordinates as floats, array coordinates (a batch) as they are."""
    return [c if isinstance(c, np.ndarray) else float(c) for c in values]


def _columns(value, size: int) -> list:
    """Nested lists whose leaves are floats or arrays, each leaf as the
    list of its `size` lanes."""
    if isinstance(value, (list, tuple)):
        return [_columns(v, size) for v in value]
    if isinstance(value, np.ndarray) and value.shape == (size,):
        return value.tolist()
    if isinstance(value, float):  # a constant (ZERO included) as a plain float
        return [float(value)] * size
    return np.broadcast_to(value, (size,)).tolist()


def _transposed(rows: list) -> list:
    """The per-point results `rows` (nested lists of floats) as the
    columns _columns gives."""
    if isinstance(rows[0], (list, tuple)):
        return [_transposed(part) for part in zip(*rows)]
    return np.array(rows).tolist()


def select(mask: np.ndarray, x: Scalar, y: Scalar) -> Scalar:
    """x in the lanes where mask holds, y elsewhere, at every jet level."""
    if np.ndim(mask) == 0:  # one decision for every lane
        return x if mask else y
    if x is ZERO and y is ZERO:
        return ZERO
    if isinstance(x, Jet) or isinstance(y, Jet):
        width = len((x if isinstance(x, Jet) else y).partials)
        x, y = [s if isinstance(s, Jet) else Jet(s, (ZERO,) * width) for s in (x, y)]
        return Jet(
            select(mask, x.value, y.value),
            tuple([select(mask, p, q) for p, q in zip(x.partials, y.partials)]),
        )
    return np.where(mask, x, y)


def maximum(values: Sequence) -> Union[float, np.ndarray]:
    """max(values) lane by lane over float and array leaves: a value
    replaces the running maximum only where it is greater, as in max."""
    best = values[0]
    for v in values[1:]:
        if isinstance(v, np.ndarray) or isinstance(best, np.ndarray):
            best = np.where(v > best, v, best)
        elif v > best:
            best = v
    return best


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
# common leaf; arrays go lane by lane through math (sqrt through np.sqrt,
# which rounds the same), a staged leaf writes a call of the primitive,
# anything else (ints) goes to math.


def _scaled(d: Scalar, partials: tuple) -> tuple:
    """The chain rule's slots d * p; a slot that holds ZERO stays ZERO."""
    return tuple([p if p is ZERO else d * p for p in partials])


def _per_lane(fn: Callable, x: np.ndarray) -> np.ndarray:
    """math's fn in every lane: equal to the float path bit for bit, and
    raising where math raises (OverflowError, ValueError)."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _leaf(fn: Callable, x) -> Scalar:
    """math's fn at a leaf that is no float: in every lane of an array, as
    a call of the primitive named after fn in the code a staged leaf
    records, or on x itself (an int)."""
    if isinstance(x, np.ndarray):
        return _per_lane(fn, x)
    if isinstance(x, Sym):
        return x.call(globals()[fn.__name__])
    return fn(x)


def sin(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sin(x)
    if isinstance(x, Jet):
        d = cos(x.value)
        return Jet(sin(x.value), _scaled(d, x.partials))
    return _leaf(math.sin, x)


def cos(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.cos(x)
    if isinstance(x, Jet):
        d = -sin(x.value)
        return Jet(cos(x.value), _scaled(d, x.partials))
    return _leaf(math.cos, x)


def tan(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.tan(x)
    if isinstance(x, Jet):
        t = tan(x.value)
        d = 1.0 + t * t
        return Jet(t, _scaled(d, x.partials))
    return _leaf(math.tan, x)


def exp(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.exp(x)
    if isinstance(x, Jet):
        e = exp(x.value)
        return Jet(e, _scaled(e, x.partials))
    return _leaf(math.exp, x)


def log(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.log(x)
    if isinstance(x, Jet):
        v = x.value
        return Jet(log(v), tuple([p if p is ZERO else p / v for p in x.partials]))
    return _leaf(math.log, x)


def sqrt(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, Jet):
        s = sqrt(x.value)
        d = 0.5 / s
        return Jet(s, _scaled(d, x.partials))
    return np.sqrt(x) if isinstance(x, np.ndarray) else _leaf(math.sqrt, x)


def sinh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.sinh(x)
    if isinstance(x, Jet):
        d = cosh(x.value)
        return Jet(sinh(x.value), _scaled(d, x.partials))
    return _leaf(math.sinh, x)


def cosh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.cosh(x)
    if isinstance(x, Jet):
        d = sinh(x.value)
        return Jet(cosh(x.value), _scaled(d, x.partials))
    return _leaf(math.cosh, x)


def tanh(x: Scalar) -> Scalar:
    if isinstance(x, float):
        return math.tanh(x)
    if isinstance(x, Jet):
        t = tanh(x.value)
        d = 1.0 - t * t
        return Jet(t, _scaled(d, x.partials))
    return _leaf(math.tanh, x)


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


def half_square(x: Scalar) -> Scalar:
    """x^2/2: on a Jet, each slot is x.value * p (a ZERO slot stays ZERO),
    where 0.5 * (x * x) forms (x.value * p + x.value * p) / 2; on a leaf,
    0.5 * (x * x).  Equal to 0.5 * (x * x) leaf for leaf, but for a slot
    product above half the largest float (module docstring)."""
    if isinstance(x, Jet):
        v = x.value
        return Jet(half_square(v), tuple([p if p is ZERO else v * p for p in x.partials]))
    return 0.5 * (x * x)
