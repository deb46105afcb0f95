"""Straight-line Python functions recorded from generic leaf arithmetic.

A Sym is a leaf of the jet tower, next to floats and 1-D arrays, that
stands for a value of a function being written.  Arithmetic on a Sym,
a jets primitive applied to one (jets._leaf) and an expression guard
checked on one (expr._require_positive, expr._require_nonzero) append a
line of Python source to the Sym's Stage instead of computing.  Floats
(jets.ZERO, a float, among them) stay floats, so an operation whose
operands are all constants runs once, while it is staged, and enters the
source as a literal.

Running a computation that is generic over leaves (jet arithmetic, the
compiled expression closures, core's and randers' kernels) on Sym leaves
therefore writes a function that performs that computation's leaf
operations on its inputs, in its order, less the constant ones.  Called
on float or 1-D array leaves, the function returns what the computation
returns bit for bit and raises what it raises.  These rewrites change no
value:

- t * 1.0, 1.0 * t, t / 1.0, t - 0.0, t + -0.0 and -0.0 + t are t itself
  (equal bit for bit, -0.0, inf and NaN included);
- an operation that repeats one already written, on the same operands,
  reads its result, and a guard repeated on one value is written once;
- a product c * t or t * c by a constant c = 0.0 is written only when a
  later operation reads it.  A sum that starts `0.0 + ...`, or that adds
  a term to such a sum, is never -0.0, so adding +-0.0 to it (the product
  at a finite t, or a constant zero) leaves it as it is: such a term is
  dropped.  Where t is inf or NaN the product would be NaN; on array
  leaves under NumPy's raising error state no such t arises without
  raising first.  A value that stays a constant there is a float, where
  the computation may hold an array with that float in every lane.

Once the body is complete, a new value takes the name of a temporary
whose last read has passed (_reuse_names): the written function keeps
few locals alive, so a dead array is freed at once, and no line moves.

This module is the package's one writer of generated code.  Its callers:
core._kernel writes each kernel (the Christoffel symbols, their spray
contraction and the spray from a Lagrangian in core; the first-order data, the covariant derivative and
the X/Y split in randers) from its plain loop once per dimension, and
randers._staged_spray writes a space's closed-form spray, through those
kernels, once per space.
"""

from __future__ import annotations

import itertools
import math
import re

__all__ = ["Stage", "Sym"]


# The tokens that _reuse_names reads: a temporary's name, a line break, and
# a string literal (a guard's message), which it leaves as it is.
_TOKENS = re.compile(r"""('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\bt\d+\b|\n)""")


def _signed_zero(value) -> float:
    """1.0 for the float 0.0, -1.0 for -0.0, 0.0 for anything else."""
    if isinstance(value, float) and value == 0.0:
        return math.copysign(1.0, value)
    return 0.0


class Stage:
    """The source lines of one function under construction and the
    objects its source names (functions, guard messages, nodes)."""

    def __init__(self):
        self.lines: list = []
        self.namespace: dict = {}
        self._temps = itertools.count()
        self._values: dict = {}  # right-hand side -> the Sym that holds it

    def unpack(self, source: str, shape: tuple) -> list:
        """Syms for the entries of the nested list (of that shape) that
        `source` evaluates to, bound by one unpacking line."""

        def target(depth):
            if depth == len(shape):
                return Sym(self, f"t{next(self._temps)}")
            return [target(depth + 1) for _ in range(shape[depth])]

        syms = target(0)
        self.lines.append(f"{self.source(syms)} = {source}")
        return syms

    def assign(self, expression: str, never_negative_zero: bool = False) -> "Sym":
        """The Sym holding `expression`, written once: an operation repeated
        on the same operands computes the bits the first did."""
        sym = self._values.get(expression)
        if sym is None:
            ref = f"t{next(self._temps)}"
            self.lines.append(f"{ref} = {expression}")
            sym = self._values[expression] = Sym(self, ref)
        sym.never_negative_zero |= never_negative_zero
        return sym

    def check(self, statement: str, key) -> None:
        """Writes `statement`, a guard, unless one with this key (the guard
        and its value) was written: it would pass where that one passed."""
        if key not in self._values:
            self._values[key] = None
            self.lines.append(statement)

    def source(self, value) -> str:
        """The source of a Sym, a float, nested lists of them, or an object
        the function reads from its namespace."""
        if isinstance(value, Sym):
            return value.ref
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(self.source(v) for v in value) + "]"
        if isinstance(value, float) and math.isfinite(value):
            return f"({float.__repr__(value)})"
        if isinstance(value, str):
            return repr(value)
        return self.constant(value)

    def constant(self, obj, name: str = "") -> str:
        """The name under which the function's namespace holds obj: `name`,
        else obj's own __name__ when that is free, else a fresh one."""
        name = name or getattr(obj, "__name__", "")
        if not (name.isidentifier() and self.namespace.get(name, obj) is obj):
            held = [key for key, value in self.namespace.items() if value is obj]
            name = held[0] if held else f"k{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def function(self, name: str, params: tuple, result):
        """The function `def name(*params)` running the recorded lines and
        returning `result` (Syms and floats in nested lists)."""
        returned = self.source(result)  # may write a zero product's line
        body = [*self.lines, f"return {returned}"]
        text = f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in body)
        namespace = dict(self.namespace)
        exec(compile(_reuse_names(text), f"<staged {name}>", "exec"), namespace)
        return namespace[name]


def _reuse_names(text: str) -> str:
    """The function source `text` with its temporaries renamed so that a
    new value takes the name of one whose last read has passed.

    A temporary is bound once, on the line where it first occurs, and read
    on later lines only.  A line's right-hand side is evaluated before its
    names are bound, so a line may bind a name that it reads for the last
    time; a value that is never read frees its name after its own line.
    No line is moved or dropped.
    """
    parts = _TOKENS.split(text)
    bound, last_read = {}, {}  # temporary -> the line that binds it, reads it last
    line = 0
    for token in parts[1::2]:
        if token == "\n":
            line += 1
        elif token[0] == "t":
            if token in bound:
                last_read[token] = line
            else:
                bound[token] = line
    frees = [[] for _ in range(line + 2)]  # per line, the names free from its start
    for temp, line in bound.items():
        frees[last_read.get(temp, line + 1)].append(temp)
    written, free, fresh, freed = {}, [], itertools.count(), 0
    for temp, line in bound.items():  # in line order
        while freed <= line:
            free += [written[t] for t in frees[freed]]
            freed += 1
        written[temp] = free.pop() if free else f"t{next(fresh)}"
    parts[1::2] = [written.get(token, token) for token in parts[1::2]]
    return "".join(parts)


class Sym:
    """A value of the function a Stage writes; see the module docstring."""

    __slots__ = ("stage", "_ref", "_product", "never_negative_zero")

    # NumPy binary operators return NotImplemented, so `ndarray op Sym`
    # reaches the reflected Sym method.
    __array_ufunc__ = None

    def __init__(self, stage: Stage, ref, product=None):
        self.stage = stage
        self._ref = ref
        self._product = product  # (left, right) of a zero product not yet written
        self.never_negative_zero = False

    @property
    def ref(self) -> str:
        """The local name holding this value; a zero product is written
        here, when first read."""
        if self._ref is None:
            left, right = map(self.stage.source, self._product)
            self._ref = self.stage.assign(f"{left} * {right}").ref
        return self._ref

    def _is_dropped_term(self, other) -> bool:
        """Whether adding `other` to this value (never -0.0) changes nothing."""
        if isinstance(other, Sym):
            return other._ref is None
        return isinstance(other, float) and other == 0.0

    def _binary(self, left, op: str, right, never_negative_zero: bool = False):
        if not all(isinstance(operand, (Sym, float, int)) for operand in (left, right)):
            return NotImplemented  # a Jet operand: its own method applies the jet rule
        source = self.stage.source
        return self.stage.assign(f"{source(left)} {op} {source(right)}", never_negative_zero)

    def _zero_product(self, left, right):
        """left * right with the constant right or left 0.0, unwritten."""
        return Sym(self.stage, None, product=(left, right))

    def __add__(self, other):
        if _signed_zero(other) < 0.0 or (self.never_negative_zero and self._is_dropped_term(other)):
            return self  # t + -0.0 is t
        return self._binary(self, "+", other, self.never_negative_zero)

    def __radd__(self, other):
        sign = _signed_zero(other)
        if sign < 0.0:
            return self
        if sign > 0.0 and self._ref is None:
            return 0.0
        return self._binary(other, "+", self, sign > 0.0)

    def __sub__(self, other):
        if _signed_zero(other) > 0.0:
            return self  # t - 0.0 is t
        return self._binary(self, "-", other)

    def __rsub__(self, other):
        return self._binary(other, "-", self)

    def __mul__(self, other):
        if isinstance(other, float):
            if other == 1.0:
                return self
            if other == 0.0:
                return self._zero_product(self, other)
        return self._binary(self, "*", other)

    def __rmul__(self, other):
        if isinstance(other, float):
            if other == 1.0:
                return self
            if other == 0.0:
                return self._zero_product(other, self)
        return self._binary(other, "*", self)

    def __truediv__(self, other):
        if isinstance(other, float) and other == 1.0:
            return self
        return self._binary(self, "/", other)

    def __rtruediv__(self, other):
        return self._binary(other, "/", self)

    def __neg__(self):
        return self.stage.assign(f"-{self.ref}")

    def call(self, fn, *args) -> "Sym":
        """fn(self, *args) as a value of the function."""
        stage = self.stage
        return stage.assign(f"{stage.constant(fn)}({', '.join(map(stage.source, (self, *args)))})")

    def check(self, fn, *args) -> None:
        """fn(self, *args) as a statement: a guard that raises or returns
        None, written once per value (it passes again where it passed)."""
        stage = self.stage
        name = stage.constant(fn)
        stage.check(f"{name}({', '.join(map(stage.source, (self, *args)))})", (name, self.ref))
