"""Straight-line Python functions recorded from generic leaf arithmetic.

A Sym is a leaf of the jet tower, next to floats and 1-D arrays, that
stands for a value of a function being written.  Arithmetic on a Sym and
a jets primitive applied to one (jets._leaf) append a line of Python
source to the Sym's Stage instead of computing.  Floats stay floats, so
an operation whose operands are all constants runs once, while it is
staged, and enters the source as a literal.

Running a loop that is generic over leaves on Sym leaves therefore
writes a function that performs the loop's leaf operations on its
inputs, in its order, less the constant ones.  Called on float, 1-D
array or jet leaves, the function returns what the loop returns bit for
bit.  One rule changes what is written, and no value: an operation that
repeats one already written, on the same operands, reads its result.
No other rewrite is made: t * 1.0, t - 0.0 and a product by a constant
0.0 are written as they stand.

Once the body is complete, a new value takes the name of a temporary
whose last read has passed (_reuse_names): the written function keeps
few locals alive, so a dead array is freed at once, and no line moves.

This module is the package's one writer of generated code, and
core._kernel its one caller: it writes each kernel (the Christoffel
symbols, their spray contraction and the spray from a Lagrangian in
core; the first-order data, the covariant derivative and the X/Y split
in randers) from its plain loop once per dimension.
"""

from __future__ import annotations

import itertools
import math
import re

__all__ = ["Stage", "Sym"]


# The tokens that _reuse_names reads: a temporary's name and a line break.
_TOKENS = re.compile(r"(\bt\d+\b|\n)")


class Stage:
    """The source lines of one function under construction and the
    functions its source names (the jets primitives it calls)."""

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

    def assign(self, expression: str) -> "Sym":
        """The Sym holding `expression`, written once: an operation repeated
        on the same operands computes the bits the first did."""
        sym = self._values.get(expression)
        if sym is None:
            ref = f"t{next(self._temps)}"
            self.lines.append(f"{ref} = {expression}")
            sym = self._values[expression] = Sym(self, ref)
        return sym

    def source(self, value) -> str:
        """The source of a Sym, a finite float, or nested lists of them."""
        if isinstance(value, Sym):
            return value.ref
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(self.source(v) for v in value) + "]"
        if isinstance(value, float) and math.isfinite(value):
            return f"({float.__repr__(value)})"
        raise TypeError(f"a written constant must be a finite float, got {value!r}")

    def function(self, name: str, params: tuple, result):
        """The function `def name(*params)` running the recorded lines and
        returning `result` (Syms and floats in nested lists)."""
        body = [*self.lines, f"return {self.source(result)}"]
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
        elif token in bound:
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

    __slots__ = ("stage", "ref")

    def __init__(self, stage: Stage, ref: str):
        self.stage = stage
        self.ref = ref  # the local name holding this value

    def _binary(self, left, op: str, right) -> "Sym":
        source = self.stage.source
        return self.stage.assign(f"{source(left)} {op} {source(right)}")

    def __add__(self, other):
        return self._binary(self, "+", other)

    def __radd__(self, other):
        return self._binary(other, "+", self)

    def __sub__(self, other):
        return self._binary(self, "-", other)

    def __rsub__(self, other):
        return self._binary(other, "-", self)

    def __mul__(self, other):
        return self._binary(self, "*", other)

    def __rmul__(self, other):
        return self._binary(other, "*", self)

    def __truediv__(self, other):
        return self._binary(self, "/", other)

    def __rtruediv__(self, other):
        return self._binary(other, "/", self)

    def __neg__(self):
        return self.stage.assign(f"-{self.ref}")

    def call(self, fn) -> "Sym":
        """fn(self) as a value of the function, which names fn (a jets
        primitive) by its __name__."""
        self.stage.namespace[fn.__name__] = fn
        return self.stage.assign(f"{fn.__name__}({self.ref})")
