"""Parser and evaluator for the coordinate-expression language.

Metric components, one-form components and custom measure densities are
given as strings over declared chart coordinates.  The grammar (EBNF,
also documented in the README):

    expr    = term { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;            (* right-associative *)
    atom    = NUMBER | NAME | NAME "(" expr { "," expr } ")" | "(" expr ")" ;
    NUMBER  = DIGIT { DIGIT } [ "." { DIGIT } ] [ ("e"|"E") ["+"|"-"] DIGIT { DIGIT } ] ;
    NAME    = (LETTER | "_") { LETTER | DIGIT | "_" } ;

"^" binds tightest (so -x^2 is -(x^2)), then unary minus, then "*"/"/",
then "+"/"-".  No implicit multiplication, ASCII only.  Functions:
sin cos tan exp log sqrt sinh cosh tanh; constants: pi, e.  abs is
rejected explicitly because it is not smooth.

Evaluation is generic over the scalar tower: coordinates may be floats,
1-D NumPy arrays (one value per member of a batch) or jets over either.
A literal integer exponent uses exact repeated multiplication, anything
else goes through exp(b*log(a)) and therefore needs a positive base.
The domain guards raise ExprDomainError when any element of a batch is
outside the domain.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from . import jets
from .jets import Jet, Scalar

__all__ = [
    "ScalarField",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "evaluate",
    "compile_field",
    "SharedSubtrees",
    "free_variables",
    "to_source",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "ArityError",
    "NonSmoothFunctionError",
    "ExprDomainError",
]


class ExprError(ValueError):
    """Base class for all expression-language failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class ArityError(ExprSyntaxError):
    pass


class NonSmoothFunctionError(ExprSyntaxError):
    pass


class ExprDomainError(ExprError):
    """Evaluation hit a singular point; carries the offending subexpression."""

    def __init__(self, message: str, node):
        super().__init__(f"{message} in '{to_source(node)}'")
        self.node = node


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Node = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class ScalarField:
    """Immutable parsed expression over declared chart coordinates."""

    ast: Node
    source: str

    def __call__(self, assignment: Mapping[str, Scalar]) -> Scalar:
        return evaluate(self, assignment)


FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
    "tanh": jets.tanh,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if not ch.isascii():
            raise ExprSyntaxError(f"non-ASCII character {ch!r}", i)
        if ch.isdigit():
            m = _NUMBER_RE.match(source, i)
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(source, i)
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- recursive-descent parser ---------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], coordinates: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.coordinates = coordinates

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected '{text}'", tok.offset)
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("number literal overflows", tok.offset)
            return Num(value)
        if tok.kind == "name":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.parse_call(tok)
            if tok.text in self.coordinates:
                return Var(tok.text)
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            raise UnknownIdentifierError(
                f"unknown identifier '{tok.text}'", tok.offset
            )
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"unexpected {'end of input' if tok.kind == 'end' else tok.text!r}",
            tok.offset,
        )

    def parse_call(self, name_tok: _Token) -> Node:
        if name_tok.text == "abs":
            raise NonSmoothFunctionError(
                "'abs' is a non-smooth function and is not supported",
                name_tok.offset,
            )
        if name_tok.text not in FUNCTIONS:
            raise UnknownIdentifierError(
                f"unknown function '{name_tok.text}'", name_tok.offset
            )
        self.expect_op("(")
        args = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr())
        self.expect_op(")")
        if len(args) != 1:
            raise ArityError(
                f"'{name_tok.text}' takes 1 argument, got {len(args)}",
                name_tok.offset,
            )
        return Call(name_tok.text, tuple(args))


def parse(source: str, coordinates) -> ScalarField:
    """Parse `source` over the declared coordinate names."""
    coords = tuple(coordinates)
    if not coords:
        raise ValueError("coordinate list must be nonempty")
    if len(set(coords)) != len(coords):
        raise ValueError("coordinate names must be distinct")
    for name in coords:
        if not _NAME_RE.fullmatch(name) or name in FUNCTIONS or name in CONSTANTS:
            raise ValueError(f"invalid coordinate name {name!r}")
    parser = _Parser(_tokenize(source), coords)
    ast = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.offset)
    return ScalarField(ast, source)


# -- evaluation ---------------------------------------------------------------


def _nonpositive(scalar: Scalar) -> Optional[float]:
    """The standard part of `scalar` if it is <= 0 (for an array, its first
    such element), else None; NaN passes, as it does for floats."""
    if isinstance(scalar, float):
        return scalar if scalar <= 0.0 else None
    while isinstance(scalar, Jet):
        scalar = scalar.value
    if isinstance(scalar, np.ndarray):
        bad = scalar[scalar <= 0.0]
        return float(bad[0]) if bad.size else None
    return scalar if scalar <= 0.0 else None


def _has_zero(scalar: Scalar) -> bool:
    """True when the standard part of `scalar` is 0 (in any array element)."""
    if isinstance(scalar, float):
        return scalar == 0.0
    while isinstance(scalar, Jet):
        scalar = scalar.value
    if isinstance(scalar, np.ndarray):
        return not scalar.all()
    return scalar == 0.0


def _static_int_exponent(node: Node):
    """Integer value of a constant exponent subtree, else None.

    Deciding intpow vs exp/log on the *syntax* (variable-free subtree,
    integral value) keeps the float and jet evaluation paths on the same
    branch, so value slots agree exactly.  Exponents like 3^2 or -(2+1)
    fold here and power stays exact.
    """
    names: set[str] = set()
    _collect_vars(node, names)
    if names:
        return None
    try:
        value = _eval(node, {})
    except (ExprError, OverflowError, ValueError, ZeroDivisionError):
        return None  # defer to dynamic evaluation, which raises consistently
    if (
        isinstance(value, float)
        and math.isfinite(value)
        and value.is_integer()
        and abs(value) <= 2**31
    ):
        return int(value)
    return None


def evaluate(field: ScalarField, assignment: Mapping[str, Scalar]) -> Scalar:
    """Evaluate over floats, arrays or jets; value slots agree between them."""
    return _eval(field.ast, assignment)


def _eval(node: Node, env: Mapping[str, Scalar]) -> Scalar:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExprDomainError(f"unassigned variable '{node.name}'", node) from None
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Call):
        arg = _eval(node.args[0], env)
        if node.func in ("log", "sqrt"):
            bad = _nonpositive(arg)
            if bad is not None:
                raise ExprDomainError(f"{node.func} of non-positive value {bad}", node)
        return FUNCTIONS[node.func](arg)
    op = node.op
    if op == "^":
        base = _eval(node.left, env)
        k = _static_int_exponent(node.right)
        if k is not None:
            if k < 0 and _has_zero(base):
                raise ExprDomainError("zero base with negative exponent", node)
            return jets.intpow(base, k)
        exponent = _eval(node.right, env)
        bad = _nonpositive(base)
        if bad is not None:
            raise ExprDomainError(f"non-integer power of non-positive base {bad}", node)
        return jets.powf(base, exponent)
    left = _eval(node.left, env)
    right = _eval(node.right, env)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if _has_zero(right):
        raise ExprDomainError("division by zero", node)
    return left / right


class SharedSubtrees:
    """The subtrees that occur more than once across a group of fields.

    Fields compiled with compile_field(field, names, shared) read each of
    these subtrees through a memo slot.  shared.pass_args(x) is the
    argument tuple of one evaluation pass and carries a fresh memo, so
    every field called with it shares one evaluation of each subtree: the
    first field that reaches the subtree evaluates it, as its own
    per-field evaluation would, and later fields read the value.  Values
    and domain errors are therefore those of per-field evaluation, and
    the memo lives as long as the pass's argument tuple.  Called with a
    plain tuple, the fields evaluate every subtree.

    Subtrees are the same when their ASTs are equal (parsed literals are
    never -0.0, so equal subtrees compute equal bits).  Occurrences are
    counted in the DAG of distinct subtrees: a repeated subtree's children
    are counted once, so a child that occurs only inside it gets no slot.
    Numbers and variables get none either.  `slots` maps the id of every
    occurrence of a repeated subtree in these fields' ASTs to its slot.
    """

    __slots__ = ("slots", "_size", "_fields")

    def __init__(self, fields):
        self._fields = tuple(fields)  # keeps the ids in `slots` valid
        numbers: dict = {}  # structural key -> number of a distinct subtree
        occurrences: list = []  # number -> the nodes that are that subtree
        roots = [_number(field.ast, numbers, occurrences) for field in self._fields]
        # One reference per root and per child of each distinct subtree.
        refs = Counter(
            ref for ref in [*roots, *(c for key in numbers for c in key[1:])] if isinstance(ref, int)
        )
        repeated = [number for number, count in refs.items() if count > 1]
        self._size = len(repeated)
        self.slots = {
            id(node): slot for slot, number in enumerate(repeated) for node in occurrences[number]
        }

    def pass_args(self, values) -> tuple:
        """The argument tuple of one evaluation pass over `values`."""
        return _PassArgs(values, self._size) if self._size else tuple(values)


class _PassArgs(tuple):
    """Argument tuple that carries the memo of one evaluation pass."""

    def __new__(cls, values, size: int):
        args = super().__new__(cls, values)
        args.memo = [_UNSET] * size
        return args


_UNSET = object()


def _number(node: Node, numbers: dict, occurrences: list):
    """The number of node's subtree (equal subtrees get equal numbers),
    or a leaf node itself; keys hold the children's numbers, so each
    node is hashed once."""
    if isinstance(node, (Num, Var)):
        return node
    if isinstance(node, Neg):
        key = ("neg", _number(node.operand, numbers, occurrences))
    elif isinstance(node, BinOp):
        key = (
            node.op,
            _number(node.left, numbers, occurrences),
            _number(node.right, numbers, occurrences),
        )
    else:
        key = (node.func, *(_number(arg, numbers, occurrences) for arg in node.args))
    number = numbers.get(key)
    if number is None:
        number = numbers[key] = len(occurrences)
        occurrences.append([])
    occurrences[number].append(node)
    return number


def compile_field(
    field: ScalarField, coordinates, shared: Optional[SharedSubtrees] = None
) -> "Callable":
    """Compile to a closure over a positional argument tuple.

    compile_field(f, names)(args) computes exactly what evaluate(f,
    dict(zip(names, args))) computes (same branches, same operation
    order, so values match bit for bit); it only removes the AST-walk
    overhead from hot evaluation loops.  With `shared`, the subtrees it
    lists are evaluated once per shared.pass_args pass (SharedSubtrees).
    """
    names = tuple(coordinates)
    return _compile(field.ast, names, shared.slots if shared is not None else {})


def _compile(node: Node, names: tuple, slots: dict):
    slot = slots.get(id(node))
    if slot is None:
        return _compile_node(node, names, slots)
    inner = _compile_node(node, names, slots)

    def memoized(args):
        memo = getattr(args, "memo", None)
        if memo is None:
            return inner(args)
        value = memo[slot]
        if value is _UNSET:
            value = memo[slot] = inner(args)
        return value

    return memoized


def _compile_node(node: Node, names: tuple, slots: dict):
    if isinstance(node, Num):
        value = node.value
        return lambda args: value
    if isinstance(node, Var):
        index = names.index(node.name)
        return lambda args: args[index]
    if isinstance(node, Neg):
        inner = _compile(node.operand, names, slots)
        return lambda args: -inner(args)
    if isinstance(node, Call):
        arg_fn = _compile(node.args[0], names, slots)
        fn = FUNCTIONS[node.func]
        if node.func in ("log", "sqrt"):
            name = node.func

            def guarded(args, _node=node):
                arg = arg_fn(args)
                bad = _nonpositive(arg)
                if bad is not None:
                    raise ExprDomainError(f"{name} of non-positive value {bad}", _node)
                return fn(arg)

            return guarded
        return lambda args: fn(arg_fn(args))
    left_fn = _compile(node.left, names, slots)
    op = node.op
    if op == "^":
        k = _static_int_exponent(node.right)
        if k is not None:
            if k < 0:

                def int_power_guarded(args, _node=node, _k=k):
                    base = left_fn(args)
                    if _has_zero(base):
                        raise ExprDomainError("zero base with negative exponent", _node)
                    return jets.intpow(base, _k)

                return int_power_guarded
            return lambda args: jets.intpow(left_fn(args), k)
        right_fn = _compile(node.right, names, slots)

        def general_power(args, _node=node):
            base = left_fn(args)
            bad = _nonpositive(base)
            if bad is not None:
                raise ExprDomainError(
                    f"non-integer power of non-positive base {bad}", _node
                )
            return jets.powf(base, right_fn(args))

        return general_power
    right_fn = _compile(node.right, names, slots)
    if op == "+":
        return lambda args: left_fn(args) + right_fn(args)
    if op == "-":
        return lambda args: left_fn(args) - right_fn(args)
    if op == "*":
        return lambda args: left_fn(args) * right_fn(args)

    def division(args, _node=node):
        denominator = right_fn(args)
        if _has_zero(denominator):
            raise ExprDomainError("division by zero", _node)
        return left_fn(args) / denominator

    return division


def free_variables(field: ScalarField) -> set[str]:
    """Names of the coordinates that actually occur in the AST."""
    out: set[str] = set()
    _collect_vars(field.ast, out)
    return out


def _collect_vars(node: Node, out: set[str]) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.operand, out)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        for arg in node.args:
            _collect_vars(arg, out)


# -- printing -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_ADD
        if node.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def to_source(node: Node) -> str:
    """Render with minimal parentheses; reparsing yields an identical AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, lambda lv: lv < _LEVEL_UNARY)
    if isinstance(node, Call):
        return f"{node.func}({','.join(to_source(a) for a in node.args)})"
    if node.op in "+-":
        left = _wrap(node.left, lambda lv: lv < _LEVEL_ADD)
        right = _wrap(node.right, lambda lv: lv <= _LEVEL_ADD)
    elif node.op in "*/":
        left = _wrap(node.left, lambda lv: lv < _LEVEL_MUL)
        right = _wrap(node.right, lambda lv: lv <= _LEVEL_MUL)
    else:  # ^ is right-associative and binds above unary minus
        left = _wrap(node.left, lambda lv: lv <= _LEVEL_POW)
        right = _wrap(node.right, lambda lv: lv < _LEVEL_UNARY)
    return f"{left}{node.op}{right}"


def _wrap(node: Node, needs_parens) -> str:
    text = to_source(node)
    return f"({text})" if needs_parens(_level(node)) else text
