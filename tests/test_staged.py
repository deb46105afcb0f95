"""staged.Sym leaves write functions that equal, bit for bit, the
computation they record, on float and array leaves."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.staged import Stage

CONSTANTS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0]

# Binary steps of a random program; sin and tanh keep the values bounded,
# the division keeps its divisor >= 1.
STEPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (1.0 + b * b),
    "sin": lambda a, b: jets.sin(a) * b,
    "tanh": lambda a, b: jets.tanh(a + b),
    # the shape of the Christoffel and covariant sums
    "zero-start": lambda a, b: 0.0 + a * b + b * a + a * 0.0,
}


def _program(rng, inputs, length):
    """(step, left, right) triples; an operand is an earlier value or a constant."""
    program = []
    for k in range(length):
        operands = [("value", i) for i in range(inputs + k)] + [("constant", c) for c in CONSTANTS]
        program.append((rng.choice(sorted(STEPS)), rng.choice(operands), rng.choice(operands)))
    return program


def _run(program, inputs):
    values = list(inputs)

    def operand(ref):
        kind, item = ref
        return values[item] if kind == "value" else item

    for step, left, right in program:
        values.append(STEPS[step](operand(left), operand(right)))
    return values[len(inputs):]


def _hexes(values):
    out = []
    for v in values:
        out += [c.hex() for c in v.tolist()] if isinstance(v, np.ndarray) else [float(v).hex()]
    return out


@pytest.mark.parametrize("seed", range(24))
def test_generated_function_equals_the_recorded_computation(seed):
    rng = random.Random(seed)
    n = 3
    program = _program(rng, n, 40)
    stage = Stage()
    staged = stage.unpack("x", (n,))
    fn = stage.function("program", ("x",), _run(program, staged))
    points = [[rng.choice([-0.0, 0.0, rng.uniform(-2.0, 2.0)]) for _ in range(n)] for _ in range(6)]
    for point in points:
        expected = _run(program, point)
        assert all(math.isfinite(v) for v in expected)
        assert _hexes(fn(point)) == _hexes(expected)
    lanes = [np.array(c) for c in zip(*points)]
    with np.errstate(all="raise", under="ignore"):
        got, expected = fn(lanes), _run(program, lanes)
    # An operation on constants alone runs while it is staged: the function
    # returns a float where the lanes hold that float in every lane.
    size = len(points)
    assert _hexes(np.broadcast_to(v, (size,)) for v in got) == _hexes(
        np.broadcast_to(v, (size,)) for v in expected
    )


def test_an_operation_is_written_once_and_as_it_stands():
    stage = Stage()
    t, u = stage.unpack("x", (2,))
    assert t * u is t * u  # one product, written once
    assert t * 1.0 is not t and 0.0 + t is not t and t * 0.0 is not (0.0 * t)
    assert stage.lines == ["[t0, t1] = x", "t2 = t0 * t1", "t3 = t0 * (1.0)", "t4 = (0.0) + t0",
                           "t5 = t0 * (0.0)", "t6 = (0.0) * t0"]


def test_dead_temporaries_lend_their_names():
    """A value takes the name of one whose last read has passed; the
    recorded lines keep their own names."""
    stage = Stage()
    t, u = stage.unpack("x", (2,))
    value = t
    for _ in range(30):
        value = value * u + t
    fn = stage.function("chain", ("x",), [value, u])
    assert stage.lines[-1] == "t61 = t60 + t0"
    assert fn.__code__.co_varnames == ("x", "t0", "t1", "t2")
    point = [0.5, -0.75]
    expected = point[0]
    for _ in range(30):
        expected = expected * point[1] + point[0]
    assert [c.hex() for c in fn(point)] == [expected.hex(), point[1].hex()]


def test_only_staged_executes_source():
    """Every generated function is written by a Stage, and only core's
    kernel writer makes one: no other module of the package runs source
    text or stages a function."""
    package = Path(jets.__file__).resolve().parent
    modules = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert [name for name, text in modules.items() if "exec(" in text] == ["staged.py"]
    assert [name for name, text in modules.items() if "Stage()" in text] == ["core.py"]
