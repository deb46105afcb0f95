import copy
import math
import pickle
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from finslerlab import catalog, core, expr, jets, manifest, randers
from finslerlab.jets import (
    Jet,
    fd_oracle,
    gradient,
    half_square,
    hessian,
    intpow,
    seed_group,
    third_order,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402


def randers_flat_half_f2(v):
    """(|v| + 0.5 v1)^2 / 2, the flat Randers energy used across the suite."""
    alpha = jets.sqrt(v[0] * v[0] + v[1] * v[1])
    f = alpha + 0.5 * v[0]
    return 0.5 * (f * f)


class TestSeed:
    def test_product_rule_gradient(self):
        value, grad = gradient(lambda x: x[0] * x[1], (2.0, 3.0))
        assert value == 6.0
        assert grad == [3.0, 2.0]

    def test_sine_derivative_at_zero(self):
        value, grad = gradient(lambda x: jets.sin(x[0]), (0.0,))
        assert value == 0.0
        assert grad[0] == 1.0


class TestHessian:
    def test_sum_of_squares(self):
        h = hessian(lambda x: x[0] * x[0] + x[1] * x[1], (0.3, -0.7))
        assert h == [[2.0, 0.0], [0.0, 2.0]]

    def test_product(self):
        h = hessian(lambda x: x[0] * x[1], (2.0, 3.0))
        assert h == [[0.0, 1.0], [1.0, 0.0]]

    def test_flat_randers_energy(self):
        # oracle: central differences of the exact gradient, step 1e-5
        point = (1.0, 0.0)
        h = hessian(randers_flat_half_f2, point)
        step = 1e-5
        for i in range(2):
            for j in range(2):
                def grad_j(p, _j=j):
                    return gradient(randers_flat_half_f2, p)[1][_j]

                direction = [1.0 if k == i else 0.0 for k in range(2)]
                fd = fd_oracle(grad_j, point, direction, order=1, step=step)
                assert h[i][j] == pytest.approx(fd, abs=1e-7)
        assert h[0][0] == pytest.approx(2.25, abs=1e-12)
        assert h[1][1] == pytest.approx(1.5, abs=1e-12)
        assert h[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_asymmetry_detected(self):
        # partials slots fabricated inconsistently trigger the symmetry guard
        class Weird:
            def __call__(self, x):
                return x[0] * x[1]

        # sanity: a well-behaved function does not trigger it
        hessian(Weird(), (1.0, 1.0))


class TestThirdOrder:
    def test_cubic(self):
        assert third_order(lambda x: x[0] * x[0] * x[0], (2.0,), 0, 0, 0) == 6.0

    def test_quadratic_vanishes(self):
        f = lambda x: 3.0 * x[0] * x[0] + x[0] * x[1]
        for idx in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
            assert third_order(f, (0.4, -1.1), *idx) == 0.0

    def test_flat_randers_energy_matches_fd(self):
        # oracle: central differences on second-derivative (hessian) entries
        point = (1.0, 0.2)
        for (i, j, k) in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
            t = third_order(randers_flat_half_f2, point, i, j, k)

            def hess_entry(p, _i=i, _j=j):
                return hessian(randers_flat_half_f2, p)[_i][_j]

            direction = [1.0 if m == k else 0.0 for m in range(2)]
            fd = fd_oracle(hess_entry, point, direction, order=1, step=1e-5)
            assert t == pytest.approx(fd, rel=1e-7, abs=1e-7)

    def test_total_symmetry(self):
        point = (0.9, 0.4)
        vals = {
            perm: third_order(randers_flat_half_f2, point, *perm)
            for perm in ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        }
        spread = max(vals.values()) - min(vals.values())
        assert spread <= 1e-12


class TestFdOracle:
    def test_exp_first_order(self):
        est = fd_oracle(lambda x: math.exp(x[0]), (0.0,), (1.0,), order=1, step=1e-6)
        assert abs(est - 1.0) <= 1e-9

    def test_exp_second_order_default_step(self):
        est = fd_oracle(lambda x: math.exp(x[0]), (0.0,), (1.0,), order=2)
        assert abs(est - 1.0) <= 1e-6

    def test_square_second_order(self):
        est = fd_oracle(lambda x: x[0] * x[0], (0.7,), (1.0,), order=2)
        assert abs(est - 2.0) <= 1e-7

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fd_oracle(lambda x: x[0], (0.0,), (1.0,), order=3)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            fd_oracle(lambda x: x[0], (0.0,), (1.0,), order=1, step=0.0)


class TestNesting:
    def test_order_irrelevant(self):
        # d2f/dx dy via x-then-y nesting vs y-then-x nesting
        def f(x):
            return jets.sin(x[0]) * jets.exp(x[1]) + x[0] * x[1] * x[1]

        point = [0.4, -0.3]

        def mixed(first, second):
            s = seed_group([float(c) for c in point], [first])
            s = seed_group(s, [second])
            r = f(s)
            return jets.standard_part(jets.partial(jets.partial(r, 0), 0))

        assert abs(mixed(0, 1) - mixed(1, 0)) <= 1e-12

    def test_zero_seeds_reproduce_plain_evaluation(self):
        def f(x):
            return jets.tanh(x[0] * x[1]) + jets.cos(x[0]) / (2.0 + x[1])

        plain = f([0.7, -0.2])
        zeroed = f([Jet(0.7, (0.0, 0.0)), Jet(-0.2, (0.0, 0.0))])
        assert jets.standard_part(zeroed) == plain

    def test_intpow_fast_paths_match_loop(self):
        x = Jet(1.3, (1.0,))
        for k in (1, 2, 3, 4, 5, -2):
            direct = intpow(x, k)
            # reference: exp/log route (positive base), looser agreement
            ref = math.pow(1.3, k)
            assert jets.standard_part(direct) == pytest.approx(ref, rel=1e-14)

    def test_mismatched_slots_rejected(self):
        with pytest.raises(ValueError):
            Jet(1.0, (1.0,)) + Jet(1.0, (1.0, 0.0))


def _bits(x):
    """Every leaf of a nested jet as float.hex or an array's bytes, so that
    -0.0 and 0.0 differ."""
    if isinstance(x, Jet):
        return ["jet", *_bits(x.value), *[b for p in x.partials for b in _bits(p)]]
    if isinstance(x, np.ndarray):
        return [x.tobytes()]
    return [float(x).hex()]


def _nested(leaves, depth):
    """sin(y0) * y1 + y0 / 3 with both y seeded on `depth` levels: a jet
    whose slots at every level are generic values, not only 0 and 1."""
    s = list(leaves)
    for _ in range(depth):
        s = seed_group(s, range(len(s)))
    return jets.sin(s[0]) * s[1] + s[0] / 3.0


def _signed_zeros(depth):
    """A jet `depth` levels deep whose every entry is 0.0 or -0.0."""
    if depth == 0:
        return -0.0
    return Jet(_signed_zeros(depth - 1), (0.0, -0.0, _signed_zeros(depth - 1)))


LEAVES = {
    "floats": (0.7, -1.3),
    "signed-zero floats": (-0.0, 0.0),
    "arrays": (np.array([0.7, -0.0, 0.0, 2.5e-8]), np.array([-1.3, 0.0, -0.0, 3.0e7])),
}


class TestRepeatedProducts:
    """A square and a product by one take shortcuts that keep every bit."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("leaves", sorted(LEAVES))
    def test_square_equals_the_product_of_two_copies(self, leaves, depth):
        x = _nested(LEAVES[leaves], depth)
        twin = copy.deepcopy(x)
        assert twin is not x
        assert _bits(x * x) == _bits(x * twin) == _bits(twin * x)
        assert _bits(intpow(x, 2)) == _bits(x * twin)
        assert _bits(intpow(x, 3)) == _bits(x * (x * twin))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_square_of_signed_zeros(self, depth):
        x = _signed_zeros(depth)
        assert _bits(x * x) == _bits(x * copy.deepcopy(x))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("leaves", sorted(LEAVES))
    def test_product_by_one_is_the_jet_itself(self, leaves, depth):
        x = _nested(LEAVES[leaves], depth)
        assert x * 1.0 is x and 1.0 * x is x
        assert _bits(x * 1) == _bits(x) == _bits(1 * x)  # an int takes the general rule

    def test_array_factors_take_the_general_rule(self):
        x = _nested(LEAVES["floats"], 2)
        ones = np.ones(3)
        for product in (x * ones, ones * x):
            assert isinstance(product, Jet) and product is not x
            assert np.array_equal(jets.standard_part(product), np.full(3, jets.standard_part(x)))


# -- property: jet derivatives vs finite differences ------------------------

SAFE_COORDS = ["x1", "x2"]


def _smooth_asts():
    numbers = st.floats(min_value=0.0, max_value=2.0).map(abs)
    leaves = st.one_of(
        st.builds(expr.Num, numbers),
        st.sampled_from([expr.Var("x1"), expr.Var("x2")]),
    )

    def extend(children):
        return st.one_of(
            st.builds(expr.Neg, children),
            st.builds(
                lambda op, l, r: expr.BinOp(op, l, r),
                st.sampled_from("+-*"),
                children,
                children,
            ),
            st.builds(
                lambda f, a: expr.Call(f, (a,)),
                st.sampled_from(["sin", "cos", "tanh"]),
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=100, derandomize=True)
@given(
    _smooth_asts(),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_jet_derivatives_match_fd_oracle(ast, a, b):
    field = expr.ScalarField(ast, expr.to_source(ast))

    def f(p):
        return expr.evaluate(field, {"x1": p[0], "x2": p[1]})

    point = (a, b)
    value, grad = gradient(lambda s: expr.evaluate(field, {"x1": s[0], "x2": s[1]}), point)
    hess = hessian(lambda s: expr.evaluate(field, {"x1": s[0], "x2": s[1]}), point)
    for i in range(2):
        direction = [1.0 if k == i else 0.0 for k in range(2)]
        fd1 = fd_oracle(f, point, direction, order=1)
        assert abs(grad[i] - fd1) <= max(1e-6, 1e-6 * abs(grad[i]))
        fd2 = fd_oracle(f, point, direction, order=2)
        assert abs(hess[i][i] - fd2) <= max(1e-6, 1e-6 * abs(hess[i][i]))


# -- the structural zero ------------------------------------------------------

ZERO = jets.ZERO


class TestStructuralZero:
    def test_keeps_its_identity_through_copy_and_pickle(self):
        assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ZERO, protocol)) is ZERO
        x = seed_group([0.5, Jet(1.0, (2.0,))], [0])
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin[0].partials == (1.0,) and twin[1].partials == (ZERO,)
            assert twin[1].partials[0] is ZERO and twin[1] is not x[1]

    def test_sources(self):
        x = seed_group([0.5, 2.0, Jet(1.0, (3.0,))], [0, 1])
        assert x[0].partials[1] is ZERO and x[1].partials[0] is ZERO
        assert x[2].partials == (ZERO, ZERO) and all(p is ZERO for p in x[2].partials)
        assert jets.partial(0.5, 0) is ZERO and jets.partial(ZERO, 1) is ZERO
        field = expr.parse("0 + 0.0*x - 0e3", ["x"])
        assert field.ast.left.left.value is ZERO and field.ast.right.value is ZERO
        assert expr.parse("-0", ["x"]).ast.operand.value is ZERO
        assert expr.evaluate(expr.parse("0", ["x"]), {"x": 1.0}) is ZERO
        assert expr.compile_field(expr.parse("0", ["x"]), ["x"])((1.0,)) is ZERO

    def test_computed_zeros_are_plain_floats(self):
        for computed in (ZERO + ZERO, ZERO - ZERO, 2.0 * ZERO, ZERO * -2.0, -ZERO, ZERO / 4.0):
            assert type(computed) is float and computed == 0.0
        assert math.copysign(1.0, -ZERO) == -1.0  # -0.0, as from -(0.0)
        assert type(ZERO * np.ones(2)) is np.ndarray
        assert repr(ZERO) == "0.0" and float(ZERO).hex() == "0x0.0p+0"

    def test_jet_rules(self):
        x = _nested(LEAVES["floats"], 2)
        assert x * ZERO is ZERO and ZERO * x is ZERO and ZERO / x is ZERO
        assert x + ZERO is x and ZERO + x is x and x - ZERO is x
        assert _bits(ZERO - x) == _bits(-x)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_jet_times_zero_is_zero(self, bad):
        x = seed_group([bad, 1.0], [0, 1])[0]
        assert x * ZERO is ZERO and ZERO * x is ZERO
        # x * y skips slot 0's term x.value * ZERO, which as x.value * 0.0
        # would be NaN: the slot is 1.0 * 1.0.
        def product_slot(p):
            s = seed_group(p, [0, 1])
            return (s[0] * s[1]).partials[0]

        assert product_slot([bad, 1.0]) == 1.0
        # Over array leaves, under lanewise's raising error state, the
        # skipped term raises no invalid-operation flag, so the batch does
        # not fall back to the float loop: both paths skip the same terms.
        lanes = [np.array([bad, 0.5]), np.array([1.0, 2.0])]
        with np.errstate(all="raise", under="ignore"):
            assert seed_group(lanes, [0, 1])[0] * ZERO is ZERO
            assert product_slot(lanes).tolist() == [1.0, 2.0]
        assert jets.lanewise(product_slot, [(bad, 1.0), (0.5, 2.0)]) == [1.0, 2.0]


class TestLanewiseColumns:
    """lanewise keeps the nesting of fn's output, each leaf the list of
    its values over the points, on both of its paths."""

    POINTS = [(0.5, -1.0), (2.0, 0.25), (-0.0, 3.0)]

    @staticmethod
    def quantities(p):
        x, y = p
        xs = seed_group(list(p), [0, 1])  # one first-order jet level
        q = jets.sin(xs[0]) * xs[1]
        return [
            x * y,  # a scalar leaf
            [jets.exp(y), 2.0, ZERO, jets.partial(q, 0)],  # constant and ZERO leaves
            [[x + y, x - y], [x / (1.0 + y * y), jets.tanh(-x)]],
            [],
        ]

    def test_fallback_columns_equal_the_lane_columns(self):
        def refused_on_arrays(p):
            if isinstance(p[0], np.ndarray):
                raise ArithmeticError("a lane batch this function refuses")
            return self.quantities(p)

        lanes = jets.lanewise(self.quantities, self.POINTS)
        fallback = jets.lanewise(refused_on_arrays, self.POINTS)
        assert repr(fallback) == repr(lanes)  # -0.0 and every bit included
        # leaf by leaf, the values of the float evaluation at each point
        rows = [self.quantities(p) for p in self.POINTS]
        assert lanes[0] == [row[0] for row in rows]
        assert lanes[1] == [[row[1][i] for row in rows] for i in range(4)]
        assert lanes[2][1][0] == [row[2][1][0] for row in rows]
        assert lanes[3] == [] and jets.lanewise(self.quantities, []) == []
        assert all(type(v) is float for v in lanes[1][2])  # ZERO as a plain 0.0

    def test_a_scalar_fn_gives_the_list_of_its_values(self):
        assert jets.lanewise(lambda p: p[0] * p[1], self.POINTS) == [x * y for x, y in self.POINTS]


def _lane(x, k):
    """Lane k of a nested jet over array leaves (float leaves pass)."""
    if isinstance(x, Jet):
        return Jet(_lane(x.value, k), tuple([_lane(p, k) for p in x.partials]))
    return float(x[k]) if isinstance(x, np.ndarray) else x


def _zbits(x):
    """_bits, with ZERO told apart from a computed 0.0."""
    if x is ZERO:
        return ["ZERO"]
    if isinstance(x, Jet):
        return ["jet", *_zbits(x.value), *[b for p in x.partials for b in _zbits(p)]]
    return _bits(x)


class _Ref:
    """Reference jet arithmetic that skips no term: every slot term is
    formed, with 0.0 where the jets hold ZERO (a constant is a plain
    leaf)."""

    __slots__ = ("value", "partials")
    __array_ufunc__ = None

    def __init__(self, value, partials):
        self.value, self.partials = value, tuple(partials)

    def __add__(self, o):
        if isinstance(o, _Ref):
            return _Ref(self.value + o.value, [a + b for a, b in zip(self.partials, o.partials)])
        return _Ref(self.value + o, self.partials)

    def __radd__(self, o):
        return _Ref(o + self.value, self.partials)

    def __sub__(self, o):
        if isinstance(o, _Ref):
            return _Ref(self.value - o.value, [a - b for a, b in zip(self.partials, o.partials)])
        return _Ref(self.value - o, self.partials)

    def __rsub__(self, o):
        return _Ref(o - self.value, [-p for p in self.partials])

    def __neg__(self):
        return _Ref(-self.value, [-p for p in self.partials])

    def __mul__(self, o):
        if isinstance(o, _Ref):
            sv, ov = self.value, o.value
            return _Ref(sv * ov, [sv * q + ov * p for p, q in zip(self.partials, o.partials)])
        return _Ref(self.value * o, [p * o for p in self.partials])

    def __rmul__(self, o):
        return _Ref(o * self.value, [o * p for p in self.partials])

    def __truediv__(self, o):
        if isinstance(o, _Ref):
            d = o.value
            q = self.value / d
            return _Ref(q, [(p - q * r) / d for p, r in zip(self.partials, o.partials)])
        return _Ref(self.value / o, [p / o for p in self.partials])

    def __rtruediv__(self, o):
        q = o / self.value
        factor = -q / self.value
        return _Ref(q, [factor * p for p in self.partials])


def _ref_primitive(name, derivative):
    """The primitive `name` on _Ref (the chain rule, every slot formed);
    jets' own on leaves."""

    def fn(x):
        if not isinstance(x, _Ref):
            return getattr(jets, name)(x)
        value = fn(x.value)
        if name == "log":  # jets.log divides each slot by the value
            return _Ref(value, [p / x.value for p in x.partials])
        d = derivative(x.value, value)
        return _Ref(value, [d * p for p in x.partials])

    return fn


_REF_PRIMITIVES = {
    "sin": lambda v, f: _REF["cos"](v),
    "cos": lambda v, f: -_REF["sin"](v),
    "tan": lambda v, t: 1.0 + t * t,
    "exp": lambda v, e: e,
    "log": None,
    "sqrt": lambda v, s: 0.5 / s,
    "sinh": lambda v, f: _REF["cosh"](v),
    "cosh": lambda v, f: _REF["sinh"](v),
    "tanh": lambda v, t: 1.0 - t * t,
}
_REF = {name: _ref_primitive(name, d) for name, d in _REF_PRIMITIVES.items()}


def _ref_seed(values, indices):
    """seed_group for _Ref, with 0.0 where seed_group puts ZERO."""
    width = len(indices)
    out = []
    for i, val in enumerate(values):
        if i in indices:
            k = list(indices).index(i)
            out.append(_Ref(val, [1.0 if j == k else 0.0 for j in range(width)]))
        else:
            out.append(_Ref(val, [0.0] * width) if isinstance(val, _Ref) else val)
    return out


# Steps of a random program over nested jets; the arguments of log, sqrt,
# tan and the divisors stay in the primitives' domains and away from 0.
def _bounded(a, f):
    return 1.5 + f["tanh"](a)


ZERO_STEPS = {
    "add": lambda a, b, f: a + b,
    "sub": lambda a, b, f: a - b,
    "mul": lambda a, b, f: a * b,
    "square": lambda a, b, f: a * a,
    "div": lambda a, b, f: a / _bounded(b, f),
    "reciprocal": lambda a, b, f: 2.0 / _bounded(a, f),
    "neg": lambda a, b, f: -a,
    "sin": lambda a, b, f: f["sin"](a),
    "cos": lambda a, b, f: f["cos"](a),
    "tan": lambda a, b, f: f["tan"](0.5 * f["tanh"](a)),
    "exp": lambda a, b, f: f["exp"](f["tanh"](a)),
    "log": lambda a, b, f: f["log"](_bounded(a, f)),
    "sqrt": lambda a, b, f: f["sqrt"](_bounded(a, f)),
    "sinh": lambda a, b, f: f["sinh"](f["tanh"](a)),
    "cosh": lambda a, b, f: f["cosh"](f["tanh"](a)),
    "tanh": lambda a, b, f: f["tanh"](a),
}
# Constant operands: ZERO stands for an expression's literal 0 (0.0 in the
# reference run); the others are plain floats in both runs.
ZERO_CONSTANTS = ["literal zero", 0.0, -0.0, 1.0, 0.5, -2.0]
LANES = 3


def _draw(rng):
    return rng.choice([0.0, -0.0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])


def _run_zero_program(program, inputs, reference):
    f = _REF if reference else {name: getattr(jets, name) for name in _REF}
    values = list(inputs)

    def operand(ref):
        kind, item = ref
        if kind == "value":
            return values[item]
        if item == "literal zero":
            return 0.0 if reference else ZERO
        return item

    for step, left, right in program:
        values.append(ZERO_STEPS[step](operand(left), operand(right), f))
    return values


def _matches_reference(got, ref, ulps=0):
    """got equals ref leaf for leaf, apart from the sign of an exact zero
    (within `ulps` units in the last place of max(1, |ref|)).  Where ref
    holds a jet and got a constant (a skipped term left one), the constant
    matches a jet of that value with zero slots, so ZERO matches a ref
    whose every leaf is 0.0 or -0.0."""
    if not isinstance(ref, _Ref):
        return not isinstance(got, Jet) and abs(got - ref) <= ulps * math.ulp(max(1.0, abs(ref)))
    if isinstance(got, Jet):
        got_slots = (got.value, *got.partials)
    else:
        got_slots = (got, *[ZERO] * len(ref.partials))
    ref_slots = (ref.value, *ref.partials)
    return all(_matches_reference(g, r, ulps) for g, r in zip(got_slots, ref_slots))


def _zero_program(seed, depth):
    """(program, run, points): a random program of ZERO_STEPS, run(point,
    seed_fn, reference) that seeds `depth` random levels on point and
    returns every value of the program, and LANES random 2-D points."""
    rng = random.Random(seed)
    levels = [rng.choice([[0], [1], [0, 1]]) for _ in range(depth)]
    points = [[_draw(rng) for _ in range(2)] for _ in range(LANES)]
    program = []
    for k in range(6 if depth == 4 else 10):
        operands = [("value", i) for i in range(2 + k)] + [("constant", c) for c in ZERO_CONSTANTS]
        program.append((rng.choice(sorted(ZERO_STEPS)), rng.choice(operands), rng.choice(operands)))

    def run(point, seed_fn, reference):
        for level in levels:
            point = seed_fn(point, level)
        return _run_zero_program(program, point, reference)

    return program, run, points


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_zero_skipping_equals_lanes_and_the_reference(seed, depth):
    """Random nested jets (ZERO slots from seed_group and literal zeros)
    through + - * / and the primitives: lane k of an array run equals the
    float run of point k bit for bit, ZERO in the same places, and every
    value equals the reference arithmetic that skips nothing, apart from
    the sign of an exact zero.  One exception: where a skipped term leaves
    a constant c that a quotient slot then divides by a jet d (the slot
    (p - q * r) / d with r ZERO, or log's p / v), c / d takes the Jet
    rule for a constant numerator, -(c / d.value) / d.value * s per slot
    s, where the reference's Jet / Jet rule rounds -((c / d.value) * s) /
    d.value: a few units in the last place (22 of 12000 seeded programs,
    1.5 at most)."""
    program, run, points = _zero_program(seed, depth)

    with np.errstate(all="raise", under="ignore"):
        batch = run([np.array(c) for c in zip(*points)], seed_group, False)
    for k, point in enumerate(points):
        single = run(point, seed_group, False)
        assert [_zbits(_lane(v, k)) for v in batch] == [_zbits(v) for v in single]
        reference = run(point, _ref_seed, True)
        quotients = {"div", "log"} & {step for step, _, _ in program}
        for got, ref in zip(single, reference):
            assert _matches_reference(got, ref) or (
                quotients and _matches_reference(got, ref, ulps=4)
            ), (got, ref)


# -- half_square: x^2/2 without doubling and halving each slot product -------


def _hex_leaves(x):
    """Every leaf of a nested jet, lane by lane, as float.hex (so -0.0 and
    0.0 differ), with ZERO told apart from a computed 0.0."""
    if x is ZERO:
        return ["ZERO"]
    if isinstance(x, Jet):
        return ["jet", *_hex_leaves(x.value), *[h for p in x.partials for h in _hex_leaves(p)]]
    if isinstance(x, np.ndarray):
        return ["lanes", *[c.hex() for c in x.tolist()]]
    return [float(x).hex()]


# Factors that carry a program's leaves to signed zeros, subnormals (as
# leaves, and as slot products at 1e-160), infinities and NaN.
LEAF_SCALES = [1.0, 0.0, -0.0, 5e-324, -1e-310, 1e-160, -3e-162, math.inf, -math.inf, math.nan]
LANE_SCALES = np.array([5e-324, math.nan, -math.inf])  # one per lane of LANES


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_half_square_equals_half_of_the_square(seed, depth):
    """Every value of a random program of test_zero_skipping..., 1-4
    levels deep, on float and array leaves, scaled by each LEAF_SCALE
    (and the array run by LANE_SCALES too): half_square(y) and
    0.5 * (y * y) agree in every leaf, ZERO in the same places."""
    _, run, points = _zero_program(seed, depth)
    with np.errstate(all="ignore"):
        batch = run([np.array(c) for c in zip(*points)], seed_group, False)
        runs = [(batch, [*LEAF_SCALES, LANE_SCALES])]
        runs += [(run(point, seed_group, False), LEAF_SCALES) for point in points]
        for values, scales in runs:
            for x in values:
                for scale in scales:
                    y = x * scale
                    assert _hex_leaves(half_square(y)) == _hex_leaves(0.5 * (y * y)), (x, scale)


def test_half_square_keeps_a_slot_product_that_doubling_overflows():
    """The one exception: a slot product t above half the largest float,
    whose doubling t + t overflows to inf before 0.5 halves it."""
    big = 1e154  # slot product 1e308 > sys.float_info.max / 2
    for leaf in (big, np.array([big, 1.0])):
        x = Jet(leaf, (leaf, ZERO))
        with np.errstate(all="ignore"):
            half, doubled = half_square(x), 0.5 * (x * x)
        assert _hex_leaves(half.value) == _hex_leaves(doubled.value)
        assert np.ravel(half.partials[0])[0] == big * big < math.inf
        assert np.ravel(doubled.partials[0])[0] == math.inf
        assert half.partials[1] is doubled.partials[1] is ZERO
    below = Jet(1e154, (0.8e154,))  # slot product 8e307 < max / 2: both agree
    assert _hex_leaves(half_square(below)) == _hex_leaves(0.5 * (below * below))


def _old_half_f_squared(F, x, v, levels):
    """The reference for core._half_f_squared: 0.5 * (f * f) of the same
    seeded evaluation f of F."""
    n = F.chart.dimension
    s = list(x) + list(v)
    for level in levels:
        s = seed_group(s, range(n, 2 * n) if level == "v" else range(n))
    f = F(s[:n], s[n:])
    return 0.5 * (f * f)


@pytest.mark.parametrize(
    "name, spec",
    [(name, None) for name in catalog.NAMES]
    + [(spec["name"], spec) for spec in specgen.generate_set(0, specgen.family_grid(), "half")],
)
def test_core_lagrangian_equals_half_of_the_square(name, spec):
    """core._half_f_squared at the levels "vvx" (spray, N, PairTensors) and
    "vv" (fundamental_tensor) on every catalog space and the specgen
    family grid (n = 2-4): on floats at 8 pairs and on 8 lanes."""
    space = manifest.space_from_spec(spec) if spec else catalog.space(name)
    F = randers.finsler(space)
    pairs = core.probe_pairs(space.chart, 8, 5)
    lanes = tuple([np.array(c) for c in zip(*column)] for column in zip(*pairs))
    for levels in ("vvx", "vv"):
        for x, v in [*pairs, lanes]:
            got = core._half_f_squared(F, x, v, levels)
            assert _hex_leaves(got) == _hex_leaves(_old_half_f_squared(F, x, v, levels)), levels
