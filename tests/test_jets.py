import copy
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from finslerlab import expr, jets
from finslerlab.jets import (
    Jet,
    fd_oracle,
    gradient,
    hessian,
    intpow,
    seed_group,
    third_order,
)


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
