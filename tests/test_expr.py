import math
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from finslerlab import expr, jets, manifest, randers
from finslerlab.expr import (
    ArityError,
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Neg,
    NonSmoothFunctionError,
    Num,
    ScalarField,
    UnknownIdentifierError,
    Var,
    compile_field,
    evaluate,
    free_variables,
    parse,
    to_source,
)
from finslerlab.jets import seed_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402

XY = ["x1", "x2"]


def ev(source, **values):
    field = parse(source, sorted(values) if values else ["x1"])
    return evaluate(field, values)


def count_calls(node):
    if isinstance(node, Call):
        return 1 + sum(count_calls(a) for a in node.args)
    if isinstance(node, BinOp):
        return count_calls(node.left) + count_calls(node.right)
    if isinstance(node, Neg):
        return count_calls(node.operand)
    return 0


class TestParse:
    def test_pythagorean_identity_ast(self):
        field = parse("sin(x1)^2 + cos(x1)^2", ["x1"])
        assert count_calls(field.ast) == 2
        assert evaluate(field, {"x1": 0.7}) == pytest.approx(1.0, abs=1e-15)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x1 + * x2", XY)
        assert err.value.offset == 5

    def test_bh_density_expression(self):
        field = parse("(1 - 0.16*x1^2)^1.5", XY)
        assert evaluate(field, {"x1": 0.5, "x2": 0.0}) == pytest.approx(0.96**1.5)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x1 + y", XY)

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("spam(x1)", XY)

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            parse("sin(x1, x2)", XY)

    def test_abs_rejected_as_non_smooth(self):
        with pytest.raises(NonSmoothFunctionError, match="non-smooth"):
            parse("abs(x1)", XY)

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 x2", XY)

    def test_non_ascii_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 + π", XY)

    def test_empty_coordinates_rejected(self):
        with pytest.raises(ValueError):
            parse("1", [])

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError):
            parse("1", ["x1", "x1"])

    def test_reserved_coordinate_name_rejected(self):
        with pytest.raises(ValueError):
            parse("1", ["sin"])


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        assert ev("2+3*4") == 14.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_above_unary_minus(self):
        assert ev("-2^2") == -4.0

    def test_power_above_multiplication(self):
        assert ev("2*3^2") == 18.0

    def test_division_left_associative(self):
        assert ev("8/4/2") == 1.0

    def test_subtraction_left_associative(self):
        assert ev("2-3-4") == -5.0

    def test_negative_exponent_literal(self):
        assert ev("2^-2") == 0.25


class TestEvaluate:
    def test_polynomial_jet_derivative(self):
        field = parse("x1^2", ["x1"])
        (x,) = jets.seed((0.5,), {0})
        # width-1 seed: partial slot 0 belongs to the only coordinate
        out = evaluate(field, {"x1": jets.Jet(0.5, (1.0,))})
        assert out.value == 0.25
        assert out.partials[0] == 1.0
        assert jets.standard_part(evaluate(field, {"x1": x.value})) == 0.25

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_log_domain_error(self):
        field = parse("log(x1)", ["x1"])
        with pytest.raises(ExprDomainError, match="log"):
            evaluate(field, {"x1": 0.0})

    def test_sqrt_domain_error(self):
        with pytest.raises(ExprDomainError):
            ev("sqrt(x1)", x1=-1.0)

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError, match="division by zero"):
            ev("1/x1", x1=0.0)

    def test_zero_base_negative_exponent(self):
        with pytest.raises(ExprDomainError):
            ev("x1^-1", x1=0.0)

    def test_non_integer_power_of_negative_base(self):
        with pytest.raises(ExprDomainError, match="non-integer power"):
            ev("x1^0.5", x1=-2.0)

    def test_functions_match_math(self):
        for name, fn in (("sinh", math.sinh), ("cosh", math.cosh), ("tanh", math.tanh)):
            assert ev(f"{name}(x1)", x1=0.3) == fn(0.3)

    def test_unassigned_variable(self):
        field = parse("x1 + x2", XY)
        with pytest.raises(ExprDomainError, match="unassigned"):
            evaluate(field, {"x1": 1.0})

    def test_integer_power_allows_negative_base(self):
        assert ev("x1^3", x1=-2.0) == -8.0

    def test_error_names_offending_node(self):
        field = parse("1 + log(x1 - 2)", ["x1"])
        with pytest.raises(ExprDomainError, match=r"log\(x1-2(\.0)?\)"):
            evaluate(field, {"x1": 1.0})


class TestFreeVariables:
    def test_two_variables(self):
        assert free_variables(parse("x1*x2 + 1", XY)) == {"x1", "x2"}

    def test_constant(self):
        assert free_variables(parse("3.0", XY)) == set()

    def test_single(self):
        assert free_variables(parse("sin(x2)", XY)) == {"x2"}


# -- property tests ---------------------------------------------------------


def _asts():
    numbers = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ).map(abs)
    leaves = st.one_of(
        st.builds(Num, numbers),
        st.sampled_from([Var("x1"), Var("x2")]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                lambda op, l, r: BinOp(op, l, r),
                st.sampled_from("+-*/^"),
                children,
                children,
            ),
            st.builds(
                lambda f, a: Call(f, (a,)),
                st.sampled_from(sorted(expr.FUNCTIONS)),
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@settings(max_examples=1000, derandomize=True)
@given(_asts())
def test_print_parse_round_trip(ast):
    assert parse(to_source(ast), XY).ast == ast


def _same_result(fn):
    """Run fn, capturing either the value or the error type."""
    try:
        return ("ok", fn())
    except (ExprDomainError, OverflowError) as exc:
        return ("err", type(exc))


@settings(max_examples=300, derandomize=True)
@given(
    _asts(),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_zero_seed_jets_match_plain_evaluation_bitwise(ast, a, b):
    field = ScalarField(ast, to_source(ast))
    plain_env = {"x1": a, "x2": b}
    jet_env = {"x1": jets.Jet(a, (0.0, 0.0)), "x2": jets.Jet(b, (0.0, 0.0))}
    plain = _same_result(lambda: evaluate(field, plain_env))
    jet = _same_result(lambda: jets.standard_part(evaluate(field, jet_env)))
    assert plain[0] == jet[0]
    if plain[0] == "ok":
        pv, jv = plain[1], jet[1]
        assert (pv == jv) or (math.isnan(pv) and math.isnan(jv))


@settings(max_examples=300, derandomize=True)
@given(
    _asts(),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_compiled_matches_interpreted_bitwise(ast, a, b):
    field = ScalarField(ast, to_source(ast))
    compiled = compile_field(field, XY)
    interp = _same_result(lambda: evaluate(field, {"x1": a, "x2": b}))
    fast = _same_result(lambda: compiled((a, b)))
    assert interp[0] == fast[0]
    if interp[0] == "ok":
        pv, jv = interp[1], fast[1]
        assert (pv == jv) or (math.isnan(pv) and math.isnan(jv))


# -- shared subtrees across a space's fields ------------------------------------


def _table_cases():
    """The catalog specs and every specgen family at each of its
    dimensions (n = 2-4) and expression sizes."""
    generated = [
        specgen.generate(random.Random(f"shared:{family}:{n}:{size}"), family, n, size, family)
        for family in specgen.FAMILIES
        for n in specgen.DIMENSIONS[family]
        for size in specgen.SIZES
    ]
    return [
        pytest.param(spec, id=f"{spec['name']}-n{len(spec['coordinates'])}-{k}")
        for k, spec in enumerate([*specgen.catalog_specs(), *generated])
    ]


def _bits(scalar):
    """Every leaf of a scalar, in slot order, as reprs (so -0.0 != 0.0)."""
    if isinstance(scalar, jets.Jet):
        return _bits(scalar.value) + [b for p in scalar.partials for b in _bits(p)]
    if isinstance(scalar, np.ndarray):
        return [repr(v) for v in scalar.tolist()]
    return [repr(scalar)]


def _per_field(space, x):
    """a (upper triangle) and b at x, each entry by its own evaluate, in
    the order of one table pass."""
    env = dict(zip(space.chart.names, x))
    n = space.dimension
    upper = [space.a[i][j] for i in range(n) for j in range(i, n)]
    return [evaluate(f, env) for f in [*upper, *space.b]]


def _table_pass(space, x):
    a, b = randers._a_and_b(space, x)
    n = space.dimension
    return [a[i][j] for i in range(n) for j in range(i, n)] + b


def _outcome(fn):
    try:
        return ("ok", [_bits(e) for e in fn()])
    except ExprDomainError as exc:
        return ("err", type(exc), str(exc), exc.node)


class TestSharedSubtrees:
    @pytest.mark.parametrize("spec", _table_cases())
    def test_table_pass_equals_per_field_evaluation(self, spec):
        space = manifest.space_from_spec(spec)
        n = space.dimension
        rng = np.random.default_rng(n)
        columns = [rng.uniform(lo, hi, size=6) for lo, hi in space.chart.bounds]
        floats = [list(p) for p in zip(*[c.tolist() for c in columns])]
        inputs = [*floats[:2], columns]
        for levels in (1, 2, 3):
            point = floats[0]
            lanes = columns
            for _ in range(levels):
                point = seed_group(point, range(n))
                lanes = seed_group(lanes, range(n))
            inputs += [point, lanes]
        for x in inputs:
            expected = _outcome(lambda: _per_field(space, x))
            assert expected[0] == "ok"
            assert _outcome(lambda: _table_pass(space, x)) == expected
            a, b = randers.a_at(space, x), randers.b_at(space, x)
            separate = [a[i][j] for i in range(n) for j in range(i, n)] + b
            assert [_bits(e) for e in separate] == expected[1]

    def test_shared_subtree_is_evaluated_once_per_pass(self, monkeypatch):
        names = ["x1", "x2"]
        fields = [parse(s, names) for s in ("exp(x1)*x2", "2 + exp(x1)", "exp(x1)", "exp(x2)")]
        expected = [evaluate(f, {"x1": 0.5, "x2": 0.25}) for f in fields]
        calls = []
        exp = expr.FUNCTIONS["exp"]
        monkeypatch.setitem(expr.FUNCTIONS, "exp", lambda x: calls.append(x) or exp(x))
        shared = expr.SharedSubtrees(fields)
        exp_x1 = [fields[0].ast.left, fields[1].ast.right, fields[2].ast]
        assert shared.slots == {id(node): 0 for node in exp_x1}
        fns = [compile_field(f, names, shared) for f in fields]
        args = shared.pass_args((0.5, 0.25))
        values = [fn(args) for fn in fns]
        assert len(calls) == 2  # exp(x1) once for three fields, exp(x2) once
        assert values == expected
        # A new pass has a new memo; a plain tuple has none.
        args = shared.pass_args((0.5, 0.25))
        assert [fn(args) for fn in fns] == values
        assert len(calls) == 2 + 2
        assert [fn((0.5, 0.25)) for fn in fns] == values
        assert len(calls) == 2 + 2 + 4

    def test_space_shares_its_repeated_subtrees(self, monkeypatch):
        # The conformal factor exp(phi) of a riemannian spec sits on every
        # diagonal entry: one exp per pass, on floats and on array leaves.
        spec = specgen.generate(random.Random("shared-exp"), "riemannian", 3, 1, "conformal")
        calls = []
        exp = expr.FUNCTIONS["exp"]
        monkeypatch.setitem(expr.FUNCTIONS, "exp", lambda x: calls.append(x) or exp(x))
        space = manifest.space_from_spec(spec)
        lanes = [np.array([0.1, -0.4]), np.array([0.2, 0.5]), np.array([0.3, 0.0])]
        for x in ([0.1, 0.2, 0.3], lanes):
            calls.clear()
            randers._a_and_b(space, x)
            assert len(calls) == 1
            calls.clear()
            randers.PointData(space, x)
            assert len(calls) == 1

    def test_only_repeated_subtrees_get_a_slot(self):
        names = ["x1", "x2"]
        conf = "(1 + x1^2 + x2^2)^2"
        fields = [parse(s, names) for s in (f"4/{conf}", f"4/{conf}", f"x1*x2/{conf}", "x1^2")]
        first, second, third, last = (f.ast for f in fields)
        slots = expr.SharedSubtrees(fields).slots
        # The diagonal entry, the conformal factor and x1^2 (in it and in the
        # last field) repeat; the sum inside the factor occurs only in it.
        assert slots[id(first)] == slots[id(second)]
        assert slots[id(first.right)] == slots[id(second.right)] == slots[id(third.right)]
        assert id(first.right.left) not in slots
        x1_squared = [id(f.ast.right.left.left.right) for f in fields[:3]] + [id(last)]
        assert len({slots[k] for k in x1_squared}) == 1
        assert set(slots.values()) == {0, 1, 2}
        assert len(expr.SharedSubtrees(fields).pass_args((1.0, 2.0)).memo) == 3
        assert type(expr.SharedSubtrees(fields[2:3]).pass_args((1.0, 2.0))) is tuple

    @pytest.mark.parametrize(
        "metric,one_form,bad,message",
        [
            (
                [["1/(x1-x1)", "0"], ["0", "1/(x1-x1)"]],
                ["0", "0"],
                0.5,
                "division by zero in '1.0/(x1-x1)'",
            ),
            (
                [["2 + log(x1)", "0"], ["0", "1"]],
                ["0.1*log(x1)", "0"],
                -0.5,
                "log of non-positive value -0.5 in 'log(x1)'",
            ),
        ],
    )
    def test_domain_error_in_a_shared_subtree(self, metric, one_form, bad, message):
        space = randers.build_space(["x1", "x2"], [(-1.0, 1.0), (-1.0, 1.0)], metric, one_form)
        assert randers._fns(space)["shared"].slots
        lanes = [np.array([0.25, bad, -0.75]), np.array([0.1, 0.2, 0.3])]
        for x in ([bad, 0.2], lanes, *(seed_group(p, range(2)) for p in ([bad, 0.2], lanes))):
            expected = _outcome(lambda: _per_field(space, x))
            assert expected[:3] == ("err", ExprDomainError, message)
            assert _outcome(lambda: _table_pass(space, x)) == expected
        # So does PointData's first-order jet pass over the lanes.
        with pytest.raises(ExprDomainError) as err:
            randers.PointData(space, lanes)
        assert str(err.value) == message
