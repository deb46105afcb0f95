"""Array leaves through the scalar tower, and the batched transport oracle.

A 1-D float64 array leaf holds one value per member of a batch; every
layer must treat it element by element exactly as it treats a float.
NumPy's transcendentals may differ from `math` by 1 ulp, so those
comparisons allow a few ulps; pure arithmetic must match exactly.
"""

import warnings

import numpy as np
import pytest

from finslerlab import catalog, expr, jets, manifest, randers
from finslerlab.core import (
    DomainExitError,
    FinslerStructure,
    geodesic,
    geodesic_batch,
    probe_pairs,
)
from finslerlab.expr import ExprDomainError
from finslerlab.jets import Jet, seed_group
from finslerlab.linalg import SingularMatrixError, inv
from finslerlab.scurvature import (
    busemann_hausdorff_measure,
    lebesgue_measure,
    riemannian_volume_measure,
    s_curvature_transport,
    s_curvature_transport_batch,
)

# A scaled sphere-hopf space (n = 3) as the benchmark's spec generator draws it.
HOPF_SPEC = {
    "schema": 1,
    "name": "generated-hopf-n3",
    "dimension": 3,
    "coordinates": ["x1", "x2", "x3"],
    "metric": [
        ["5.400960/(1 + x1^2 + x2^2 + x3^2)^2", "0", "0"],
        ["0", "5.400960/(1 + x1^2 + x2^2 + x3^2)^2", "0"],
        ["0", "0", "5.400960/(1 + x1^2 + x2^2 + x3^2)^2"],
    ],
    "beta": [
        "1.235628*(x1*x3 - x2)/(1 + x1^2 + x2^2 + x3^2)^2",
        "1.235628*(x2*x3 + x1)/(1 + x1^2 + x2^2 + x3^2)^2",
        "0.617814*(1 + x3^2 - x1^2 - x2^2)/(1 + x1^2 + x2^2 + x3^2)^2",
    ],
    "domain": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
}

# A flat space whose chart is so small that transport geodesics leave it.
TINY_SPEC = {
    "schema": 1,
    "name": "tiny-domain",
    "dimension": 2,
    "coordinates": ["x1", "x2"],
    "metric": [["1", "0"], ["0", "1"]],
    "beta": ["0.5", "0"],
    "domain": [[-0.01, 0.01], [-0.01, 0.01]],
}

PRIMITIVES = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")
GENERATED = (
    "x1^2*sin(x2) - exp(-x1)/(2 + cos(x1*x2))",
    "sqrt(1 + x1^2)^3 - log(2 + x2)^(-2)",
    "(1 + x1^2)^1.5 + 2^x2",
    "tanh(x1)*sinh(x2) + cosh(x1)/(3 + tan(x2))",
    "-(x1 - x2)^5/(1 + x2^2)^2",
)


def assert_ulps(actual, expected, ulps):
    """Element-wise |actual - expected| <= ulps units in the last place."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    scale = np.spacing(np.maximum(np.abs(actual), np.abs(expected)))
    assert np.all(np.abs(actual - expected) <= ulps * scale), (actual, expected)


def leaves(values):
    return np.array(values, dtype=float)


class TestJetsArrayLeaves:
    X = (0.3, -1.2, 2.5, 0.01, 1.0)
    POSITIVE = (0.3, 1.2, 2.5, 0.01, 1.0)

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_matches_floats(self, name):
        fn = getattr(jets, name)
        points = self.POSITIVE if name in ("log", "sqrt") else self.X
        out = fn(leaves(points))
        assert isinstance(out, np.ndarray)
        assert_ulps(out, [fn(p) for p in points], 1)

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_on_jets_over_arrays(self, name):
        fn = getattr(jets, name)
        points = self.POSITIVE if name in ("log", "sqrt") else self.X
        batched = fn(Jet(leaves(points), (np.ones(len(points)), 0.5)))
        for k, p in enumerate(points):
            single = fn(Jet(p, (1.0, 0.5)))
            assert_ulps(batched.value[k], single.value, 1)
            for slot, expected in zip(batched.partials, single.partials):
                assert_ulps(np.broadcast_to(slot, len(points))[k], expected, 4)

    def test_intpow_is_exact(self):
        x = leaves(self.X)
        for k in (-3, -1, 0, 1, 2, 3, 5, 8):
            assert np.array_equal(
                np.broadcast_to(jets.intpow(x, k), x.shape), [jets.intpow(p, k) for p in self.X]
            )

    def test_powf(self):
        out = jets.powf(leaves(self.POSITIVE), 1.7)
        assert_ulps(out, [jets.powf(p, 1.7) for p in self.POSITIVE], 4)

    def test_ndarray_operators_defer_to_jet(self):
        jet = Jet(2.0, (1.0, 0.0))
        ones = np.ones(3)
        for result in (ones * jet, ones + jet, ones - jet, ones / jet):
            assert isinstance(result, Jet)
        product = ones * jet
        assert np.array_equal(product.value, [2.0, 2.0, 2.0])
        assert np.array_equal(product.partials[0], [1.0, 1.0, 1.0])
        quotient = ones / jet
        assert np.array_equal(quotient.value, [0.5] * 3)
        assert np.array_equal(quotient.partials[0], [-0.25] * 3)

    def test_seed_group_and_standard_part(self):
        xs = seed_group([leaves(self.X), 0.5], range(2))
        r = xs[0] * xs[0] * xs[1]
        assert np.array_equal(jets.standard_part(r), leaves(self.X) ** 2 * 0.5)
        assert np.array_equal(jets.partial(r, 0), 2.0 * leaves(self.X) * 0.5)
        assert not jets.is_constant(r)
        assert jets.is_constant(Jet(leaves(self.X), (0.0, np.zeros(5))))


def _expression_cases():
    cases = []
    for name in catalog.NAMES:
        spec = catalog.spec(name)
        for source in [e for row in spec["metric"] for e in row] + spec["beta"]:
            cases.append((name, source, spec["coordinates"], spec["domain"]))
    for source in [e for row in HOPF_SPEC["metric"] for e in row] + HOPF_SPEC["beta"]:
        cases.append(("generated-hopf-n3", source, HOPF_SPEC["coordinates"], HOPF_SPEC["domain"]))
    for source in GENERATED:
        cases.append(("generated", source, ["x1", "x2"], [[-1.0, 1.0], [-0.9, 0.9]]))
    return cases


class TestExprArrayLeaves:
    @pytest.mark.parametrize("label,source,names,domain", _expression_cases())
    def test_compiled_and_evaluated_match_floats(self, label, source, names, domain):
        field = expr.parse(source, names)
        fn = expr.compile_field(field, names)
        rng = np.random.default_rng(len(source))
        columns = [rng.uniform(lo + 0.01, hi - 0.01, size=12) for lo, hi in domain]
        points = list(zip(*[c.tolist() for c in columns]))
        compiled = np.broadcast_to(fn(tuple(columns)), (12,))
        evaluated = np.broadcast_to(expr.evaluate(field, dict(zip(names, columns))), (12,))
        floats = [fn(p) for p in points]
        assert floats == [expr.evaluate(field, dict(zip(names, p))) for p in points]
        assert_ulps(compiled, floats, 8)
        assert_ulps(evaluated, floats, 8)
        # First-order jets over array leaves against jets over floats.
        batched = fn(tuple(seed_group(columns, range(len(names)))))
        for k, p in enumerate(points):
            single = fn(tuple(seed_group(list(p), range(len(names)))))
            for i in range(len(names)):
                got = np.broadcast_to(jets.partial(batched, i), (12,))[k]
                assert_ulps(got, jets.partial(single, i), 64)

    @pytest.mark.parametrize(
        "source,bad,match",
        [
            ("log(x1)", -0.1, "log of non-positive value -0.1"),
            ("sqrt(x1)", -0.1, "sqrt of non-positive value -0.1"),
            ("x2/x1", 0.0, "division by zero"),
            ("x1^(-2)", 0.0, "zero base with negative exponent"),
            ("x1^1.5", -0.1, "non-integer power of non-positive base -0.1"),
            ("x1^x2", -0.1, "non-integer power of non-positive base -0.1"),
        ],
    )
    def test_guards_raise_on_one_bad_element(self, source, bad, match):
        field = expr.parse(source, ["x1", "x2"])
        fn = expr.compile_field(field, ["x1", "x2"])
        x1 = leaves([0.5, 0.2, bad, 0.7])
        x2 = leaves([1.0, 2.0, 3.0, 4.0])
        for args in ((x1, x2), tuple(seed_group([x1, x2], range(2)))):
            with pytest.raises(ExprDomainError, match=match):
                fn(args)
            with pytest.raises(ExprDomainError, match=match):
                expr.evaluate(field, dict(zip(["x1", "x2"], args)))
        good = leaves([0.5, 0.2, 0.3, 0.7])
        assert np.all(np.isfinite(fn((good, x2))))


class TestInvBatch:
    def test_matches_float_inverses(self):
        rng = np.random.default_rng(3)
        size, n = 25, 3
        entries = [[rng.uniform(-0.3, 0.3, size) for _ in range(n)] for _ in range(n)]
        matrix = [
            [entries[i][j] + entries[j][i] + (2.0 if i == j else 0.0) for j in range(n)]
            for i in range(n)
        ]
        matrix[0][2] = matrix[2][0] = 0.25  # a float entry mixed into the batch
        batched = inv(matrix)
        for k in range(size):
            single = inv(
                [[e if isinstance(e, float) else float(e[k]) for e in row] for row in matrix]
            )
            for i in range(n):
                for j in range(n):
                    assert batched[i][j][k] == pytest.approx(single[i][j], rel=1e-14, abs=1e-15)

    def test_singular_member_raises(self):
        a = leaves([1.0, 2.0, 1.0])
        with pytest.raises(SingularMatrixError):
            inv([[a, 1.0], [1.0, leaves([3.0, 4.0, 1.0])]])


def _space_cases():
    return [(name, None) for name in catalog.NAMES] + [("generated-hopf-n3", HOPF_SPEC)]


class TestTransportBatch:
    @pytest.mark.parametrize("name,spec", _space_cases())
    def test_batch_equals_per_probe(self, name, spec):
        space = manifest.space_from_spec(spec) if spec else catalog.space(name)
        F = randers.finsler(space)
        measure = busemann_hausdorff_measure(space)
        pairs = probe_pairs(space.chart, 20)
        xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
        batch = s_curvature_transport_batch(F, measure, xs, vs)
        single = [s_curvature_transport(F, measure, x, v) for x, v in pairs]
        assert len(batch) == 20
        assert max(abs(b - s) for b, s in zip(batch, single)) <= 1e-12

    def test_one_probe_reproduces_recorded_values(self, spaces, structures):
        # Values of the per-probe float oracle recorded before the batch existed.
        bh = busemann_hausdorff_measure
        cases = [
            ("flat-nonkilling", bh, (0.5, 0.0), (1.0, 0.0), {}, 0.7500000000000062),
            ("sphere-hopf", bh, (0.1, -0.2, 0.3), (0.6, 0.0, 0.8), {}, -7.547056239418653e-13),
            (
                "polar-riemannian", riemannian_volume_measure, (1.2, 3.0), (0.5, 0.3),
                {"richardson": False}, -8.550339214846362e-15,
            ),
            (
                "rotational-killing", bh, (0.3, -0.4), (-0.2, 0.9),
                {"steps": 51, "h": 2e-3}, 0.004862764533968858,
            ),
        ]
        for name, kind, x, v, options, expected in cases:
            measure = kind(spaces[name])
            assert s_curvature_transport(structures[name], measure, x, v, **options) == expected
            single = s_curvature_transport_batch(structures[name], measure, [x], [v], **options)
            assert single == [expected]

    def test_empty_batch(self, spaces, structures):
        measure = busemann_hausdorff_measure(spaces["flat-const"])
        assert s_curvature_transport_batch(structures["flat-const"], measure, [], []) == []

    @pytest.mark.parametrize(
        "order",
        [
            [(0.0, 0.0), (0.003, -0.002), (0.0095, 0.0), (-0.004, 0.001)],
            [(0.0095, 0.0), (0.0, 0.0), (-0.0095, 0.0), (0.003, -0.002)],
        ],
    )
    def test_chart_exit_raises_what_the_loop_raises(self, order):
        space = manifest.space_from_spec(TINY_SPEC)
        F = randers.finsler(space)
        measure = busemann_hausdorff_measure(space)
        vs = [(1.0, 0.0)] * len(order)
        with pytest.raises(DomainExitError) as in_loop:
            for x, v in zip(order, vs):
                s_curvature_transport(F, measure, x, v)
        with pytest.raises(DomainExitError) as batched:
            s_curvature_transport_batch(F, measure, order, vs)
        expected, got = in_loop.value, batched.value
        assert got.time == expected.time
        assert got.path.times == expected.path.times
        assert len(got.path.points) == len(expected.path.points)
        for p, q in zip(got.path.points + got.path.velocities,
                        expected.path.points + expected.path.velocities):
            assert p == pytest.approx(q, abs=1e-15)

    def test_stage_error_raises_what_the_loop_raises(self):
        # sqrt(x1) is evaluated at RK4 stage points past x1 = 0 before the
        # step-end chart check, so the float oracle raises ExprDomainError.
        space = randers.build_space(
            ["x1", "x2"], [(0.0, 1.0), (-1.0, 1.0)], [["1 + sqrt(x1)", "0"], ["0", "1"]],
            ["0.1", "0"],
        )
        F = randers.finsler(space)
        measure = lebesgue_measure()
        # Probe 0 fails late, probe 2 early: the loop raises probe 0's error.
        xs = [(0.0008, 0.0), (0.5, 0.1), (0.0002, 0.0), (0.5, 0.0)]
        vs = [(-1.0, 0.0), (0.3, 1.0), (-1.0, 0.0), (1.0, 0.0)]
        with pytest.raises(ExprDomainError) as in_loop:
            for x, v in zip(xs, vs):
                s_curvature_transport(F, measure, x, v)
        with pytest.raises(ExprDomainError) as batched:
            s_curvature_transport_batch(F, measure, xs, vs)
        assert str(batched.value) == str(in_loop.value)
        assert "-2.77590182800" in str(batched.value)


class TestGeodesicBatch:
    def test_paths_match_geodesic(self, structures):
        F = structures["sphere-hopf"]
        pairs = probe_pairs(F.chart, 6)
        times = [0.3, -0.2, 0.5, 0.1, -0.4, 0.25]
        run = geodesic_batch(F, [x for x, _ in pairs], [v for _, v in pairs], times, steps=40)
        assert len(run.times) == 41
        for k, ((x, v), t) in enumerate(zip(pairs, times)):
            single = geodesic(F, x, v, t, steps=40)
            assert [float(s[k]) for s in run.times[1:]] == single.times[1:]
            for p, q in zip(run.points + run.velocities, single.points + single.velocities):
                assert [float(c[k]) for c in p] == pytest.approx(q, rel=1e-13, abs=1e-14)

    def test_any_failing_trajectory_gives_none(self, structures):
        F = structures["flat-const"]
        xs = [(0.0, 0.0), (0.1, 0.1), (0.0, 0.8)]
        # A zero start vector in the middle of the batch.
        assert geodesic_batch(F, xs, [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)], [0.1] * 3, 10) is None
        # Trajectory 2 leaves the chart at t ~ 0.2, the others stay inside.
        vs = [(1.0, 0.0), (0.0, 0.5), (0.0, 1.0)]
        assert geodesic_batch(F, xs, vs, [0.1, 0.1, 0.1], steps=10) is not None
        assert geodesic_batch(F, xs, vs, [0.1, 0.1, 0.5], steps=50) is None

    def test_failing_batch_emits_no_runtime_warning(self, structures):
        # A spray that turns every lane NaN, the way a blow-up does.
        F = FinslerStructure(
            structures["flat-const"].chart,
            structures["flat-const"].func,
            fast_spray=lambda x, v: [np.log(c - 10.0) for c in v],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geodesic_batch(F, [(0.0, 0.0)] * 2, [(1.0, 0.0)] * 2, [0.1] * 2, 10) is None
            space = manifest.space_from_spec(TINY_SPEC)
            with pytest.raises(DomainExitError):
                s_curvature_transport_batch(
                    randers.finsler(space), busemann_hausdorff_measure(space),
                    [(0.0, 0.0), (0.0095, 0.0)], [(1.0, 0.0)] * 2,
                )
