"""Array leaves through the scalar tower, and the batched transport oracle.

A 1-D float64 array leaf holds one value per member of a batch (one
lane per point); every layer must treat it lane by lane exactly as it
treats a float.  Every comparison here is exact: the transcendental
primitives map `math` over the lanes, `inv` and `det` pivot lane by
lane, and a batch that fails hands its points to the float loop.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from finslerlab import catalog, checks, cli, expr, jets, manifest, randers, scurvature
from finslerlab.core import (
    DomainExitError,
    FinslerStructure,
    NonFiniteStateError,
    PairTensors,
    StructureValidityError,
    geodesic,
    nonlinear_connection,
    probe_grid,
    probe_pairs,
    spray,
)
from finslerlab.expr import ExprDomainError
from finslerlab.jets import Jet, seed_group
from finslerlab.linalg import SingularMatrixError, _has_lanes, _pivot_lanes, _stacked, det, inv
from finslerlab.scurvature import (
    busemann_hausdorff_measure,
    lebesgue_measure,
    riemannian_volume_measure,
    s_curvature_from,
    s_curvature_transport,
    s_curvature_transport_batch,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import specgen  # noqa: E402
from report_digests import workload_specs  # noqa: E402

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

# a00 = 0.2 + x2^2 against |a10| = 0.5 |x1|: the partial-pivot row of
# column 0 changes across the grid (row 1 wins where |x1| > 0.4 + 2 x2^2).
PIVOT_SPEC = {
    "schema": 1,
    "name": "lane-pivots",
    "dimension": 2,
    "coordinates": ["x1", "x2"],
    "metric": [["0.2 + x2^2", "0.5*x1"], ["0.5*x1", "4"]],
    "beta": ["0.3*tanh(x2)", "0.2*exp(-x1^2)"],
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
}

PRIMITIVES = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")
GENERATED = (
    "x1^2*sin(x2) - exp(-x1)/(2 + cos(x1*x2))",
    "sqrt(1 + x1^2)^3 - log(2 + x2)^(-2)",
    "(1 + x1^2)^1.5 + 2^x2",
    "tanh(x1)*sinh(x2) + cosh(x1)/(3 + tan(x2))",
    "-(x1 - x2)^5/(1 + x2^2)^2",
)


def assert_lanes(actual, expected):
    """Lane k of `actual` (an array or a float constant) is expected[k],
    bit for bit; -0.0 and 0.0 count as different."""
    lanes = np.broadcast_to(actual, (len(expected),)).tolist()
    assert [repr(a) for a in lanes] == [repr(float(e)) for e in expected]


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
        assert_lanes(out, [fn(p) for p in points])

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_on_jets_over_arrays(self, name):
        fn = getattr(jets, name)
        points = self.POSITIVE if name in ("log", "sqrt") else self.X
        batched = fn(Jet(leaves(points), (np.ones(len(points)), 0.5)))
        singles = [fn(Jet(p, (1.0, 0.5))) for p in points]
        assert_lanes(batched.value, [single.value for single in singles])
        for slot, slot_value in enumerate(batched.partials):
            assert_lanes(slot_value, [single.partials[slot] for single in singles])

    @pytest.mark.parametrize("name", ("exp", "cosh", "sinh"))
    def test_overflow_raises_as_math_does(self, name):
        with pytest.raises(OverflowError):
            getattr(jets, name)(leaves([0.5, 800.0, 1.0]))

    def test_intpow_is_exact(self):
        x = leaves(self.X)
        for k in (-3, -1, 0, 1, 2, 3, 5, 8):
            assert np.array_equal(
                np.broadcast_to(jets.intpow(x, k), x.shape), [jets.intpow(p, k) for p in self.X]
            )

    def test_powf(self):
        out = jets.powf(leaves(self.POSITIVE), 1.7)
        assert_lanes(out, [jets.powf(p, 1.7) for p in self.POSITIVE])

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
        floats = [fn(p) for p in points]
        assert floats == [expr.evaluate(field, dict(zip(names, p))) for p in points]
        assert_lanes(fn(tuple(columns)), floats)
        assert_lanes(expr.evaluate(field, dict(zip(names, columns))), floats)
        # First-order jets over array leaves against jets over floats.
        batched = fn(tuple(seed_group(columns, range(len(names)))))
        singles = [fn(tuple(seed_group(list(p), range(len(names))))) for p in points]
        assert_lanes(jets.standard_part(batched), [jets.standard_part(s) for s in singles])
        for i in range(len(names)):
            assert_lanes(jets.partial(batched, i), [jets.partial(s, i) for s in singles])

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


def _lane(entry, k):
    """Lane k of a scalar whose leaves are arrays or floats, at every jet level."""
    if isinstance(entry, Jet):
        return Jet(_lane(entry.value, k), tuple(_lane(p, k) for p in entry.partials))
    return float(entry[k]) if isinstance(entry, np.ndarray) else entry


def _flat(entry):
    """Every leaf of a scalar, in slot order, as a repr (so -0.0 != 0.0)."""
    if isinstance(entry, Jet):
        return _flat(entry.value) + [leaf for p in entry.partials for leaf in _flat(p)]
    return [repr(float(entry))]


def _entries(nested):
    """The scalars of nested lists, row by row."""
    if isinstance(nested, (list, tuple)):
        return [e for item in nested for e in _entries(item)]
    return [nested]


def assert_matches_lanes(batched, per_lane):
    """Lane k of `batched` equals per_lane[k], for nested lists of scalars."""
    for k, expected in enumerate(per_lane):
        got = [_flat(_lane(e, k)) for e in _entries(batched)]
        assert got == [_flat(e) for e in _entries(expected)], k


def _random_batches(n, size, seed):
    """Random SPD matrices and random unsymmetric ones, whose pivot rows vary by lane."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(-1.0, 1.0, (size, n, n))
    spd = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(n)
    general = rng.uniform(-1.0, 1.0, (size, n, n))
    return [[[stack[:, i, j].copy() for j in range(n)] for i in range(n)] for stack in (spd, general)]


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
        lanes = [[[_lane(e, k) for e in row] for row in matrix] for k in range(size)]
        assert_matches_lanes(inv(matrix), [inv(m) for m in lanes])
        assert_matches_lanes(det(matrix), [det(m) for m in lanes])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_batches_equal_float_path(self, n):
        size = 100
        for matrix in _random_batches(n, size, seed=n):
            lanes = [[[_lane(e, k) for e in row] for row in matrix] for k in range(size)]
            assert_matches_lanes(inv(matrix), [inv(m) for m in lanes])
            assert_matches_lanes(det(matrix), [det(m) for m in lanes])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jets_over_arrays_equal_jets_over_floats(self, n):
        size = 40
        for matrix in _random_batches(n, size, seed=10 + n):
            # Entry (i, j) depends on a two-slot seed, so every pivot carries partials.
            t = seed_group([np.zeros(size), 0.0], range(2))
            jets_matrix = [
                [e + (0.1 * (i + 1)) * t[0] - (0.05 * j) * t[1] * e for j, e in enumerate(row)]
                for i, row in enumerate(matrix)
            ]
            lanes = [[[_lane(e, k) for e in row] for row in jets_matrix] for k in range(size)]
            assert_matches_lanes(inv(jets_matrix), [inv(m) for m in lanes])
            assert_matches_lanes(det(jets_matrix), [det(m) for m in lanes])

    def test_a_lane_pivot_swap_can_flip_the_sign_of_a_zero_slot(self):
        """Lane 1 swaps rows 0 and 1 and lane 0 does not, so jets.select
        mixes ZERO slots with values: lane 0 then computes a zero where its
        float run skips a ZERO term.  Every slot of both lanes equals the
        float run's, but for one zero whose sign differs."""
        ZERO = jets.ZERO
        matrix = [
            [Jet(leaves([3.0, 1.0]), (0.5, ZERO)), leaves([-0.0, 3.0]), -0.0],
            [2.0, Jet(leaves([2.0, -1.0]), (1.0, ZERO)), Jet(leaves([2.0, 1.0]), (ZERO, 3.0))],
            [0.5, -1.0, Jet(leaves([-0.0, -0.0]), (ZERO, 2.0))],
        ]
        batched = _entries(inv(matrix))
        for k in range(2):
            single = inv([[_lane(e, k) for e in row] for row in matrix])
            expected = [_flat(e) for e in _entries(single)]
            got = [_flat(_lane(e, k)) for e in batched]
            if k == 0:  # entry (1, 2), its first partial slot
                assert (got[5][1], expected[5][1]) == ("-0.0", "0.0")
                got[5][1] = expected[5][1]
            assert got == expected, k

    def test_singular_member_raises(self):
        a = leaves([1.0, 2.0, 1.0])
        with pytest.raises(SingularMatrixError):
            inv([[a, 1.0], [1.0, leaves([3.0, 4.0, 1.0])]])

    def test_det_of_a_singular_lane_is_the_float_value(self):
        # Lanes 1 and 2 are singular: the batch raises, and jets.lanewise
        # hands the three matrices to the float loop.
        matrix = [
            [leaves([2.0, 0.0, 1.0]), leaves([1.0, 1.0, 2.0]), 0.5],
            [leaves([1.0, 0.0, 2.0]), leaves([3.0, 2.0, 4.0]), 1.0],
            [0.25, leaves([0.5, 0.0, 1.0]), leaves([1.0, 1.0, 3.0])],
        ]
        with pytest.raises(SingularMatrixError):
            det(matrix)
        lanes = [[[_lane(e, k) for e in row] for row in matrix] for k in range(3)]
        expected = [det(m) for m in lanes]
        assert expected[1] == 0.0 and expected[2] == 0.0
        got = jets.lanewise(lambda p: det([p[0:3], p[3:6], p[6:9]]), [sum(m, []) for m in lanes])
        assert [d.hex() for d in got] == [d.hex() for d in expected]


class TestFloatZeroPivotCandidates:
    """Float 0.0 and -0.0 entries in a lane batch, as in a diagonal metric:
    inv and det equal the per-matrix float loop by float.hex."""

    @staticmethod
    def hexes(result, k):
        return [float(_lane(e, k)).hex() for e in _entries(result)]

    def test_equal_the_float_loop(self):
        a = leaves([2.0, -1.5, 0.5, math.nan])
        b = leaves([0.25, 3.0, -4.0, 1.0])
        c = leaves([-1.0, 0.75, 2.0, 5.0])
        for matrix in (
            [[a, 0.0, 0.0], [0.0, b, -0.0], [0.0, 0.0, c]],
            [[0.0, b, 0.0], [-0.0, 0.0, a], [c, 0.0, 1.5]],
            [[0.0, 1.0, a], [b, 0.0, 0.0], [0.0, c, -0.0]],
        ):
            singles = [[[_lane(e, k) for e in row] for row in matrix] for k in range(4)]
            for op in (inv, det):
                batched = op(matrix)
                assert [self.hexes(batched, k) for k in range(4)] == [
                    self.hexes(op(m), 0) for m in singles
                ]

    def test_singular_lane(self):
        # Lane 1 is singular: the batch raises, the float loop gives
        # det = 0.0 there and inv raises there only.
        matrix = [
            [leaves([2.0, 1.0, -3.0]), 0.0, 0.0],
            [0.0, leaves([0.5, 0.0, 4.0]), -0.0],
            [0.0, 0.0, leaves([1.0, 2.0, 0.25])],
        ]
        singles = [[[_lane(e, k) for e in row] for row in matrix] for k in range(3)]
        for op in (inv, det):
            with pytest.raises(SingularMatrixError):
                op(matrix)
        got = jets.lanewise(lambda p: det([p[0:3], p[3:6], p[6:9]]), [sum(m, []) for m in singles])
        assert [d.hex() for d in got] == [det(m).hex() for m in singles]
        assert got[1] == 0.0
        with pytest.raises(SingularMatrixError):
            inv(singles[1])
        regular = [[e[[0, 2]] if isinstance(e, np.ndarray) else e for e in row] for row in matrix]
        for op in (inv, det):
            batched = op(regular)
            assert [self.hexes(batched, k) for k in range(2)] == [
                self.hexes(op(singles[k]), 0) for k in (0, 2)
            ]


def _inv_every_column(matrix) -> list:
    """Gauss-Jordan as linalg.inv ran it before it skipped dead columns:
    every column of `a` is divided and eliminated at every pivot."""
    n = len(matrix)
    leaves_ = {type(entry) for row in matrix for entry in row}
    magnitude = abs if leaves_ == {float} else (lambda e: abs(jets.standard_part(e)))
    a = [list(row) for row in matrix]
    b = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    lanes = leaves_ != {float} and _has_lanes(a)
    for col in range(n):
        if lanes:
            assert _pivot_lanes(col, a, b)[0].all()
        else:
            pivot_row = max(range(col, n), key=lambda r: magnitude(a[r][col]))
            assert magnitude(a[pivot_row][col]) != 0.0
            if pivot_row != col:
                a[col], a[pivot_row] = a[pivot_row], a[col]
                b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        for c in range(n):
            a[col][c] = a[col][c] / pivot
            b[col][c] = b[col][c] / pivot
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if isinstance(factor, float) and factor == 0.0:
                continue
            for c in range(n):
                a[r][c] = a[r][c] - factor * a[col][c]
                b[r][c] = b[r][c] - factor * b[col][c]
    return b


def _bits(entry):
    """Every leaf of a scalar whose leaves are floats or arrays, as reprs."""
    if isinstance(entry, Jet):
        return _bits(entry.value), tuple(_bits(p) for p in entry.partials)
    if isinstance(entry, np.ndarray):
        return tuple(map(repr, entry.tolist()))
    return repr(float(entry))


class TestInvDeadColumns:
    """inv updates only the columns of `a` right of the pivot; the inverse
    equals the every-column elimination bit for bit."""

    @staticmethod
    def assert_same_inverse(matrix):
        expected = _inv_every_column(matrix)
        assert [[_bits(e) for e in row] for row in inv(matrix)] == [
            [_bits(e) for e in row] for row in expected
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_floats(self, n):
        for matrix in _random_batches(n, 30, seed=20 + n):
            for k in range(30):
                self.assert_same_inverse([[_lane(e, k) for e in row] for row in matrix])

    def test_floats_with_zero_factors_and_row_swaps(self):
        self.assert_same_inverse([[0.0, 2.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        self.assert_same_inverse([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 5.0, 1.0]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lanes_with_masked_pivot_swaps(self, n):
        for matrix in _random_batches(n, 50, seed=30 + n):
            column = np.abs(np.array([row[0] for row in matrix]))
            assert len(set(column.argmax(axis=0))) > 1  # pivot rows differ by lane
            self.assert_same_inverse(matrix)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("size", [None, 20])
    def test_jets(self, n, size):
        """Jets over floats (size None) and over array lanes."""
        for matrix in _random_batches(n, size or 1, seed=40 + n):
            if size is None:
                matrix = [[_lane(e, 0) for e in row] for row in matrix]
            t = seed_group([np.zeros(size) if size else 0.0, 0.0], range(2))
            self.assert_same_inverse([
                [e + (0.1 * (i + 1)) * t[0] - (0.05 * j) * t[1] * e for j, e in enumerate(row)]
                for i, row in enumerate(matrix)
            ])


def _space_cases():
    return [(name, None) for name in catalog.NAMES] + [
        ("generated-hopf-n3", HOPF_SPEC),
        ("lane-pivots", PIVOT_SPEC),
    ]


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
        assert [repr(b) for b in batch] == [repr(s) for s in single]

    def test_one_probe_reproduces_recorded_values(self, spaces, structures):
        # Values of the per-probe float oracle recorded before the batch
        # existed, at 100 steps unless a case says otherwise.
        bh = busemann_hausdorff_measure
        cases = [
            ("flat-nonkilling", bh, (0.5, 0.0), (1.0, 0.0), {"steps": 100}, 0.7500000000000062),
            (
                "sphere-hopf", bh, (0.1, -0.2, 0.3), (0.6, 0.0, 0.8), {"steps": 100},
                -7.547056239418653e-13,
            ),
            (
                "polar-riemannian", riemannian_volume_measure, (1.2, 3.0), (0.5, 0.3),
                {"steps": 100, "richardson": False}, -8.550339214846362e-15,
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
        # Probe 0 fails late, probe 2 early: the loop raises probe 0's error
        # (the value below is its stage point at 100 steps).
        xs = [(0.0008, 0.0), (0.5, 0.1), (0.0002, 0.0), (0.5, 0.0)]
        vs = [(-1.0, 0.0), (0.3, 1.0), (-1.0, 0.0), (1.0, 0.0)]
        with pytest.raises(ExprDomainError) as in_loop:
            for x, v in zip(xs, vs):
                s_curvature_transport(F, measure, x, v, steps=100)
        with pytest.raises(ExprDomainError) as batched:
            s_curvature_transport_batch(F, measure, xs, vs, steps=100)
        assert str(batched.value) == str(in_loop.value)
        assert "-2.77590182800" in str(batched.value)


class TestGeodesicBatch:
    """geodesic over 1-D array leaves, one lane per trajectory."""

    def test_lanes_equal_the_float_paths(self, structures):
        F = structures["sphere-hopf"]
        pairs = probe_pairs(F.chart, 6)
        times = [0.3, -0.2, 0.5, 0.1, -0.4, 0.25]
        x0, v0 = _pair_lanes(pairs)
        run = geodesic(F, x0, v0, leaves(times), steps=40)
        assert len(run.times) == 41
        for k, ((x, v), t) in enumerate(zip(pairs, times)):
            single = geodesic(F, x, v, t, steps=40)
            assert [_lane(s, k) for s in run.times] == single.times
            for p, q in zip(run.points + run.velocities, single.points + single.velocities):
                assert tuple(_lane(c, k) for c in p) == q

    @pytest.mark.parametrize(
        "v0,time,error",
        [
            # Trajectory 2 leaves the chart at t ~ 0.2, the others stay inside.
            ([(1.0, 0.0), (0.0, 0.5), (0.0, 1.0)], [0.1, 0.1, 0.5], DomainExitError),
            ([(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)], [0.1] * 3, StructureValidityError),
        ],
    )
    def test_a_failing_lane_raises_the_float_error(self, structures, v0, time, error):
        F = structures["flat-const"]
        x0 = [(0.0, 0.0), (0.1, 0.1), (0.0, 0.8)]
        with pytest.raises(error):
            for x, v, t in zip(x0, v0, time):
                geodesic(F, x, v, t, steps=50)
        with pytest.raises(error):
            geodesic(F, *_pair_lanes(zip(x0, v0)), leaves(time), steps=50)

    def test_non_finite_state_is_checked_before_the_chart(self, structures):
        flat = structures["flat-const"]
        # A spray that blows up at once: the state is inf, which is outside the chart too.
        F = FinslerStructure(flat.chart, flat.func, lambda x, v: [math.inf] * len(v))
        lanes = _pair_lanes([((0.0, 0.0), (1.0, 0.0))] * 2)
        for x0, v0 in [((0.0, 0.0), (1.0, 0.0)), lanes]:
            with pytest.raises(NonFiniteStateError):
                geodesic(F, x0, v0, 0.1, steps=10)
        # jets.lanewise hands the batch (times in lanes) to the float loop,
        # whose error has a float time.
        with pytest.raises(NonFiniteStateError) as batched:
            jets.lanewise(
                lambda p: geodesic(F, p[:2], p[2:4], p[4], 10).points[-1],
                [(0.0, 0.0, 1.0, 0.0, 0.1)] * 2,
            )
        assert batched.value.time == 0.01

    def test_lanewise_hands_a_failing_batch_to_the_float_loop(self, structures):
        F = structures["flat-const"]
        # Lane 1 leaves the chart; the float loop raises its error.
        points = [(0.0, 0.0, 1.0, 0.0, 0.1), (0.0, 0.8, 0.0, 1.0, 0.5), (0.1, 0.1, 0.0, 0.5, -0.1)]
        calls = []

        def end_state(p):
            calls.append(np.size(p[0]))
            return geodesic(F, p[:2], p[2:4], p[4], steps=50).points[-1]

        with pytest.raises(DomainExitError) as batched:
            jets.lanewise(end_state, points)
        assert calls == [3, 1, 1]
        with pytest.raises(DomainExitError) as in_loop:
            per_point_loop(end_state, points)
        assert batched.value.time == in_loop.value.time
        assert batched.value.path.points == in_loop.value.path.points
        inside = points[::2]
        assert jets.lanewise(end_state, inside) == per_point_loop(end_state, inside)


    def test_generic_spray_runs_on_lanes(self, structures):
        # F without fast_spray: geodesic runs core.spray, directly on lanes.
        base = structures["flat-nonkilling"]
        F = FinslerStructure(base.chart, base.func)
        pairs = [((0.1, -0.2), (1.0, 0.5)), ((0.3, 0.05), (-0.4, 0.0))]
        x0, v0 = _pair_lanes(pairs)
        assert_matches_lanes(spray(F, x0, v0), [spray(F, x, v) for x, v in pairs])
        assert_matches_lanes(
            nonlinear_connection(F, x0, v0), [nonlinear_connection(F, x, v) for x, v in pairs]
        )
        run = geodesic(F, x0, v0, leaves([0.1, 0.1]), 5)
        for k, (x, v) in enumerate(pairs):
            single = geodesic(F, x, v, 0.1, 5)
            for p, q in zip(run.points + run.velocities, single.points + single.velocities):
                assert [repr(_lane(c, k)) for c in p] == [repr(c) for c in q]

    def test_generic_spray_with_a_zero_lane_hands_over_to_the_float_loop(self, structures):
        base = structures["flat-nonkilling"]
        F = FinslerStructure(base.chart, base.func)
        points = [(0.1, -0.2, 1.0, 0.5), (0.3, 0.05, 0.0, 0.0)]

        def spray_at(p):
            return spray(F, p[:2], p[2:])

        with pytest.raises(StructureValidityError):
            batch_only(spray_at, points)
        assert jets.lanewise(spray_at, points) == per_point_loop(spray_at, points)
        # one column per spray component; point 1 has v = 0
        assert [column[1] for column in per_point_loop(spray_at, points)] == [0.0, 0.0]


def per_point_loop(fn, points):
    """jets.lanewise's fallback alone: fn on float leaves, point by point,
    its rows transposed into lanewise's columns."""
    rows = [fn(p) for p in points]
    return jets._transposed(rows) if rows else []


def batch_only(fn, points):
    """jets.lanewise without its fallback: a batch that fails raises."""
    points = list(points)
    if not points:
        return []
    with np.errstate(all="raise", under="ignore"):
        lanes = [np.array(c, dtype=float) for c in zip(*points)]
        return jets._columns(fn(lanes), len(points))


def run_cli(argv):
    """(exit code, JSON report without wall_time_s) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    report.pop("wall_time_s", None)
    return code, report


def outcome(call):
    """The repr of what a call returns, or the type and message of what
    it raises."""
    try:
        return "returned", repr(call())
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc).__name__, str(exc)


class TestLanePivots:
    def test_pivot_rows_vary_across_the_grid(self):
        space, _, analysis, _ = manifest.probed_space(PIVOT_SPEC, 100, 0)
        points = analysis.probes
        a = randers.a_at(space, [leaves(c) for c in zip(*points)])
        row_one = np.abs(a[1][0]) > np.abs(a[0][0])
        assert row_one.any() and not row_one.all()

    def test_inv_and_det_of_the_metric_equal_the_float_path(self):
        space, _, analysis, _ = manifest.probed_space(PIVOT_SPEC, 100, 0)
        points = analysis.probes
        columns = [leaves(c) for c in zip(*points)]
        for batched, singles in (
            (columns, [list(p) for p in points]),
            (seed_group(columns, range(2)), [seed_group(list(p), range(2)) for p in points]),
        ):
            a = randers.a_at(space, batched)
            per_lane = [randers.a_at(space, x) for x in singles]
            assert_matches_lanes(inv(a), [inv(m) for m in per_lane])
            assert_matches_lanes(det(a), [det(m) for m in per_lane])

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_report_through_the_batch_equals_the_per_point_path(self, tmp_path, command):
        path = tmp_path / "pivots.json"
        path.write_text(json.dumps(PIVOT_SPEC))
        argv = [command, str(path), "--seed", "3"]
        if command == "validate":
            argv += ["--mc-samples", "10000"]
        passes = []

        def counted(fn, points):
            passes.append(fn.__qualname__)
            return batch_only(fn, points)

        with mock.patch.object(jets, "lanewise", counted):
            batched = run_cli(argv)
        # validate_space: one pass over the grid, on array leaves
        assert passes.count("validate_space.<locals>.row") == 1
        with mock.patch.object(jets, "lanewise", per_point_loop):
            assert run_cli(argv) == batched
        assert batched[0] == (cli.EXIT_NO_MEASURE if command == "analyze" else cli.EXIT_OK)

    def test_geodesic_lanes_run(self):
        space = manifest.space_from_spec(PIVOT_SPEC)
        F = randers.finsler(space)
        pairs = probe_pairs(space.chart, 30)

        def end_state(p):
            path = geodesic(F, p[:2], p[2:], 0.05, 10)
            return [*path.points[-1], *path.velocities[-1]]

        grid = [(*x, *v) for x, v in pairs]
        assert batch_only(end_state, grid) == per_point_loop(end_state, grid)


def _failing_specs():
    """Spaces on (-1, 1)^2 that fail at exactly one point of the probe grid
    (100 probes, seed 0): the one where s = x1 + x2 is smallest or largest."""
    chart = catalog.space("flat-const").chart
    points = manifest.probe_grid(chart, 100, 0)[1]
    sums = sorted(x1 + x2 for x1, x2 in points)
    low = 0.5 * (sums[0] + sums[1])  # only the smallest s lies below
    high = 0.5 * (sums[-1] + sums[-2])  # only the largest s lies above
    lowest = min(points, key=sum)
    overflow = math.log(sys.float_info.max)  # where math.exp starts to raise

    def spec(name, metric00, beta0):
        return {
            "schema": 1, "name": name, "dimension": 2, "coordinates": ["x1", "x2"],
            "metric": [[metric00, "0"], ["0", "1"]], "beta": [beta0, "0.1"],
            "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        }

    return {
        "not-positive-definite": (
            spec("npd", f"x1 + x2 - {low!r}", "0.1"), "InvalidSpaceError", f"at x = {lowest!r}"
        ),
        "length-reaches-one": (
            # ||beta||^2 = b0^2 + 0.01 reaches 1 where b0 > sqrt(0.99)
            spec("long", "1", f"0.5*(x1 + x2) + {math.sqrt(0.99) - 0.5 * high!r}"),
            "InvalidSpaceError", "one-form length reaches 1",
        ),
        "expression-domain": (
            spec("domain", f"1 + sqrt(x1 + x2 - {low!r})", "0.1"),
            "ExprDomainError", "sqrt of non-positive",
        ),
        "math-overflow": (
            spec("overflow", f"1 + exp({overflow!r} + 1000*(x1 + x2 - {high!r}))", "0.1"),
            "OverflowError", "math range error",
        ),
    }


class TestFailureParity:
    """A batch that fails hands the grid to the per-point float loop, so
    every failure reads as it does there: same exception type and
    message, same CLI exit code and report."""

    @pytest.mark.parametrize("case", sorted(_failing_specs()))
    def test_probed_space(self, case):
        spec, kind, fragment = _failing_specs()[case]
        batched = outcome(lambda: manifest.probed_space(spec, 100, 0)[1:])
        with mock.patch.object(jets, "lanewise", per_point_loop):
            assert outcome(lambda: manifest.probed_space(spec, 100, 0)[1:]) == batched
        assert batched[0] == kind and fragment in batched[1]

    @pytest.mark.parametrize("case", sorted(_failing_specs()))
    def test_beta_analysis_and_verdict(self, case):
        spec = _failing_specs()[case][0]
        space = randers.build_space(spec["coordinates"], spec["domain"], spec["metric"], spec["beta"])
        points = manifest.probe_grid(space.chart, 100, 0)[1]

        def verdict():
            v = randers.theorem_verdict(space, points)
            return vars(v.analysis), v.reason, v.bh_density_probe_values

        batched = outcome(verdict)
        with mock.patch.object(jets, "lanewise", per_point_loop):
            assert outcome(verdict) == batched

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("case", sorted(_failing_specs()))
    def test_cli(self, tmp_path, case, command):
        spec, kind, _ = _failing_specs()[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [command, str(path), "--seed", "0"]
        batched = outcome(lambda: run_cli(argv))
        with mock.patch.object(jets, "lanewise", per_point_loop):
            assert outcome(lambda: run_cli(argv)) == batched
        # An overflow on the grid is a spec error too: strict JSON, exit 1.
        assert batched[0] == "returned"
        code, report = run_cli(argv)
        assert code == cli.EXIT_INVALID_SPEC
        assert report["error"]["type"] == kind


# The catalog specs and the seed-7 specs of the three benchmark workloads.
CLI_SPECS = {spec["name"]: spec for spec in [*specgen.catalog_specs(), *workload_specs(7)]}


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("name", sorted(CLI_SPECS))
def test_no_batch_falls_back_to_the_float_loop(tmp_path, name, command):
    # A fallback changes no report, so only a lanewise that refuses it
    # shows one: an array leaf that a scalar-only shortcut trips over.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CLI_SPECS[name]))
    argv = [command, str(path), "--probes=12"]
    if command == "validate":
        argv += ["--transport-probes=2", "--mc-samples=10000"]
    batches, failures = [], []

    def no_fallback(fn, points):
        batches.append(len(points))
        try:
            return batch_only(fn, points)
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            raise

    with mock.patch.object(jets, "lanewise", no_fallback):
        code, report = run_cli(argv)
    assert failures == [] and "error" not in report
    assert batches and code in (cli.EXIT_OK, cli.EXIT_INVALID_SPEC, cli.EXIT_NO_MEASURE)


def _battery_cases():
    """The catalog spaces and one generated space per specgen family and
    dimension (n = 2-4)."""
    generated = specgen.generate_set(0, specgen.family_grid(), "lanes")
    return [(name, None) for name in catalog.NAMES] + [(spec["name"], spec) for spec in generated]


def _pair_lanes(pairs):
    """x and v of a list of pairs as 1-D array leaves, one lane per pair."""
    return [[leaves(c) for c in zip(*column)] for column in zip(*pairs)]


class TestBatteryLanes:
    """The battery's (x, v) passes over array leaves, one lane per pair,
    against the per-pair float path."""

    @pytest.mark.parametrize("name,spec", _battery_cases())
    def test_pair_tensors_equal_the_float_path(self, name, spec):
        space = manifest.space_from_spec(spec) if spec else catalog.space(name)
        F = randers.finsler(space)
        pairs = probe_pairs(space.chart, 30, 4)
        lanes = PairTensors(F, *_pair_lanes(pairs))
        singles = [PairTensors(F, x, v) for x, v in pairs]
        for field in PairTensors.__slots__:
            assert_matches_lanes(getattr(lanes, field), [getattr(t, field) for t in singles])
        assert_matches_lanes(lanes.definitional_N(), [t.definitional_N() for t in singles])
        # One stacked eigvalsh gives each pair's smallest eigenvalue of g.
        smallest = np.linalg.eigvalsh(_stacked(lanes.g)).min(axis=-1)
        assert_lanes(smallest, [np.linalg.eigvalsh(np.array(t.g)).min() for t in singles])

    @pytest.mark.parametrize("name,spec", _space_cases())
    def test_run_checks_equals_the_per_point_path(self, name, spec):
        space = manifest.space_from_spec(spec) if spec else catalog.space(name)
        pairs, points = probe_grid(space.chart, 20, 5)

        def battery():
            analysis = randers.validate_space(space, points)
            results = checks.run_checks(space, pairs, analysis, transport_probes=4, mc_samples=10_000)
            return [repr(r) for r in results]

        with mock.patch.object(jets, "lanewise", batch_only):
            batched = battery()
        with mock.patch.object(jets, "lanewise", per_point_loop):
            assert battery() == batched
        assert battery() == batched

    def test_transport_end_states_are_one_pass(self, spaces, structures):
        measure = busemann_hausdorff_measure(spaces["sphere-hopf"])
        pairs = probe_pairs(spaces["sphere-hopf"].chart, 5)
        xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
        calls = []
        fundamental_tensor = scurvature.fundamental_tensor

        def counted(F, x, u):
            calls.append(np.size(x[0]))
            return fundamental_tensor(F, x, u)

        with mock.patch.object(scurvature, "fundamental_tensor", counted), \
                mock.patch.object(jets, "lanewise", batch_only):
            batch = s_curvature_transport_batch(structures["sphere-hopf"], measure, xs, vs)
        assert calls == [4 * len(pairs)]  # both Richardson states of both paths, per probe
        single = [s_curvature_transport(structures["sphere-hopf"], measure, x, v) for x, v in pairs]
        assert [repr(b) for b in batch] == [repr(s) for s in single]

    def test_s_curvature_from_raises_the_float_error_on_a_bad_lane(self, spaces, structures):
        # A density that is positive except at the pair whose x1 is smallest.
        pairs = probe_pairs(spaces["flat-nonkilling"].chart, 10)
        lowest = min(pairs)[0]
        cut = 0.5 * (lowest[0] + sorted(x[0] for x, _ in pairs)[1])
        measure = scurvature.Measure("custom", lambda x: x[0] - cut)
        grid = [
            (*x, *v, *sum(nonlinear_connection(structures["flat-nonkilling"], x, v), []))
            for x, v in pairs
        ]

        def s_value(p):
            return s_curvature_from([p[4:6], p[6:8]], measure, p[:2], p[2:4])

        with pytest.raises(ValueError, match="is not positive"):
            batch_only(s_value, grid)
        batched = outcome(lambda: jets.lanewise(s_value, grid))
        assert batched == outcome(lambda: per_point_loop(s_value, grid))
        assert batched[0] == "InvalidSpaceError"
        assert batched[1].endswith(f"is not positive at x = {lowest!r}")
