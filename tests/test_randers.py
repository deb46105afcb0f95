import copy
import dis
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerlab import catalog, checks, core, jets, linalg, manifest, randers, scurvature
from finslerlab.core import probe_pairs, probe_points, spray
from finslerlab.expr import parse
from finslerlab.jets import Jet, _leaves, partial, seed_group, standard_part
from finslerlab.linalg import sum_
from finslerlab.randers import (
    InvalidSpaceError,
    PointData,
    a_at,
    b_at,
    beta_length,
    beta_length_squared,
    bh_density_closed_form,
    build_space,
    spray_closed_form,
    theorem_verdict,
    validate_space,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402

FLAT = [["1", "0"], ["0", "1"]]
BOX = [(-1.0, 1.0), (-1.0, 1.0)]


class TestStructure:
    def test_alpha_beta_split(self, spaces):
        sp = spaces["flat-const"]
        assert randers.alpha(a_at(sp, (0.0, 0.0)), (1.0, 0.0)) == 1.0
        assert randers.beta(b_at(sp, (0.0, 0.0)), (1.0, 0.0)) == 0.5
        F = randers.finsler(sp)
        assert F((0.0, 0.0), (1.0, 0.0)) == 1.5

    def test_riemannian_reduction(self, spaces):
        sp = spaces["euclidean2"]
        F = randers.finsler(sp)
        v = (0.6, -0.8)
        assert F((0.0, 0.0), v) == randers.alpha(a_at(sp, (0.0, 0.0)), v)

    def test_asymmetry_of_randers_norm(self, spaces):
        F = randers.finsler(spaces["flat-const"])
        assert F((0.0, 0.0), (-1.0, 0.0)) == 0.5
        assert F((0.0, 0.0), (1.0, 0.0)) != F((0.0, 0.0), (-1.0, 0.0))

    def test_invalid_length_rejected(self):
        space = build_space(["x1", "x2"], BOX, FLAT, ["1.2", "0"])
        with pytest.raises(InvalidSpaceError, match="length"):
            validate_space(space, probe_points(space.chart))

    def test_non_positive_definite_rejected(self):
        space = build_space(["x1", "x2"], BOX, [["1", "0"], ["0", "-1"]], ["0", "0"])
        with pytest.raises(InvalidSpaceError, match="positive definite"):
            validate_space(space, probe_points(space.chart))

    def test_asymmetric_metric_rejected(self):
        with pytest.raises(InvalidSpaceError, match="asymmetric"):
            build_space(["x1", "x2"], BOX, [["1", "0.5"], ["0.4", "1"]], ["0", "0"])

    def test_parsed_entries_build_the_space_strings_build(self):
        metric, one_form = [["1", "0.5"], ["0.4", "1"]], ["0.1*x1", "0"]
        fields = [[parse(e, ["x1", "x2"]) for e in row] for row in metric]
        with pytest.raises(InvalidSpaceError) as from_strings:
            build_space(["x1", "x2"], BOX, metric, one_form)
        with pytest.raises(InvalidSpaceError) as from_fields:
            build_space(["x1", "x2"], BOX, fields, one_form)
        assert str(from_fields.value) == str(from_strings.value)
        assert "a[0][1] = '0.5' vs a[1][0] = '0.4'" in str(from_fields.value)
        b = [parse(e, ["x1", "x2"]) for e in one_form]
        space = build_space(["x1", "x2"], BOX, FLAT, b)
        assert all(entry is field for entry, field in zip(space.b, b))  # taken as they are
        parsed_here = build_space(["x1", "x2"], BOX, FLAT, one_form)
        assert (space.a, space.b) == (parsed_here.a, parsed_here.b)

    def test_symmetric_by_value_accepted(self):
        space = build_space(
            ["x1", "x2"], BOX, [["1", "0.1*x1"], ["x1*0.1", "2"]], ["0", "0"]
        )
        validate_space(space, probe_points(space.chart))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpaceError):
            build_space(["x1", "x2"], BOX, [["1", "0"]], ["0", "0"])

    def test_four_dimensional_space(self):
        # dimension-generic path: flat 4D metric with a constant form
        names = ["x1", "x2", "x3", "x4"]
        metric = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
        space = build_space(names, [(-1.0, 1.0)] * 4, metric, ["0.3", "0", "0", "0"])
        validate_space(space, probe_points(space.chart, 20))
        verdict = theorem_verdict(space, probe_points(space.chart, 20))
        assert verdict.admits
        expected = (1.0 - 0.09) ** 2.5  # (n+1)/2 = 2.5
        assert verdict.bh_density_probe_values[0] == pytest.approx(expected, abs=1e-13)
        from finslerlab.core import probe_pairs as pp
        from finslerlab.scurvature import busemann_hausdorff_measure, s_curvature

        F = randers.finsler(space)
        measure = busemann_hausdorff_measure(space)
        for x, v in pp(space.chart, 5):
            assert abs(s_curvature(F, measure, x, v)) <= 1e-9


class TestBetaLength:
    def test_constant_form(self, spaces):
        sp = spaces["flat-const"]
        for x in probe_points(sp.chart, 20):
            assert beta_length(sp, x) == pytest.approx(0.5, abs=1e-15)

    def test_rotational_at_unit_point(self, spaces):
        # direct formula for the identity metric: sqrt(b1^2 + b2^2) = 0.3*|x|
        sp = spaces["rotational-killing"]
        assert beta_length(sp, (1.0, 0.0)) == pytest.approx(0.3, abs=1e-15)
        assert beta_length(sp, (0.6, 0.8)) == pytest.approx(0.3, abs=1e-14)

    def test_zero_form(self, spaces):
        assert beta_length(spaces["euclidean2"], (0.3, 0.4)) == 0.0


class TestCovariantDerivative:
    def test_parallel_constant_form(self, spaces):
        bc = PointData(spaces["flat-const"], (0.2, -0.5)).bcov
        assert bc == [[0.0, 0.0], [0.0, 0.0]]

    def test_flat_space_partial(self, spaces):
        bc = PointData(spaces["flat-nonkilling"], (0.7, 0.1)).bcov
        assert bc[0][0] == 0.4
        assert bc[0][1] == bc[1][0] == bc[1][1] == 0.0

    def test_rotational_antisymmetric(self, spaces):
        bc = PointData(spaces["rotational-killing"], (0.5, -1.0)).bcov
        assert bc[0][1] == 0.3
        assert bc[1][0] == -0.3
        assert bc[0][0] == bc[1][1] == 0.0


class TestLengthGradient:
    def test_constant_form(self, spaces):
        assert PointData(spaces["flat-const"], (0.3, 0.3)).length_gradient() == [0.0, 0.0]

    def test_rotational_value(self, spaces):
        # oracle: jet derivative of ||beta||^2 = 0.09 (x1^2 + x2^2)
        sp = spaces["rotational-killing"]
        grad = PointData(sp, (1.0, 0.0)).length_gradient()
        assert grad[0] == pytest.approx(0.18, abs=1e-14)
        assert grad[1] == pytest.approx(0.0, abs=1e-14)

    def test_two_paths_agree(self, spaces):
        for name in ("rotational-killing", "sphere-hopf", "polar-riemannian"):
            sp = spaces[name]
            n = sp.dimension
            for x in probe_points(sp.chart, 25):
                covariant = PointData(sp, x).length_gradient()
                xs = seed_group([float(c) for c in x], range(n))
                lsq = beta_length_squared(sp, xs)
                direct = [standard_part(partial(lsq, i)) for i in range(n)]
                assert max(abs(a - b) for a, b in zip(covariant, direct)) <= 1e-10


class TestClosedFormSpray:
    def test_constant_form_flat_metric(self, spaces):
        G, X, Y, riem = PointData(spaces["flat-const"], (0.1, 0.2)).spray((0.7, -0.4))
        assert G == [0.0, 0.0] and X == [0.0, 0.0] and Y == [0.0, 0.0] and riem == [0.0, 0.0]

    def test_nonkilling_split(self, spaces):
        G, X, Y, riem = PointData(spaces["flat-nonkilling"], (0.5, 0.0)).spray((1.0, 0.0))
        assert X == [0.0, 0.0]
        assert Y[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert G[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert riem == [0.0, 0.0]

    def test_matches_generic_spray(self, spaces, structures):
        for name in catalog.NAMES:
            sp = spaces[name]
            F = structures[name]
            for x, v in probe_pairs(sp.chart, 20):
                closed = PointData(sp, x).spray(v)[0]
                generic = [standard_part(c) for c in spray(F, x, v)]
                denom = 1.0 + max(abs(c) for c in generic)
                assert max(abs(a - b) for a, b in zip(closed, generic)) / denom <= 1e-8

    def test_single_point_entry_is_point_data_spray(self, spaces):
        sp = spaces["sphere-hopf"]
        for x, v in probe_pairs(sp.chart, 5):
            assert spray_closed_form(sp, x, v) == PointData(sp, x).spray(v)

    def test_zero_vector_rejected(self, spaces):
        with pytest.raises(InvalidSpaceError):
            spray_closed_form(spaces["flat-const"], (0.0, 0.0), (0.0, 0.0))


class TestSprayTraces:
    def test_x_trace_vanishes_everywhere(self, spaces):
        for name in catalog.NAMES:
            sp = spaces[name]
            for x, v in probe_pairs(sp.chart, 20):
                assert abs(PointData(sp, x).traces(v)[0]) <= 1e-9

    def test_y_trace_matches_closed_form(self, spaces):
        for name in ("flat-nonkilling", "sphere-hopf"):
            sp = spaces[name]
            for x, v in probe_pairs(sp.chart, 25):
                data = PointData(sp, x)
                direct = data.traces(v)[1]
                closed = data.trace_dY_closed_form(v)
                assert abs(direct - closed) <= 1e-9

    def test_killing_space_symmetric_term_drops(self, spaces):
        # for a Killing form the (b_i|j + b_j|i) v i v j / F term is zero,
        # so the trace reduces to the skew part alone
        sp = spaces["rotational-killing"]
        n = 2
        for x, v in probe_pairs(sp.chart, 20):
            data = PointData(sp, x)
            bc = data.bcov
            a_inv = [[1.0, 0.0], [0.0, 1.0]]
            b = [standard_part(c) for c in randers.b_at(sp, x)]
            b_up = [sum(a_inv[i][j] * b[j] for j in range(n)) for i in range(n)]
            al = math.hypot(*v)
            f = al + sum(bi * vi for bi, vi in zip(b, v))
            skew_term = (n + 1) * sum(
                (bc[i][j] - bc[j][i]) * b_up[j] * v[i] for i in range(n) for j in range(n)
            ) * al / f
            assert data.traces(v)[1] == pytest.approx(skew_term, abs=1e-9)


class TestBerwald:
    # Berwald: beta is parallel, b_{i|j} = 0 up to the tolerance
    def test_constant_form_is_berwald(self, spaces):
        points = probe_points(spaces["flat-const"].chart, 30)
        assert validate_space(spaces["flat-const"], points).parallel_defect_sup <= 1e-9

    def test_rotational_is_not(self, spaces):
        points = probe_points(spaces["rotational-killing"].chart, 30)
        assert validate_space(spaces["rotational-killing"], points).parallel_defect_sup > 1e-9

    def test_riemannian_is_berwald(self, spaces):
        points = probe_points(spaces["euclidean2"].chart, 30)
        assert validate_space(spaces["euclidean2"], points).parallel_defect_sup <= 1e-9

    def test_sphere_killing_not_parallel(self, spaces):
        points = probe_points(spaces["sphere-hopf"].chart, 30)
        analysis = validate_space(spaces["sphere-hopf"], points)
        assert analysis.killing_defect_sup <= 1e-12
        assert analysis.parallel_defect_sup > 0.1


class TestVerdict:
    def test_flat_const_admits(self, spaces):
        verdict = theorem_verdict(spaces["flat-const"])
        assert verdict.admits and verdict.reason == "satisfied"
        expected = 0.75**1.5
        assert all(
            abs(d - expected) <= 1e-12 for d in verdict.bh_density_probe_values
        )

    def test_rotational_length_not_constant(self, spaces):
        verdict = theorem_verdict(spaces["rotational-killing"])
        assert not verdict.admits
        assert verdict.reason == "length-not-constant"
        # antisymmetric b_{i|j} with exact flat-space partials: defect is 0.0
        assert verdict.analysis.killing_defect_sup == 0.0
        assert verdict.analysis.length_gradient_sup >= 0.1
        assert verdict.bh_density_probe_values is None

    def test_nonkilling_defect(self, spaces):
        verdict = theorem_verdict(spaces["flat-nonkilling"])
        assert not verdict.admits
        assert verdict.reason == "killing-violated"
        assert verdict.analysis.killing_defect_sup == pytest.approx(0.8, abs=1e-12)

    def test_sphere_admits(self, spaces):
        verdict = theorem_verdict(spaces["sphere-hopf"])
        assert verdict.admits
        assert verdict.analysis.length_max - verdict.analysis.length_min <= 1e-12

    def test_riemannian_spaces_admit(self, spaces):
        for name in ("euclidean2", "polar-riemannian"):
            assert theorem_verdict(spaces[name]).admits

    def test_monotonicity_under_tightening(self, spaces):
        for name in catalog.NAMES:
            sp = spaces[name]
            points = probe_points(sp.chart, 40)
            loose = theorem_verdict(sp, points, tol_killing=1e-9, tol_length=1e-8)
            tight = theorem_verdict(sp, points, tol_killing=1e-10, tol_length=1e-9)
            assert not (tight.admits and not loose.admits)

    def test_defect_bound_invariant(self, spaces):
        for name in catalog.NAMES:
            analysis = validate_space(spaces[name], probe_points(spaces[name].chart, 20))
            assert analysis.killing_defect_sup <= 2.0 * analysis.parallel_defect_sup + 1e-15

    def test_bad_tolerances(self, spaces):
        with pytest.raises(ValueError):
            theorem_verdict(spaces["flat-const"], tol_killing=-1.0)
        with pytest.raises(ValueError):
            theorem_verdict(spaces["flat-const"], tol_length=math.nan)


class TestBetaAnalysisRows:
    def test_rows_are_the_per_point_values(self, spaces):
        for name in catalog.NAMES:
            sp = spaces[name]
            points = probe_points(sp.chart, 12)
            analysis = validate_space(sp, points)
            assert analysis.probes == points
            r = range(sp.dimension)
            data = [PointData(sp, x) for x in points]
            # one column per quantity, one entry per probe
            assert analysis.covariant == [[[d.bcov[i][j] for d in data] for j in r] for i in r]
            assert analysis.lengths == [beta_length(sp, x) for x in points]
            gradients = [d.length_gradient() for d in data]
            assert analysis.length_gradients == [[g[i] for g in gradients] for i in r]
            for x, b_up in zip(points, zip(*analysis.raised)):  # a_ij b^j = b_i
                a = [[float(e) for e in row] for row in a_at(sp, x)]
                for ai, bi in zip(a, b_at(sp, x)):
                    assert sum(aij * bj for aij, bj in zip(ai, b_up)) == pytest.approx(
                        float(bi), abs=1e-14
                    )

    def test_sups_are_folds_of_the_rows(self, spaces):
        for name in catalog.NAMES:
            sp = spaces[name]
            analysis = validate_space(sp, probe_points(sp.chart, 12))
            n = sp.dimension
            killing = parallel = grad = lmax = 0.0
            lmin = math.inf
            r = range(n)
            per_probe = zip(
                *[analysis.covariant[i][j] for i in r for j in r], *analysis.length_gradients
            )
            for length, values in zip(analysis.lengths, per_probe):
                bc = [values[n * i : n * i + n] for i in r]
                g = values[n * n :]
                killing = max(
                    killing, max(abs(bc[i][j] + bc[j][i]) for i in range(n) for j in range(n))
                )
                parallel = max(parallel, max(abs(bc[i][j]) for i in range(n) for j in range(n)))
                grad = max(grad, max(abs(c) for c in g))
                lmin = min(lmin, length)
                lmax = max(lmax, length)
            assert analysis.killing_defect_sup == killing
            assert analysis.parallel_defect_sup == parallel
            assert analysis.length_gradient_sup == grad
            assert analysis.length_min == lmin
            assert analysis.length_max == lmax


class TestBhDensity:
    def test_riemannian_reduction(self, spaces):
        # b = 0: density is sqrt(det a); polar at x1 = 1.5 gives 1.5
        sp = spaces["polar-riemannian"]
        assert float(bh_density_closed_form(sp, (1.5, 3.0))) == pytest.approx(1.5, abs=1e-14)

    def test_flat_const_value(self, spaces):
        val = float(bh_density_closed_form(spaces["flat-const"], (0.0, 0.0)))
        assert val == pytest.approx(0.6495190528383290, abs=1e-12)

    def test_nonkilling_value(self, spaces):
        val = float(bh_density_closed_form(spaces["flat-nonkilling"], (0.5, 0.0)))
        assert val == pytest.approx(0.96**1.5, abs=1e-14)

    def test_jet_evaluable(self, spaces):
        sp = spaces["flat-nonkilling"]
        xs = seed_group([0.5, 0.0], range(2))
        sigma = bh_density_closed_form(sp, xs)
        # dlog sigma / dx1 at x1 = 0.5 equals 1.5 * (-0.32*0.5) / 0.96 = -0.25
        dlog = standard_part(partial(sigma, 0)) / standard_part(sigma)
        assert dlog == pytest.approx(-0.25, abs=1e-13)


def _levi_civita_unhoisted(a_inv, da) -> list:
    """The Christoffel loop before its bracket was hoisted out of k: the
    reference core's Christoffel kernel must equal bit for bit."""
    n = len(a_inv)
    gamma = []
    for k in range(n):
        mat = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s = 0.0
                for l in range(n):
                    s += a_inv[k][l] * (da[j][l][i] + da[i][j][l] - da[l][i][j])
                mat[i][j] = mat[j][i] = 0.5 * s
        gamma.append(mat)
    return gamma


def _reprs(nested):
    """Leaf reprs of nested lists of floats, arrays and jets (so -0.0 != 0.0)."""
    if isinstance(nested, (list, tuple)):
        return [r for item in nested for r in _reprs(item)]
    if isinstance(nested, Jet):
        return ["jet", *_reprs(nested.value), *_reprs(nested.partials)]
    if isinstance(nested, np.ndarray):
        return [repr(v) for v in nested.tolist()]
    return [repr(nested)]


class TestLeviCivita:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hoisted_bracket_equals_the_unhoisted_loop(self, n):
        rng = np.random.default_rng(n)

        def entry(lanes):
            # _first_order_data leaves constant entries as float zeros;
            # 0.0 and -0.0 occur inside lanes and as floats too.
            if rng.random() < 0.3:
                return float(rng.choice([0.0, -0.0]))
            values = rng.normal(size=lanes or 1)
            values[rng.random(values.size) < 0.25] = -0.0
            values[rng.random(values.size) < 0.25] = 0.0
            return values if lanes else float(values[0])

        for lanes in (None, 7):
            for _ in range(5):
                a_inv = [[entry(lanes) for _ in range(n)] for _ in range(n)]
                da = [[[entry(lanes) for _ in range(n)] for _ in range(n)] for _ in range(n)]
                assert _reprs(core._kernel(core._christoffel, n)(a_inv, da)) == _reprs(
                    _levi_civita_unhoisted(a_inv, da)
                )

    def test_point_data_gamma_on_catalog_spaces(self, spaces):
        for name, sp in spaces.items():
            n = sp.dimension
            points = probe_points(sp.chart, 6)
            lanes = [np.array(c) for c in zip(*points)]
            for x in (points[0], lanes):
                data = PointData(sp, x)
                _, da, _, _ = randers._first_order_data(sp, x)
                assert _reprs(data.gamma) == _reprs(_levi_civita_unhoisted(data.a_inv, da)), name


# The loops that the unrolled kernels of randers replace, kept as the
# references the kernels must equal bit for bit.


def _first_order_loops(space, x):
    n = space.dimension
    xs = seed_group(_leaves(x), range(n))
    zeros = (0.0,) * n
    a_jets, b_jets = randers.a_and_b(space, xs)
    aj = [
        [(e.value, e.partials) if isinstance(e, Jet) else (e, zeros) for e in row]
        for row in a_jets
    ]
    bj = [(e.value, e.partials) if isinstance(e, Jet) else (e, zeros) for e in b_jets]
    a = [[value for value, _ in row] for row in aj]
    da = [[[slots[k] for _, slots in row] for row in aj] for k in range(n)]
    b = [value for value, _ in bj]
    db = [[slots[k] for _, slots in bj] for k in range(n)]
    return a, da, b, db


def _zero_start_sum(terms):
    s = 0.0
    for t in terms:
        s += t
    return s


def _covariant_loops(a_inv, b, db, gamma):
    n = len(b)
    b_up = [_zero_start_sum(a_inv[i][j] * b[j] for j in range(n)) for i in range(n)]
    bcov = [
        [db[j][i] - _zero_start_sum(b[k] * gamma[k][i][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return b_up, bcov


def _xy_split_loops(a, a_inv, b, b_up, q, gamma, v):
    n = len(b)
    al = randers.alpha(a, v)
    f = al + randers.beta(b, v)
    riem = [
        sum_([gamma[i][j][k] * (v[j] * v[k]) for j in range(n) for k in range(n)])
        for i in range(n)
    ]
    x_cmp = []
    for i in range(n):
        s = sum_(
            [
                q[j][k] * (a_inv[i][j] * v[k] - a_inv[i][k] * v[j])
                for j in range(n)
                for k in range(n)
            ]
        )
        x_cmp.append(s * al)
    s1 = sum_([q[j][k] * (v[j] * v[k]) for j in range(n) for k in range(n)])
    s2 = sum_(
        [q[j][k] * (b_up[k] * v[j] - b_up[j] * v[k]) for j in range(n) for k in range(n)]
    )
    common = s1 + s2 * al
    y_cmp = [(v[i] / f) * common for i in range(n)]
    return x_cmp, y_cmp, riem


# Every expression function and guard (trig, hyperbolic, exp, log, sqrt,
# non-integer powers, positive and negative integer powers, division),
# constant subtrees among them; a is positive definite and ||beta|| < 1
# on (-1, 1)^2.
_MIXED = "0.1*tan(x1)/(2 + x2^2) - x1*x2/8"
EVERY_FUNCTION = (
    [
        ["2 + sin(x1)*cos(x2) + tanh(x1*x2)^2 + 0*x1", _MIXED],
        [
            _MIXED,
            "exp(0.2*x2) + cosh(x1)^-2 + log(2 + x1) + sqrt(2 + x2) + (1.5 + x1)^0.5"
            " + (1 + x2^2)^x1 + 2^3/log(8)",
        ],
    ],
    ["0.1*sinh(x1) + 0.05*x2^3 - x2/(3 + x1)^2", "0.1*(2 + x1)^-1 - 0.05*x1^4 + sqrt(2)*0*x2"],
)


def _kernel_spaces():
    """The catalog spaces, one specgen space per family and dimension and
    the EVERY_FUNCTION space."""
    spaces = [catalog.space(name) for name in catalog.NAMES]
    for family in specgen.FAMILIES:
        for n in specgen.DIMENSIONS[family]:
            spec = specgen.generate(random.Random(f"kernels:{family}:{n}"), family, n, 1, family)
            spaces.append(manifest.space_from_spec(spec))
    spaces.append(build_space(["x1", "x2"], BOX, *EVERY_FUNCTION))
    return spaces


def _signed_zero_pairs(chart):
    """Two (x, v) with -0.0 and 0.0 in x, where the chart holds 0 (its
    midpoint elsewhere), and in v."""
    n = chart.dimension
    x = [[(-1.0) ** (k + first) * 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
          for k, (lo, hi) in enumerate(chart.bounds)] for first in (0, 1)]
    v = [(1.0, *[-0.0] * (n - 1)), (-0.0, -1.0, *[0.0] * (n - 2))]
    return [(tuple(x[0]), v[0]), (tuple(x[1]), v[1])]


def _alpha_loop(a, v):
    """alpha as the full loop over all n^2 terms, each term formed."""
    n = len(a)
    return jets.sqrt(sum_([a[i][j] * (v[i] * v[j]) for i in range(n) for j in range(n)]))


def _alpha_arguments(space, pairs):
    """(x, v) per pair on float leaves, the pairs as array leaves, and each
    pair on the (v, v, v, x) jet levels of core.nonlinear_connection."""
    n = space.dimension
    out = [*pairs[:2], [[np.array(c) for c in zip(*column)] for column in zip(*pairs)]]
    for x, v in pairs[:2]:
        s = [*x, *v]
        for level in "vvvx":
            s = seed_group(s, range(n, 2 * n) if level == "v" else range(n))
        out.append((s[:n], s[n:]))
    return out


class TestAlphaMirroredTerms:
    """alpha forms a mirrored term once when the two entries are one
    object; that and every other matrix give the full loop bit for bit."""

    def test_shared_mirror_equals_the_full_loop(self):
        for sp in _kernel_spaces():
            n = sp.dimension
            for x, v in _alpha_arguments(sp, probe_pairs(sp.chart, 4)):
                a = a_at(sp, x)
                assert all(a[i][j] is a[j][i] for i in range(n) for j in range(n))
                assert _reprs(randers.alpha(a, v)) == _reprs(_alpha_loop(a, v))

    @pytest.mark.parametrize("name", ["sphere-hopf", "flat-nonkilling"])
    def test_distinct_mirrored_entries_equal_the_full_loop(self, spaces, name):
        sp = spaces[name]
        for x, v in _alpha_arguments(sp, probe_pairs(sp.chart, 4)):
            shared = a_at(sp, x)
            twins = [[copy.deepcopy(e) for e in row] for row in shared]
            # mirrored entries that differ, as a library caller may pass
            skewed = [[e if i <= j else 1.25 * e for j, e in enumerate(row)]
                      for i, row in enumerate(shared)]
            for a in (twins, skewed):
                assert _reprs(randers.alpha(a, v)) == _reprs(_alpha_loop(a, v))
            assert _reprs(randers.alpha(twins, v)) == _reprs(randers.alpha(shared, v))

    def test_signed_zero_entries(self):
        a = [[1.0, -0.0], [-0.0, np.array([2.0, 0.5, 3.0, 1.0])]]
        v = [np.array([-0.0, 0.0, 1.5, -0.0]), np.array([0.0, -0.0, 0.0, -0.0])]
        assert _reprs(randers.alpha(a, v)) == _reprs(_alpha_loop(a, v))


class TestUnrolledKernels:
    """The straight-line kernels generated per dimension equal the loops
    they replace bit for bit, on float, array and jet leaves."""

    def test_point_data_on_spaces(self):
        for sp in _kernel_spaces():
            pairs = probe_pairs(sp.chart, 6) + _signed_zero_pairs(sp.chart)
            points = [x for x, _ in pairs]
            lanes = [np.array(c) for c in zip(*points)]
            lane_vs = [np.array(c) for c in zip(*[v for _, v in pairs])]
            fast_spray = randers.finsler(sp).fast_spray
            for x, v in [*pairs[:3], *pairs[6:], (lanes, lane_vs)]:
                expected = _first_order_loops(sp, x)
                assert _reprs(randers._first_order_data(sp, x)) == _reprs(expected)
                a, da, b, db = expected
                data = PointData(sp, x)
                # The generated spray is PointData's, bit for bit, on float
                # and array leaves; fast_spray runs it on floats only.
                spray_fn = randers._spray_function(sp)
                assert _reprs(spray_fn(_leaves(x), v)) == _reprs(data.spray(v)[0])
                assert _reprs(fast_spray(x, v)) == _reprs(data.spray(v)[0])
                gamma = _levi_civita_unhoisted(data.a_inv, da)
                b_up, bcov = _covariant_loops(data.a_inv, b, db, gamma)
                assert _reprs([data.gamma, data.b_up, data.bcov]) == _reprs([gamma, b_up, bcov])
                args = (a, data.a_inv, b, b_up, bcov, gamma)
                assert _reprs(data.spray(v)[1:]) == _reprs(_xy_split_loops(*args, v))
                if not isinstance(x, list):  # the traces seed v with jets
                    vs = seed_group(list(v), range(sp.dimension))
                    assert _reprs(data._xy_split(vs)) == _reprs(_xy_split_loops(*args, vs))

    def test_spray_is_generated_at_the_first_fast_spray_call_of_each_space(self):
        twins = [build_space(["x1", "x2"], BOX, FLAT, ["0.3*x2", "x1*x1/4"]) for _ in range(2)]
        structures = [randers.finsler(sp) for sp in twins]
        validate_space(twins[0], probe_points(twins[0].chart, 4))
        assert all("spray" not in randers._fns(sp) for sp in twins)
        structures[0].fast_spray((0.1, 0.2), (1.0, 0.5))
        spray_fn = randers._fns(twins[0])["spray"]
        assert spray_fn is not None and "spray" not in randers._fns(twins[1])
        structures[0].fast_spray((0.3, 0.2), (1.0, 0.5))
        assert randers._fns(twins[0])["spray"] is spray_fn

    def test_lane_batches_leave_the_spray_unwritten(self, monkeypatch):
        sp = catalog.space("sphere-hopf")
        F = randers.finsler(sp)
        pairs, points = core.probe_grid(sp.chart, 10)
        bh = scurvature.busemann_hausdorff_measure(sp)
        xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
        scurvature.s_curvature_transport_batch(F, bh, xs, vs)
        assert "spray" not in randers._fns(sp)
        checks.run_checks(sp, pairs, validate_space(sp, points), transport_probes=5, mc_samples=10_000)
        assert "spray" not in randers._fns(sp)
        written = []
        staged_spray = randers._staged_spray
        monkeypatch.setattr(
            randers, "_staged_spray", lambda space: written.append(space) or staged_spray(space)
        )
        path = core.geodesic(F, xs[0], vs[0], 0.01, steps=20)
        assert written == [sp] and randers._fns(sp)["spray"] is not None
        # the float path runs the written function: PointData's bits
        reference = core.FinslerStructure(
            sp.chart, F.func, lambda x, v: PointData(sp, x).spray(v)[0]
        )
        assert repr(path) == repr(core.geodesic(reference, xs[0], vs[0], 0.01, steps=20))
        assert written == [sp]

    def test_spray_calls_inv_through_the_module_binding(self, monkeypatch):
        sp = catalog.space("sphere-hopf")
        fast_spray = randers.finsler(sp).fast_spray
        fast_spray((0.1, 0.2, 0.3), (1.0, 0.5, 0.0))
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return linalg.inv(matrix)

        monkeypatch.setattr(randers, "inv", counted)
        x, v = (0.2, -0.1, 0.3), (0.5, 1.0, -0.25)
        assert _reprs(fast_spray(x, v)) == _reprs(PointData(sp, x).spray(v)[0])
        assert len(calls) == 2  # once in the generated spray, once in PointData

    @pytest.mark.parametrize(
        "entry,x",
        [
            ("1 + log(x1)", (-0.0, 0.5)),
            ("1 + sqrt(x1)", (-0.25, 0.5)),
            ("1 + x2/x1", (-0.0, 0.5)),
            ("1 + x2/x1 + log(x1)", (-0.25, 0.5)),  # two guards of x1, the second fires
            ("1 + x1^-2", (0.0, 0.5)),
            ("1 + x1^1.5", (-0.25, 0.5)),
            ("1 + (1 + x2)^x1 + 0.1*x1^(x2 - 1)", (-0.25, 0.5)),
            ("1 + exp(800*x1)", (0.9, 0.5)),
            ("x1 - 0.9", (0.5, 0.5)),  # alpha^2 < 0: math.sqrt raises
            ("2 + x1 + 0*log(0)", (0.5, 0.5)),  # fails at every x: nothing is generated
        ],
    )
    def test_spray_raises_what_point_data_raises(self, entry, x):
        sp = build_space(["x1", "x2"], BOX, [[entry, "0"], ["0", "1"]], ["0.1", "0"])
        fast_spray, v = randers.finsler(sp).fast_spray, (1.0, 0.5)
        with pytest.raises((ArithmeticError, ValueError)) as expected:
            PointData(sp, x).spray(v)
        with pytest.raises(expected.type) as got:
            fast_spray(x, v)
        assert (randers._spray_function(sp) is None) == ("log(0)" in entry)
        # A lane batch holding the point fails and hands back to the float loop.
        with pytest.raises(expected.type) as batched:
            jets.lanewise(lambda p: fast_spray(p, v), [(0.5, 0.1), x, (0.25, -0.3)])
        for raised in (got.value, batched.value):
            assert (type(raised), str(raised)) == (expected.type, str(expected.value))

    @pytest.mark.parametrize("name", ["sphere-hopf", "flat-nonkilling"])
    def test_non_finite_stage_ends_the_geodesic_as_point_data_does(self, spaces, name):
        sp = spaces[name]
        F = randers.finsler(sp)
        reference = core.FinslerStructure(
            sp.chart, F.func, lambda x, v: PointData(sp, x).spray(v)[0]
        )
        x0 = tuple(0.1 * (k + 1) for k in range(sp.dimension))
        v0 = (1e200, *[0.0] * (sp.dimension - 1))
        errors = []
        for structure in (F, reference):
            with pytest.raises(core.NonFiniteStateError) as err:
                core.geodesic(structure, x0, v0, 1e-190, steps=4)
            errors.append((err.value.time, str(err.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "loop, counts",
        [
            (core._christoffel, [5, 42, 162, 440]),
            (core._spray_contraction, [2, 17, 57, 134]),
            (randers._covariant, [5, 24, 63, 128]),
            (randers._xy_split, [17, 88, 248, 533]),
            (randers._first_order, [0, 0, 0, 0]),
        ],
    )
    def test_arithmetic_operation_counts(self, loop, counts):
        """Each written kernel forms every shared product once: a loop that
        writes one in the other operand order adds operations here."""
        for n, count in zip([1, 2, 3, 4], counts):
            code = list(dis.get_instructions(core._kernel(loop, n)))
            arithmetic = [
                i for i in code if i.opname.startswith("BINARY_") and i.opname != "BINARY_SUBSCR"
            ]
            sqrt_calls = [i for i in code if i.opname == "LOAD_GLOBAL" and i.argval == "sqrt"]
            assert len(arithmetic) == count, (loop.__name__, n)
            assert len(sqrt_calls) == (loop is randers._xy_split), (loop.__name__, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_written_kernels_equal_their_loops_on_every_leaf(self, n):
        """Each kernel's written function, whose temporaries take the names
        of dead ones, against its loop run directly: floats, 5 lanes and
        jets of 2 slots (ZERO slots among them)."""
        rng = np.random.default_rng(90 + n)

        def nested(shape, kind):
            if shape:
                return [nested(shape[1:], kind) for _ in range(shape[0])]
            if kind == "lanes":
                return rng.normal(size=5)
            if kind == "float":
                return float(rng.normal())
            slots = tuple(jets.ZERO if rng.random() < 0.3 else float(rng.normal()) for _ in "ab")
            return Jet(float(rng.normal()), slots)

        def inputs(loop, kind):
            args = [nested(shape, kind) for shape in loop.shapes(n)]
            if loop is randers._xy_split:  # a positive definite, F = alpha + beta > 0
                a, b = args[0], args[2]
                for i in range(n):
                    a[i][i] = 2.0 * n + 0.5 / n * a[i][i]
                    b[i] = 0.1 / n * b[i]
                    for j in range(i + 1, n):
                        a[i][j] = a[j][i] = 0.5 / n * a[i][j]
            return args

        loops = (core._christoffel, core._spray_contraction, randers._covariant,
                 randers._xy_split, randers._first_order)
        for loop in loops:
            written = core._kernel(loop, n)
            for kind in ("float", "lanes", "jet"):
                for _ in range(3):
                    args = inputs(loop, kind)
                    with np.errstate(all="raise", under="ignore"):
                        expected = _reprs(loop(*args))
                        assert _reprs(written(*args)) == expected, (loop.__name__, kind)

    def test_written_sprays_equal_point_data_on_every_leaf(self, spaces):
        """Each catalog space's written spray against PointData's on floats,
        5 lanes and v as jets of 2 slots."""
        for name, sp in spaces.items():
            n = sp.dimension
            pairs = probe_pairs(sp.chart, 5, 2)
            spray_fn = randers._spray_function(sp)
            lanes = [[np.array(c) for c in zip(*column)] for column in zip(*pairs)]
            x0, v0 = pairs[0]
            jet_v = [Jet(c, (0.5 * c, jets.ZERO if k % 2 else 1.0)) for k, c in enumerate(v0)]
            for x, v in [*pairs[:2], lanes, (x0, jet_v)]:
                expected = _reprs(PointData(sp, x).spray(v)[0])
                assert _reprs(spray_fn(_leaves(x), v)) == expected, name

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_entries_with_signed_zeros(self, n):
        rng = np.random.default_rng(50 + n)

        def entry(lanes, scale=1.0):
            if rng.random() < 0.3:
                return float(rng.choice([0.0, -0.0]))
            values = scale * rng.normal(size=lanes or 1)
            values[rng.random(values.size) < 0.25] = -0.0
            values[rng.random(values.size) < 0.25] = 0.0
            return values if lanes else float(values[0])

        def symmetric(lanes, diagonal):
            # Twins are one object, as in a PointData; a diagonally dominant
            # a keeps alpha real and F = alpha + beta away from 0.
            m = [[None] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diagonal + abs(entry(lanes))
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = entry(lanes, 0.5 / n)
            return m

        for lanes in (None, 5):
            for _ in range(4):
                a = symmetric(lanes, float(n))
                a_inv = [[entry(lanes) for _ in range(n)] for _ in range(n)]
                da = [[[entry(lanes) for _ in range(n)] for _ in range(n)] for _ in range(n)]
                b = [entry(lanes, 0.1 / n) for _ in range(n)]
                db = [[entry(lanes) for _ in range(n)] for _ in range(n)]
                v = [1.0 + abs(entry(lanes)), *(entry(lanes) for _ in range(n - 1))]
                gamma = core._kernel(core._christoffel, n)(a_inv, da)
                assert _reprs(gamma) == _reprs(_levi_civita_unhoisted(a_inv, da))
                covariant = core._kernel(randers._covariant, n)
                b_up, bcov = covariant(a_inv, b, db, gamma)
                assert _reprs([b_up, bcov]) == _reprs(_covariant_loops(a_inv, b, db, gamma))
                xy_split = core._kernel(randers._xy_split, n)
                for w in (v, seed_group(v, range(n)) if lanes is None else v):
                    args = (a, a_inv, b, b_up, bcov, gamma, w)
                    assert _reprs(xy_split(*args)) == _reprs(_xy_split_loops(*args))
