import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerlab import catalog, core, jets, manifest, randers
from finslerlab.core import (
    CoordinateChart,
    DomainExitError,
    FinslerStructure,
    NonFiniteStateError,
    PairTensors,
    StructureValidityError,
    corner_points,
    euler_identity_residual,
    fundamental_tensor,
    geodesic,
    nonlinear_connection,
    probe_grid,
    probe_pairs,
    probe_points,
    spray,
)
from finslerlab.jets import Jet, _leaves, fd_oracle, partial, seed_group, standard_part
from finslerlab.linalg import inv, sum_

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402
import workloads  # noqa: E402


def euclidean_structure():
    chart = CoordinateChart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
    return FinslerStructure(
        chart, lambda x, v: jets.sqrt(v[0] * v[0] + v[1] * v[1])
    )


def randers_g_closed_form(space, x, v):
    """Independent oracle: g = (F/alpha)(a - l l^T) + (l+b)(l+b)^T."""
    n = space.dimension
    a = [[standard_part(e) for e in row] for row in randers.a_at(space, x)]
    b = [standard_part(c) for c in randers.b_at(space, x)]
    al = math.sqrt(sum(a[i][j] * v[i] * v[j] for i in range(n) for j in range(n)))
    ell = [sum(a[i][j] * v[j] for j in range(n)) / al for i in range(n)]
    f = al + sum(b[i] * v[i] for i in range(n))
    return [
        [
            (f / al) * (a[i][j] - ell[i] * ell[j]) + (ell[i] + b[i]) * (ell[j] + b[j])
            for j in range(n)
        ]
        for i in range(n)
    ]


class TestChart:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            CoordinateChart(("x1",), ((-1.0, 1.0),))

    def test_interval_order(self):
        with pytest.raises(ValueError):
            CoordinateChart(("x1", "x2"), ((-1.0, 1.0), (2.0, 2.0)))

    def test_contains_is_open(self):
        chart = CoordinateChart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
        assert chart.contains((0.0, 0.0))
        assert not chart.contains((1.0, 0.0))


class TestFundamentalTensor:
    def test_euclidean_identity(self):
        F = euclidean_structure()
        for v in ((1.0, 0.0), (0.3, -0.8), (-1.0, 2.0)):
            g = fundamental_tensor(F, (0.1, 0.2), v)
            for i in range(2):
                for j in range(2):
                    expected = 1.0 if i == j else 0.0
                    assert g[i][j] == pytest.approx(expected, abs=1e-12)

    def test_flat_randers_example(self, spaces, structures):
        g = fundamental_tensor(structures["flat-const"], (0.0, 0.0), (1.0, 0.0))
        assert g[0][0] == pytest.approx(2.25, abs=1e-12)
        assert g[1][1] == pytest.approx(1.5, abs=1e-12)
        # g(v, v) recovers F^2 = 1.5^2
        assert g[0][0] == pytest.approx(1.5**2, abs=1e-12)

    def test_matches_randers_closed_form(self, spaces, structures):
        for name in ("flat-const", "rotational-killing", "sphere-hopf"):
            sp = spaces[name]
            F = structures[name]
            for x, v in probe_pairs(sp.chart, 25):
                g = fundamental_tensor(F, x, v)
                oracle = randers_g_closed_form(sp, x, v)
                n = sp.dimension
                worst = max(
                    abs(g[i][j] - oracle[i][j]) for i in range(n) for j in range(n)
                )
                assert worst <= 1e-10

    def test_zero_homogeneity(self, spaces, structures):
        sp = spaces["sphere-hopf"]
        F = structures["sphere-hopf"]
        for x, v in probe_pairs(sp.chart, 10):
            g1 = fundamental_tensor(F, x, v)
            g2 = fundamental_tensor(F, x, [2.0 * c for c in v])
            worst = max(
                abs(g1[i][j] - g2[i][j]) for i in range(3) for j in range(3)
            )
            assert worst <= 1e-10

    def test_zero_vector_rejected(self, structures):
        with pytest.raises(StructureValidityError):
            fundamental_tensor(structures["flat-const"], (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(StructureValidityError):
            fundamental_tensor(structures["flat-const"], (0.0, 0.0), (1e-13, 0.0))

    def test_degenerate_structure_reported(self):
        # the quartic norm is not strongly convex on the axes
        chart = CoordinateChart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
        F = FinslerStructure(
            chart, lambda x, v: jets.sqrt(jets.sqrt(v[0] ** 4 + v[1] ** 4))
        )
        with pytest.raises(StructureValidityError):
            fundamental_tensor(F, (0.0, 0.0), (1.0, 0.0))


class TestCartanTensor:
    def test_riemannian_vanishes(self, spaces, structures):
        for name in ("euclidean2", "polar-riemannian"):
            sp = spaces[name]
            F = structures[name]
            for x, v in probe_pairs(sp.chart, 10):
                A = PairTensors(F, x, v).A
                worst = max(
                    abs(standard_part(A[i][j][k]))
                    for i in range(2)
                    for j in range(2)
                    for k in range(2)
                )
                assert worst <= 1e-10

    def test_randers_is_non_riemannian(self, spaces, structures):
        # A vanishes on the ray v parallel to b (all dg/dv components are
        # zero there), so the non-Riemannian signal needs off-axis probes.
        A = PairTensors(structures["flat-const"], (0.0, 0.0), (0.0, 1.0)).A
        assert standard_part(A[0][0][0]) == pytest.approx(0.75, abs=1e-12)
        worst = 0.0
        for x, v in probe_pairs(spaces["flat-const"].chart, 10):
            A = PairTensors(structures["flat-const"], x, v).A
            worst = max(
                worst,
                max(
                    abs(standard_part(A[i][j][k]))
                    for i in range(2)
                    for j in range(2)
                    for k in range(2)
                ),
            )
        assert worst > 0.01

    def test_cartan_vanishes_along_the_form_direction(self, structures):
        A = PairTensors(structures["flat-const"], (0.0, 0.0), (1.0, 0.0)).A
        worst = max(
            abs(standard_part(A[i][j][k]))
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert worst <= 1e-12

    def test_matches_fd_of_metric(self, spaces, structures):
        # second path: A_ijk = (F/2) dg_ij/dv_k via central differences
        sp = spaces["flat-const"]
        F = structures["flat-const"]
        x, v = (0.2, -0.1), (0.8, 0.5)
        A = PairTensors(F, x, v).A
        fval = F(list(x), list(v))
        for k in range(2):
            direction = [1.0 if m == k else 0.0 for m in range(2)]
            for i in range(2):
                for j in range(2):
                    def g_entry(vv, _i=i, _j=j):
                        return fundamental_tensor(F, x, list(vv))[_i][_j]

                    fd = fd_oracle(g_entry, v, direction, order=1, step=1e-5)
                    assert standard_part(A[i][j][k]) == pytest.approx(
                        0.5 * fval * fd, abs=1e-7
                    )

    def test_euler_contraction(self, spaces, structures):
        sp = spaces["rotational-killing"]
        F = structures["rotational-killing"]
        for x, v in probe_pairs(sp.chart, 20):
            A = PairTensors(F, x, v).A
            worst = max(
                abs(sum(standard_part(A[i][j][k]) * v[k] for k in range(2)))
                for i in range(2)
                for j in range(2)
            )
            assert worst <= 1e-10


class TestPairTensors:
    def test_matches_the_public_tensors_exactly(self, spaces, structures):
        # one evaluation of F^2/2 gives g, G and N bit for bit as their own
        # evaluations do
        for name, sp in spaces.items():
            F = structures[name]
            for x, v in probe_pairs(sp.chart, 10):
                t = PairTensors(F, x, v)
                assert t.g == fundamental_tensor(F, x, v)
                assert t.G == spray(F, x, v)
                assert t.N == nonlinear_connection(F, x, v)
                assert t.f == F(x, v)

    def test_invalid_probes_rejected(self, structures):
        with pytest.raises(StructureValidityError):
            PairTensors(structures["flat-const"], (0.0, 0.0), (1e-13, 0.0))
        chart = CoordinateChart(("x1", "x2"), ((-1.0, 1.0), (-1.0, 1.0)))
        F = FinslerStructure(
            chart, lambda x, v: jets.sqrt(jets.sqrt(v[0] ** 4 + v[1] ** 4))
        )
        with pytest.raises(StructureValidityError):
            PairTensors(F, (0.0, 0.0), (1.0, 0.0))


class TestFormalChristoffel:
    def test_flat_constant_form_vanishes(self, structures):
        gamma = PairTensors(structures["flat-const"], (0.3, 0.4), (1.0, 0.2)).gamma
        worst = max(
            abs(standard_part(gamma[i][j][k]))
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert worst <= 1e-14

    def test_polar_levi_civita_values(self, spaces, structures):
        # textbook values for a = diag(1, r^2): gamma^1_22 = -r, gamma^2_12 = 1/r
        F = structures["polar-riemannian"]
        for x, v in probe_pairs(spaces["polar-riemannian"].chart, 10):
            gamma = PairTensors(F, x, v).gamma
            r = x[0]
            assert standard_part(gamma[0][1][1]) == pytest.approx(-r, abs=1e-9)
            assert standard_part(gamma[1][0][1]) == pytest.approx(1.0 / r, abs=1e-9)
            assert standard_part(gamma[1][1][0]) == pytest.approx(1.0 / r, abs=1e-9)

    def test_riemannian_reduction_to_levi_civita(self, spaces, structures):
        sp = spaces["polar-riemannian"]
        F = structures["polar-riemannian"]
        for x, v in probe_pairs(sp.chart, 10):
            gamma = PairTensors(F, x, v).gamma
            lc = randers.PointData(sp, x).gamma
            worst = max(
                abs(standard_part(gamma[i][j][k]) - lc[i][j][k])
                for i in range(2)
                for j in range(2)
                for k in range(2)
            )
            assert worst <= 1e-9


class TestSpray:
    def test_zero_vector_convention(self, structures):
        assert spray(structures["flat-nonkilling"], (0.5, 0.0), (0.0, 0.0)) == [0.0, 0.0]

    def test_flat_nonkilling_value(self, structures):
        G = spray(structures["flat-nonkilling"], (0.5, 0.0), (1.0, 0.0))
        assert standard_part(G[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert standard_part(G[1]) == pytest.approx(0.0, abs=1e-12)

    def test_positive_2_homogeneity(self, spaces, structures):
        sp = spaces["flat-nonkilling"]
        F = structures["flat-nonkilling"]
        for x, v in probe_pairs(sp.chart, 20):
            G1 = [standard_part(c) for c in spray(F, x, v)]
            G2 = [standard_part(c) for c in spray(F, x, [2.0 * c for c in v])]
            for a, b in zip(G1, G2):
                assert abs(b - 4.0 * a) <= 1e-9 * (1.0 + abs(a))


# The loops that core's Christoffel and spray kernels replace, kept as the
# references the kernels must equal.


def _gamma_loop(g_inv, dg) -> list:
    n = len(g_inv)
    gamma = []
    for i in range(n):
        rows = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):  # symmetric in the lower pair
                terms = sum_(
                    g_inv[i][l] * (dg[k][l][j] + dg[j][k][l] - dg[l][j][k])
                    for l in range(n)
                )
                rows[j][k] = rows[k][j] = 0.5 * terms
        gamma.append(rows)
    return gamma


def _spray_loop(gamma, v) -> list:
    n = len(v)
    return [
        sum_(gamma[i][j][k] * (v[j] * v[k]) for j in range(n) for k in range(n))
        for i in range(n)
    ]


def _lane_reprs(leaf) -> list:
    if isinstance(leaf, np.ndarray):
        return [repr(c) for c in leaf.tolist()]
    return [repr(leaf)]


def _split_reprs(nested) -> tuple[list, list]:
    """(standard parts, partials) of nested lists of floats, arrays and
    one-level jets, as leaf reprs (so -0.0 != 0.0); a jet's standard part
    is marked, so a jet never matches a plain leaf."""
    standard, partials = [], []

    def walk(entry):
        if isinstance(entry, list):
            for item in entry:
                walk(item)
        elif isinstance(entry, Jet):
            standard.extend(["jet", *_lane_reprs(entry.value)])
            for p in entry.partials:
                partials.extend(_lane_reprs(p))
        else:
            standard.extend(_lane_reprs(entry))

    walk(nested)
    return standard, partials


class TestKernelParity:
    """The generated Christoffel and spray kernels against the loops they
    replace: every partial equal, every standard part equal except that the
    kernel's 0.0 start may turn a loop -0.0 into +0.0, and G equal given
    the same gamma."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lanes, slots", [(None, 0), (5, 0), (None, 2), (5, 2)])
    def test_random_entries_with_signed_zeros(self, n, lanes, slots):
        rng = np.random.default_rng([n, lanes or 0, slots])

        def leaf():
            if rng.random() < 0.3:
                return float(rng.choice([0.0, -0.0]))
            values = rng.normal(size=lanes or 1)
            values[rng.random(values.size) < 0.25] = -0.0
            values[rng.random(values.size) < 0.25] = 0.0
            return values if lanes else float(values[0])

        def entry():
            # Jet entries mix with leaf constants, as in a seeded evaluation.
            if slots and rng.random() < 0.8:
                return Jet(leaf(), tuple(leaf() for _ in range(slots)))
            return leaf()

        christoffel = core._kernel(core._christoffel, n)
        contraction = core._kernel(core._spray_contraction, n)
        for _ in range(8):
            g_inv = [[entry() for _ in range(n)] for _ in range(n)]
            dg = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
            v = [entry() for _ in range(n)]
            gamma = christoffel(g_inv, dg)
            loop_gamma = _gamma_loop(g_inv, dg)
            standard, partials = _split_reprs(gamma)
            loop_standard, loop_partials = _split_reprs(loop_gamma)
            assert partials == loop_partials
            assert len(standard) == len(loop_standard)
            for got, want in zip(standard, loop_standard):
                assert got == want or (want, got) == ("-0.0", "0.0")
            for same in (gamma, loop_gamma):
                assert _split_reprs(contraction(same, v)) == _split_reprs(_spray_loop(same, v))


def _space_cases(tag, shape):
    """The catalog spaces and the specs specgen generates for `shape`."""
    generated = specgen.generate_set(0, shape, tag)
    return [(name, None) for name in catalog.NAMES] + [(spec["name"], spec) for spec in generated]


def _space(name, spec):
    return manifest.space_from_spec(spec) if spec else catalog.space(name)


def _floats(nested) -> list:
    """Every leaf of nested lists of floats and arrays, lane by lane."""
    if isinstance(nested, list):
        return [c for item in nested for c in _floats(item)]
    if isinstance(nested, np.ndarray):
        return nested.tolist()
    return [float(nested)]


def _hexes(nested) -> list:
    return [c.hex() for c in _floats(nested)]  # -0.0 != 0.0


def _lanes_of(pairs):
    """x and v of a list of pairs as 1-D array leaves, one lane per pair."""
    return [[np.array(c) for c in zip(*column)] for column in zip(*pairs)]


def _christoffel_chain(F, x, v) -> tuple:
    """(g, g^-1, gamma, G) over the leaves of x and v by the chain that
    spray and PairTensors ran before the Lagrangian kernel: gamma from
    g^-1 and dg of one evaluation, then G = gamma^i_jk v^j v^k."""
    n = F.chart.dimension
    r, g = core._lagrangian(F, x, v)
    g_inv = inv(g)
    gamma = core._kernel(core._christoffel, n)(g_inv, [core._v_hessian(partial(r, k), n) for k in range(n)])
    return g, g_inv, gamma, core._kernel(core._spray_contraction, n)(gamma, list(v))


def _standard_parts(nested):
    if isinstance(nested, list):
        return [_standard_parts(item) for item in nested]
    return standard_part(nested)


class TestLagrangianSpray:
    """G^i = g^il (L_{x^k v^l} v^k - L_{x^l}) against the Christoffel contraction."""

    @pytest.mark.parametrize("name, spec", _space_cases("lagrangian", specgen.family_grid()))
    def test_matches_the_christoffel_contraction_on_floats(self, name, spec):
        sp = _space(name, spec)
        F = randers.finsler(sp)
        for x, v in probe_pairs(sp.chart, 12, 3):
            contraction = _christoffel_chain(F, x, v)[3]
            G = spray(F, x, v)
            assert all(type(c) is float for c in G + contraction)
            tolerance = 8 * math.ulp(1.0 + max(map(abs, contraction)))
            assert max(abs(a - b) for a, b in zip(G, contraction)) <= tolerance, (name, x, v)

    @pytest.mark.parametrize("name, spec", _space_cases("lagrangian", specgen.family_grid()))
    def test_pair_tensors_on_lanes_equal_the_float_spray_and_connection(self, name, spec):
        sp = _space(name, spec)
        F = randers.finsler(sp)
        pairs = probe_pairs(sp.chart, 8, 5)
        t = PairTensors(F, *_lanes_of(pairs))
        for k, (x, v) in enumerate(pairs):
            assert _hexes([c[k] for c in t.G]) == _hexes(spray(F, x, v)), (name, k)
            N = [[c[k] for c in row] for row in t.N]
            assert _hexes(N) == _hexes(nonlinear_connection(F, x, v)), (name, k)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_an_x_independent_structure_has_zero_spray(self, n):
        chart = CoordinateChart(tuple(f"x{i}" for i in range(n)), ((-1.0, 1.0),) * n)
        a = [[2.0 if i == j else 0.3 for j in range(n)] for i in range(n)]
        b = [0.1 * (i + 1) for i in range(n)]

        def func(x, v):
            quad = sum_(a[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            return jets.sqrt(quad) + sum_(b[i] * v[i] for i in range(n))

        F = FinslerStructure(chart, func)
        zero_N = [[0.0] * n for _ in range(n)]
        for x, v in probe_pairs(chart, 6, 1):
            t = PairTensors(F, x, v)
            assert spray(F, x, v) == t.G == [0.0] * n
            assert nonlinear_connection(F, x, v) == t.N == zero_N


class TestChristoffelChainBits:
    """PairTensors' g, g^-1, gamma and A keep the bits of the jet-valued
    Christoffel chain that computed them before G came from the
    Lagrangian kernel; G and N, which that kernel now computes, move by
    rounding only."""

    @pytest.mark.parametrize("name, spec", _space_cases("validate", workloads.ValidateBattery.SHAPE))
    def test_against_the_jet_valued_christoffel_chain(self, name, spec):
        sp = _space(name, spec)
        F = randers.finsler(sp)
        n = sp.dimension
        pairs = probe_pairs(sp.chart, 10, 6)
        for x, v in [*pairs, _lanes_of(pairs)]:
            s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
            g, g_inv, gamma, G = _christoffel_chain(F, s[:n], s[n:])
            half_f = 0.5 * F(x, v)
            chain = {
                "g": _standard_parts(g),
                "g_inv": _standard_parts(g_inv),
                "gamma": _standard_parts(gamma),
                "A": [[[half_f * partial(g[i][j], k) for k in range(n)] for j in range(n)]
                      for i in range(n)],
                "G": _standard_parts(G),
                "N": core._connection_from(G),
            }
            t = PairTensors(F, x, v)
            for field in ("g", "g_inv", "gamma", "A"):
                assert _hexes(getattr(t, field)) == _hexes(chain[field]), (name, field)
            for field in ("G", "N"):
                got, want = np.array(_floats(getattr(t, field))), np.array(_floats(chain[field]))
                assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max()), (name, field)


class TestNonlinearConnection:
    def test_zero_vector_convention(self, structures):
        N = nonlinear_connection(structures["flat-const"], (0.0, 0.0), (0.0, 0.0))
        assert N == [[0.0, 0.0], [0.0, 0.0]]

    def test_definitional_cross_check(self, spaces, structures):
        for name in ("flat-nonkilling", "polar-riemannian", "sphere-hopf"):
            sp = spaces[name]
            F = structures[name]
            n = sp.dimension
            for x, v in probe_pairs(sp.chart, 15):
                nj = nonlinear_connection(F, x, v)
                nd = PairTensors(F, x, v).definitional_N()
                worst = max(
                    abs(nj[i][j] - nd[i][j]) for i in range(n) for j in range(n)
                )
                assert worst <= 1e-8

    def test_trace_example_and_fd(self, structures):
        F = structures["flat-nonkilling"]
        x, v = (0.5, 0.0), (1.0, 0.0)
        N = nonlinear_connection(F, x, v)
        assert N[0][0] + N[1][1] == pytest.approx(0.5, abs=1e-12)
        # oracle: N^i_j = (1/2) dG^i/dv^j by central differences on the spray
        for i in range(2):
            for j in range(2):
                def g_i(vv, _i=i):
                    return standard_part(spray(F, x, list(vv))[_i])

                direction = [1.0 if m == j else 0.0 for m in range(2)]
                fd = fd_oracle(g_i, v, direction, order=1, step=1e-6)
                assert N[i][j] == pytest.approx(0.5 * fd, abs=1e-6)


class TestGeodesic:
    def test_straight_lines_for_constant_form(self, structures):
        path = geodesic(structures["flat-const"], (0.0, 0.0), (0.7, 0.2), 1.0, steps=50)
        for t, x in zip(path.times, path.points):
            assert x[0] == pytest.approx(0.7 * t, abs=1e-14)
            assert x[1] == pytest.approx(0.2 * t, abs=1e-14)

    def test_speed_conservation(self, spaces, structures):
        for name in ("polar-riemannian", "rotational-killing"):
            sp = spaces[name]
            F = structures[name]
            x0 = tuple(0.5 * (lo + hi) for lo, hi in sp.chart.bounds)
            v_raw = (0.3, 0.25)
            f0 = F(list(x0), list(v_raw))
            v0 = tuple(0.4 * c / f0 for c in v_raw)
            path = geodesic(F, x0, v0, 1.0, steps=1000)
            speeds = [F(list(x), list(v)) for x, v in zip(path.points, path.velocities)]
            assert max(abs(s - speeds[0]) for s in speeds) <= 1e-8

    def test_fourth_order_convergence(self, structures):
        F = structures["polar-riemannian"]
        x0, v0 = (1.25, 3.0), (0.3, 0.4)
        reference = geodesic(F, x0, v0, 1.0, steps=1600).points[-1]

        def endpoint_error(steps):
            end = geodesic(F, x0, v0, 1.0, steps=steps).points[-1]
            return math.hypot(end[0] - reference[0], end[1] - reference[1])

        e1, e2, e3 = endpoint_error(25), endpoint_error(50), endpoint_error(100)
        assert 10.0 <= e1 / e2 <= 26.0
        assert 10.0 <= e2 / e3 <= 26.0

    def test_domain_exit_reports_time_and_path(self, structures):
        with pytest.raises(DomainExitError) as err:
            geodesic(structures["flat-const"], (0.9, 0.0), (1.0, 0.0), 1.0, steps=100)
        assert err.value.time == pytest.approx(0.1, abs=0.02)
        truncated = err.value.path
        assert truncated.points[-1][0] < 1.0
        assert len(truncated.times) < 101

    def test_blow_up_reported(self):
        chart = CoordinateChart(("x1", "x2"), ((-1e300, 1e300), (-1e300, 1e300)))
        F = FinslerStructure(
            chart,
            lambda x, v: jets.sqrt(v[0] * v[0] + v[1] * v[1]),
            fast_spray=lambda x, v: [-1e160 * c for c in v],
        )
        with pytest.raises(NonFiniteStateError):
            geodesic(F, (0.0, 0.0), (1.0, 0.0), 1.0, steps=3)

    def test_bad_steps(self, structures):
        with pytest.raises(ValueError):
            geodesic(structures["flat-const"], (0.0, 0.0), (1.0, 0.0), 1.0, steps=0)


class TestIdentities:
    def test_euler_identity_euclidean_anchor(self):
        F = euclidean_structure()
        # n = 2, v = (3, 4): sum_i d/dv^i (v^i/F) = 1/F = 0.2
        residual = euler_identity_residual(F, (0.0, 0.0), (3.0, 4.0))
        assert residual <= 1e-12
        n = 2
        fval = F((0.0, 0.0), (3.0, 4.0))
        assert (n - 1) / fval == pytest.approx(0.2)

    def test_euler_identity_on_probes(self, spaces, structures):
        sp = spaces["sphere-hopf"]
        F = structures["sphere-hopf"]
        for x, v in probe_pairs(sp.chart, 15):
            assert euler_identity_residual(F, x, v) <= 1e-9


class TestProbes:
    def test_deterministic_for_fixed_seed(self, spaces):
        chart = spaces["flat-const"].chart
        assert probe_pairs(chart, 10, seed=7) == probe_pairs(chart, 10, seed=7)
        assert probe_pairs(chart, 10, seed=7) != probe_pairs(chart, 10, seed=8)

    def test_points_inside_domain(self, spaces):
        chart = spaces["polar-riemannian"].chart
        for x, v in probe_pairs(chart, 50):
            assert chart.contains(x)
            assert math.hypot(*v) == pytest.approx(1.0, abs=1e-12)

    def test_corners_shrunk_inward(self, spaces):
        chart = spaces["rotational-killing"].chart
        corners = corner_points(chart)
        assert len(corners) == 4
        for c in corners:
            assert chart.contains(c)
        assert probe_points(chart, 10) == probe_points(chart, 10)

    def test_grid_is_pairs_and_points(self, spaces):
        chart = spaces["sphere-hopf"].chart
        assert probe_grid(chart, 10, 3) == (probe_pairs(chart, 10, 3), probe_points(chart, 10, 3))


class TestUnitGridCache:
    """probe_pairs keeps the chart-free part of a grid per (n, count, seed)
    and maps it to each chart: a warm call returns the bits of a cold one."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        halton = core._scrambled_halton
        monkeypatch.setattr(core, "_scrambled_halton", lambda *a: builds.append(a) or halton(*a))
        core._unit_grid.cache_clear()
        return builds

    @staticmethod
    def hexes(pairs):
        return [tuple(c.hex() for c in x + v) for x, v in pairs]

    def test_one_build_per_dimension_count_and_seed(self, monkeypatch, spaces):
        builds = self.count_builds(monkeypatch)
        boxes = [spaces[name].chart for name in ("flat-const", "polar-riemannian", "flat-nonkilling")]
        warm = [probe_pairs(chart, 20, 5) for chart in boxes]
        assert builds == [(4, 20, 5)]
        probe_pairs(boxes[0], 21, 5), probe_pairs(boxes[0], 20, 6)
        probe_pairs(spaces["sphere-hopf"].chart, 20, 5)
        assert builds == [(4, 20, 5), (4, 21, 5), (4, 20, 6), (6, 20, 5)]
        for chart, pairs in zip(boxes, warm):
            core._unit_grid.cache_clear()
            assert self.hexes(pairs) == self.hexes(probe_pairs(chart, 20, 5))

    def test_callers_cannot_change_the_kept_grid(self, spaces):
        chart = spaces["sphere-hopf"].chart
        pairs = probe_pairs(chart, 10, 3)
        expected = self.hexes(pairs)
        pairs[0] = ((9.0, 9.0, 9.0), (1.0, 0.0, 0.0))
        pairs.clear()
        assert self.hexes(probe_pairs(chart, 10, 3)) == expected
        fractions, directions = core._unit_grid(3, 10, 3)
        assert not fractions.flags.writeable
        with pytest.raises(ValueError):
            fractions[0, 0] = 0.5
        assert type(directions) is tuple and all(type(v) is tuple for v in directions)

    def test_the_cache_is_bounded(self, monkeypatch, spaces):
        builds = self.count_builds(monkeypatch)
        chart = spaces["flat-const"].chart
        for seed in range(core.UNIT_GRIDS_KEPT + 3):
            probe_pairs(chart, 2, seed)
        assert core._unit_grid.cache_info().currsize == core.UNIT_GRIDS_KEPT
        probe_pairs(chart, 2, 0)  # the oldest was dropped: built again
        assert len(builds) == core.UNIT_GRIDS_KEPT + 4

    def test_a_kept_grid_does_not_take_a_seed_of_another_type(self, spaces):
        chart = spaces["flat-const"].chart
        probe_pairs(chart, 3, 1)
        with pytest.raises(TypeError):
            probe_pairs(chart, 3, 1.0)


# Probe grids recorded with SciPy 1.17.1 (qmc.Halton and special.ndtri), on
# the chart below: the first pair in full as float.hex, and every grid as
# the first 16 hex digits of the sha256 of its float.hex lines.  Counts
# 125/126, 128/129 and 243/244 sit on either side of a digit boundary of
# bases 5, 2 and 3 (5^3, 2^7, 3^5), where _scrambled_halton starts
# computing one more digit column per point; their pins were recorded from
# the code that computed every column.
PIN_SEEDS = (0, 1, 7, 2**32, 2**64 - 1)
GRID_DIGESTS = {
    (2, 0, 0): "e3b0c44298fc1c14",
    (2, 0, 1): "e3b0c44298fc1c14",
    (2, 0, 7): "e3b0c44298fc1c14",
    (2, 0, 4294967296): "e3b0c44298fc1c14",
    (2, 0, 18446744073709551615): "e3b0c44298fc1c14",
    (2, 1, 0): "e01fd31d9aad784a",
    (2, 1, 1): "68e391f1c714b20d",
    (2, 1, 7): "c546be0b2fbebe16",
    (2, 1, 4294967296): "9dbe83d235f2682c",
    (2, 1, 18446744073709551615): "3bd1a158007b76c2",
    (2, 100, 0): "df74ffcb32330fa3",
    (2, 100, 1): "ef3507a4ba1153e4",
    (2, 100, 7): "46ed54748153405e",
    (2, 100, 4294967296): "639eb9d72e2fe690",
    (2, 100, 18446744073709551615): "609253e46de120f1",
    (2, 125, 0): "0d9720bd785fa087",
    (2, 125, 1): "668c035898eed75a",
    (2, 125, 7): "a6d3802b41fba947",
    (2, 125, 4294967296): "c2c927c5ade3abde",
    (2, 125, 18446744073709551615): "98d48b0c51a64e63",
    (2, 126, 0): "c3307579072e59f7",
    (2, 126, 1): "11bf1dc9a596d1cc",
    (2, 126, 7): "3b3d0b1ae7858731",
    (2, 126, 4294967296): "4f2a146a8669c3d8",
    (2, 126, 18446744073709551615): "4a526b6101b34b6f",
    (2, 128, 0): "bb3dbdcc012f2254",
    (2, 128, 1): "4116bbee98f80c39",
    (2, 128, 7): "3456dd5d05e4edf9",
    (2, 128, 4294967296): "dbd08411cc030703",
    (2, 128, 18446744073709551615): "8d7eee9459f97821",
    (2, 129, 0): "33ea3af0840cef7b",
    (2, 129, 1): "8e742191cb00a7f8",
    (2, 129, 7): "beefb79ccc2ed645",
    (2, 129, 4294967296): "8524c8d9f51511ab",
    (2, 129, 18446744073709551615): "1c12aa3120b6a715",
    (2, 243, 0): "aa7c2085700a359f",
    (2, 243, 1): "96dd595b58862f97",
    (2, 243, 7): "23ba9a65d160877e",
    (2, 243, 4294967296): "0c3d7187167412c4",
    (2, 243, 18446744073709551615): "30732aa8dfd903ae",
    (2, 244, 0): "a62e52b08079dc44",
    (2, 244, 1): "4a6e054d39e966bb",
    (2, 244, 7): "015cde1a33f2cd70",
    (2, 244, 4294967296): "1f80004d8c483bb3",
    (2, 244, 18446744073709551615): "9553eb93ce7078b4",
    (2, 257, 0): "0fe41bb2122e5cc5",
    (2, 257, 1): "a4b0fa2b645c847a",
    (2, 257, 7): "45d0650afb1a5798",
    (2, 257, 4294967296): "2ad98021fcec224a",
    (2, 257, 18446744073709551615): "2a03edc63147b174",
    (3, 0, 0): "e3b0c44298fc1c14",
    (3, 0, 1): "e3b0c44298fc1c14",
    (3, 0, 7): "e3b0c44298fc1c14",
    (3, 0, 4294967296): "e3b0c44298fc1c14",
    (3, 0, 18446744073709551615): "e3b0c44298fc1c14",
    (3, 1, 0): "c48c8456b7a359c8",
    (3, 1, 1): "8dd5e33a520442fc",
    (3, 1, 7): "6e4656d1999bbb07",
    (3, 1, 4294967296): "58ff1deb129e2e6c",
    (3, 1, 18446744073709551615): "5605be57ffb610b8",
    (3, 100, 0): "4e86f0e801f7abe4",
    (3, 100, 1): "ce39ee254df36e42",
    (3, 100, 7): "7d1c856671de65ed",
    (3, 100, 4294967296): "684f199d1ad209c4",
    (3, 100, 18446744073709551615): "288dd22cdb7c8b0f",
    (3, 125, 0): "df2518bfc805b842",
    (3, 125, 1): "73bd68fef2fd0bd5",
    (3, 125, 7): "af605932ecbcb34d",
    (3, 125, 4294967296): "7daff449e1147518",
    (3, 125, 18446744073709551615): "c528b360962a12d4",
    (3, 126, 0): "4b0277bb60d8f0e3",
    (3, 126, 1): "7ebadb1143f661f3",
    (3, 126, 7): "dc24fbaf93fbd152",
    (3, 126, 4294967296): "06f2977e59ce4c4d",
    (3, 126, 18446744073709551615): "f62c5633eb431375",
    (3, 128, 0): "65d62c54962d965a",
    (3, 128, 1): "8be19c278535578c",
    (3, 128, 7): "e7a313bc653ef241",
    (3, 128, 4294967296): "bac41123ef287e6b",
    (3, 128, 18446744073709551615): "c249619a968cc31e",
    (3, 129, 0): "5593ef455c0b2496",
    (3, 129, 1): "da50516576507089",
    (3, 129, 7): "e88f7dd1cc4a4456",
    (3, 129, 4294967296): "79b025fe974f0ce5",
    (3, 129, 18446744073709551615): "90056761a8ff5db5",
    (3, 243, 0): "56842b20c6151a50",
    (3, 243, 1): "639e12de81d656f2",
    (3, 243, 7): "1a8a710c17540b19",
    (3, 243, 4294967296): "50dad6e9705dbfc1",
    (3, 243, 18446744073709551615): "286239a0281e0fd1",
    (3, 244, 0): "2bfb33db0c2f9b77",
    (3, 244, 1): "907660a7500d3d96",
    (3, 244, 7): "0988432bd676dca9",
    (3, 244, 4294967296): "9ce7612176797493",
    (3, 244, 18446744073709551615): "0423e48e90cc0474",
    (3, 257, 0): "80b7c6611f04859a",
    (3, 257, 1): "7440f22787f508af",
    (3, 257, 7): "2b332542040782c3",
    (3, 257, 4294967296): "e22d59d4017e13aa",
    (3, 257, 18446744073709551615): "89d2c96c56c39d79",
    (4, 0, 0): "e3b0c44298fc1c14",
    (4, 0, 1): "e3b0c44298fc1c14",
    (4, 0, 7): "e3b0c44298fc1c14",
    (4, 0, 4294967296): "e3b0c44298fc1c14",
    (4, 0, 18446744073709551615): "e3b0c44298fc1c14",
    (4, 1, 0): "a3f92f960c30c773",
    (4, 1, 1): "8857ab3b610e473c",
    (4, 1, 7): "69bb361d18f6072a",
    (4, 1, 4294967296): "998b6e484ecfb1c6",
    (4, 1, 18446744073709551615): "3bb658969bd186da",
    (4, 100, 0): "3ea3d12d47b2e847",
    (4, 100, 1): "f1aa1453d20c6819",
    (4, 100, 7): "e25bfba6bf7c0918",
    (4, 100, 4294967296): "18649c98ecd4ece6",
    (4, 100, 18446744073709551615): "a4b8ec6540c17e67",
    (4, 125, 0): "6eb6db5dd5837fb9",
    (4, 125, 1): "34d94aba97e71b15",
    (4, 125, 7): "620cf7d969996346",
    (4, 125, 4294967296): "bd7901fa3ad1a8b2",
    (4, 125, 18446744073709551615): "7e2829935ccf4345",
    (4, 126, 0): "a05f4ffd9aadef62",
    (4, 126, 1): "0acf1135d0d72dfb",
    (4, 126, 7): "13472fb8e438cd29",
    (4, 126, 4294967296): "a7e32586a682eaf4",
    (4, 126, 18446744073709551615): "4b8a2ee8506eee94",
    (4, 128, 0): "6d54107217e66d53",
    (4, 128, 1): "2daef8cc8b48dc88",
    (4, 128, 7): "2dbabf875bc7fdc5",
    (4, 128, 4294967296): "8412f8892afb0e7d",
    (4, 128, 18446744073709551615): "345d0fe5590bc4c3",
    (4, 129, 0): "259f653d1fe54eb9",
    (4, 129, 1): "e1970f7d7ac76277",
    (4, 129, 7): "d068633f3df71f69",
    (4, 129, 4294967296): "70847e5d456cc626",
    (4, 129, 18446744073709551615): "495bae07ee580769",
    (4, 243, 0): "298b6152d6312c85",
    (4, 243, 1): "28b7eed4e549a0d8",
    (4, 243, 7): "076468fbb6d68892",
    (4, 243, 4294967296): "d07e00f8883c8b1d",
    (4, 243, 18446744073709551615): "520264318b412080",
    (4, 244, 0): "5c3d3ed50bbe560c",
    (4, 244, 1): "04ee0311e65a6276",
    (4, 244, 7): "7c625e73daa235e8",
    (4, 244, 4294967296): "630161b450ce28a4",
    (4, 244, 18446744073709551615): "c7785f1f4273672f",
    (4, 257, 0): "ceb5f12518a8e5b7",
    (4, 257, 1): "7558355e85d60bd4",
    (4, 257, 7): "846afc3289a92b6e",
    (4, 257, 4294967296): "9c8a5e4a9f4c2c78",
    (4, 257, 18446744073709551615): "dc927493d8bfd340",
}
FIRST_PAIRS = {
    (2, 0): ('-0x1.5b6f18790af1cp-1', '-0x1.b79d0f9bca8bdp+0', '-0x1.3436ad4564ceep-1', '0x1.98d67d63a2c99p-1'),
    (2, 1): ('-0x1.08d71086adac8p-1', '0x1.0413b633bfceep+0', '-0x1.eea145982112bp-1', '0x1.0876938deae6ap-2'),
    (2, 7): ('-0x1.56bc96184fe98p-1', '0x1.1560e853f47bep+1', '0x1.c8dfc39b60d91p-1', '0x1.ce36600e548e6p-2'),
    (2, 4294967296): ('0x1.fbbf6c67960e4p-2', '-0x1.26213bc43eeaep+0', '-0x1.1dd4452fb3918p-7', '0x1.fffb0370805acp-1'),
    (2, 18446744073709551615): ('-0x1.0ebf1b90df35cp-3', '0x1.372b43cfbe376p+1', '0x1.fef1edc132aecp-1', '-0x1.06ce58d8507f4p-4'),
    (3, 0): ('-0x1.5b6f18790af1cp-1', '-0x1.b79d0f9bca8bdp+0', '-0x1.2be336fe00148p+0', '0x1.c2dcc2d2433a1p-1', '-0x1.bed44b6b3a212p-4', '0x1.d837dd58bb487p-2'),
    (3, 1): ('-0x1.08d71086adac8p-1', '0x1.0413b633bfceep+0', '-0x1.e737539a0f53cp+0', '0x1.3182433ef77cap-2', '0x1.858dc61516803p-1', '0x1.270e487e4419cp-1'),
    (3, 7): ('-0x1.56bc96184fe98p-1', '0x1.1560e853f47bep+1', '0x1.28cc0c46dab0cp+1', '0x1.5b46e08b06ec2p-2', '-0x1.26512749449a1p-2', '0x1.caa05443e2a63p-1'),
    (3, 4294967296): ('0x1.fbbf6c67960e4p-2', '-0x1.26213bc43eeaep+0', '-0x1.4f69469957800p-8', '0x1.6b398348a5b9cp-2', '0x1.0bae118f7e6d2p-2', '0x1.cb9df63ba0850p-1'),
    (3, 18446744073709551615): ('-0x1.0ebf1b90df35cp-3', '0x1.372b43cfbe376p+1', '0x1.c4ab973ede9f8p-1', '-0x1.0486f784da04ep-4', '0x1.fc3d84033fc78p-1', '0x1.a57239b79f6a3p-4'),
    (4, 0): ('-0x1.5b6f18790af1cp-1', '-0x1.b79d0f9bca8bdp+0', '-0x1.2be336fe00148p+0', '0x1.a1304f76ea5f4p+0', '-0x1.bccca8ad5e805p-5', '0x1.d612b3fe746e9p-3', '-0x1.28918c9703fecp-1', '-0x1.8f82642de7966p-1'),
    (4, 1): ('-0x1.08d71086adac8p-1', '0x1.0413b633bfceep+0', '-0x1.e737539a0f53cp+0', '0x1.e2759c9b7c100p-2', '0x1.68566888475ddp-2', '0x1.10ed435d3f8c6p-2', '-0x1.c973f77c763ffp-1', '-0x1.53320b674c454p-4'),
    (4, 7): ('-0x1.56bc96184fe98p-1', '0x1.1560e853f47bep+1', '0x1.28cc0c46dab0cp+1', '0x1.7cce2f7e3cddcp+0', '-0x1.f8ae6fe332575p-3', '0x1.89373a33b1018p-1', '-0x1.6a5faa7464508p-2', '0x1.e4e1eafa3b929p-2'),
    (4, 4294967296): ('0x1.fbbf6c67960e4p-2', '-0x1.26213bc43eeaep+0', '-0x1.4f69469957800p-8', '0x1.e73bf2333d330p-2', '0x1.07a5a22419689p-4', '0x1.c4b13ad6fd807p-3', '-0x1.58622b78afa70p-5', '0x1.f1c8147ac2f1bp-1'),
    (4, 18446744073709551615): ('-0x1.0ebf1b90df35cp-3', '0x1.372b43cfbe376p+1', '0x1.c4ab973ede9f8p-1', '-0x1.4a90fac35dfb0p-2', '0x1.15781f0588586p-2', '0x1.cc2b660b000d3p-6', '-0x1.c904a0bbe6939p-1', '0x1.6fd4032d80e27p-2'),
}


def _pin_chart(n):
    return CoordinateChart(
        tuple(f"x{i}" for i in range(n)), tuple((-1.0 - i, 2.0 + 0.5 * i) for i in range(n))
    )


def _grid_digest(pairs):
    text = "\n".join(" ".join(c.hex() for c in x + v) for x, v in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedGrids:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_first_pair_bit_for_bit(self, n, seed):
        ((x, v),) = probe_pairs(_pin_chart(n), 1, seed)
        assert tuple(c.hex() for c in x + v) == FIRST_PAIRS[(n, seed)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 100, 125, 126, 128, 129, 243, 244, 257])
    def test_grid_bit_for_bit(self, n, count):
        for seed in PIN_SEEDS:
            pairs = probe_pairs(_pin_chart(n), count, seed)
            assert len(pairs) == count
            assert all(type(c) is float for x, v in pairs for c in x + v)
            assert _grid_digest(pairs) == GRID_DIGESTS[(n, count, seed)], seed


@pytest.mark.parametrize("seed", [*PIN_SEEDS, 2**32 - 1, 2**96 + 5])
def test_digit_permutations_draw_the_row_shuffles(seed):
    """_scrambled_halton's plain-Python PCG64 against SciPy's shuffle of
    each row with default_rng(seed), kept here as the reference: the same
    permutations, and the same generator state afterwards."""
    ported, rows = core._PCG64(seed), np.random.default_rng(seed)
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        depth = math.ceil(54 / math.log2(base)) - 1
        expected = np.repeat(np.arange(base)[None], depth, axis=0)
        for perm in expected:
            rows.shuffle(perm)
        got = [ported.shuffled(list(range(base))) for _ in range(depth)]
        assert got == expected.tolist()
    state = rows.bit_generator.state
    assert (ported.state, ported.inc) == (state["state"]["state"], state["state"]["inc"])
    assert (ported.held is not None) == bool(state["has_uint32"])
    assert ported.held in (None, state["uinteger"])


def test_building_and_probing_a_space_imports_neither_numpy_random_nor_hashlib():
    """numpy.random and hashlib load OpenSSL, about 6 MB resident: a
    process that builds spaces from dicts and evaluates S never needs it.
    (NumPy 1.x imports numpy.random itself; only what the package adds
    counts.)"""
    script = (
        "import sys, numpy; before = set(sys.modules); import finslerlab.cli\n"
        "from finslerlab import catalog, core, manifest, randers, scurvature\n"
        "space = manifest.space_from_spec(catalog.spec('sphere-hopf'))\n"
        "F, bh = randers.finsler(space), scurvature.busemann_hausdorff_measure(space)\n"
        "x, v = core.probe_pairs(space.chart, 1, 3)[0]\n"
        "scurvature.s_curvature(F, bh, x, v)\n"
        "print(sorted({'numpy.random', 'hashlib', '_hashlib'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(core.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", [-1, 0.5, "7"])
def test_the_ported_stream_refuses_what_default_rng_refuses(seed):
    with pytest.raises((TypeError, ValueError)) as expected:
        np.random.default_rng(seed)
    with pytest.raises(expected.type):
        core._PCG64(seed)


def test_the_ported_stream_takes_numpy_integers():
    ported, plain = core._PCG64(np.int64(2**40 + 7)), core._PCG64(2**40 + 7)
    assert (ported.state, ported.inc) == (plain.state, plain.inc)
