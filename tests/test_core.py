import hashlib
import math

import pytest

from finslerlab import jets, randers
from finslerlab.core import (
    CoordinateChart,
    DomainExitError,
    FinslerStructure,
    NonFiniteStateError,
    PairTensors,
    StructureValidityError,
    cartan_tensor,
    corner_points,
    euler_identity_residual,
    formal_christoffel,
    fundamental_tensor,
    geodesic,
    nonlinear_connection,
    nonlinear_connection_definitional,
    probe_grid,
    probe_pairs,
    probe_points,
    spray,
)
from finslerlab.jets import fd_oracle, standard_part


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
                A = cartan_tensor(F, x, v)
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
        A = cartan_tensor(structures["flat-const"], (0.0, 0.0), (0.0, 1.0))
        assert standard_part(A[0][0][0]) == pytest.approx(0.75, abs=1e-12)
        worst = 0.0
        for x, v in probe_pairs(spaces["flat-const"].chart, 10):
            A = cartan_tensor(structures["flat-const"], x, v)
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
        A = cartan_tensor(structures["flat-const"], (0.0, 0.0), (1.0, 0.0))
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
        A = cartan_tensor(F, x, v)
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
            A = cartan_tensor(F, x, v)
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
        gamma = formal_christoffel(structures["flat-const"], (0.3, 0.4), (1.0, 0.2))
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
            gamma = formal_christoffel(F, x, v)
            r = x[0]
            assert standard_part(gamma[0][1][1]) == pytest.approx(-r, abs=1e-9)
            assert standard_part(gamma[1][0][1]) == pytest.approx(1.0 / r, abs=1e-9)
            assert standard_part(gamma[1][1][0]) == pytest.approx(1.0 / r, abs=1e-9)

    def test_riemannian_reduction_to_levi_civita(self, spaces, structures):
        sp = spaces["polar-riemannian"]
        F = structures["polar-riemannian"]
        for x, v in probe_pairs(sp.chart, 10):
            gamma = formal_christoffel(F, x, v)
            lc = randers.levi_civita(sp, x)
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
                nd = nonlinear_connection_definitional(F, x, v)
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


# Probe grids recorded with SciPy 1.17.1 (qmc.Halton and special.ndtri), on
# the chart below: the first pair in full as float.hex, and every grid as
# the first 16 hex digits of the sha256 of its float.hex lines.
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
    @pytest.mark.parametrize("count", [0, 1, 100, 257])
    def test_grid_bit_for_bit(self, n, count):
        for seed in PIN_SEEDS:
            pairs = probe_pairs(_pin_chart(n), count, seed)
            assert len(pairs) == count
            assert all(type(c) is float for x, v in pairs for c in x + v)
            assert _grid_digest(pairs) == GRID_DIGESTS[(n, count, seed)], seed
