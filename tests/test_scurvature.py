import inspect
import math
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from finslerlab import catalog, jets, manifest, randers, scurvature
from finslerlab.jets import standard_part
from finslerlab.core import PairTensors, probe_pairs
from finslerlab.scurvature import (
    Measure,
    bh_density_monte_carlo,
    busemann_hausdorff_measure,
    custom_measure,
    lebesgue_measure,
    measure_from_kind,
    riemannian_volume_measure,
    nonlinear_connection,
    s_curvature,
    s_curvature_from,
    s_curvature_transport,
    s_curvature_transport_batch,
    unit_ball_volume,
)
from finslerlab import expr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402


class TestVolumeDensity:
    def test_flat(self, spaces):
        assert riemannian_volume_measure(spaces["euclidean2"]).density((0.2, 0.3)) == 1.0

    def test_polar(self, spaces):
        density = riemannian_volume_measure(spaces["polar-riemannian"]).density
        assert density((1.5, 1.0)) == pytest.approx(1.5, abs=1e-14)

    def test_equals_bh_when_form_vanishes(self, spaces):
        sp = spaces["polar-riemannian"]
        density = riemannian_volume_measure(sp).density
        for x in ((0.7, 0.5), (1.9, 6.0)):
            assert density(x) == pytest.approx(
                float(randers.bh_density_closed_form(sp, x)), abs=1e-14
            )

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


class TestMonteCarlo:
    def test_euclidean_unit_disc(self, spaces):
        est, se = bh_density_monte_carlo(spaces["euclidean2"], (0.0, 0.0), 200_000, 11)
        assert abs(est - 1.0) <= 3.0 * se

    def test_flat_const_matches_closed_form(self, spaces):
        sp = spaces["flat-const"]
        closed = float(randers.bh_density_closed_form(sp, (0.0, 0.0)))
        est, se = bh_density_monte_carlo(sp, (0.0, 0.0), 200_000, 20240)
        assert abs(est - closed) <= max(0.01 * closed, 3.0 * se)

    def test_riemannian_reduction(self, spaces):
        sp = spaces["polar-riemannian"]
        est, se = bh_density_monte_carlo(sp, (1.5, 3.0), 100_000, 7)
        assert abs(est - 1.5) <= 3.0 * se

    def test_minimum_sample_count(self, spaces):
        with pytest.raises(ValueError, match="10\\^4"):
            bh_density_monte_carlo(spaces["euclidean2"], (0.0, 0.0), 1000, 0)

    def test_deterministic_for_fixed_seed(self, spaces):
        sp = spaces["flat-const"]
        a = bh_density_monte_carlo(sp, (0.0, 0.0), 50_000, 99)
        b = bh_density_monte_carlo(sp, (0.0, 0.0), 50_000, 99)
        c = bh_density_monte_carlo(sp, (0.0, 0.0), 50_000, 98)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("seed", [-1, 2**64, 3.0, True])
    def test_seed_outside_the_domain_is_refused(self, spaces, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            bh_density_monte_carlo(spaces["euclidean2"], (0.0, 0.0), 10_000, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_domain_ends_are_accepted(self, spaces, seed):
        est, se = bh_density_monte_carlo(spaces["euclidean2"], (0.0, 0.0), 10_000, seed)
        assert abs(est - 1.0) <= 5.0 * se

    def test_recorded_estimates(self, spaces):
        # values of the one sequential PCG64DXSM stream, as the uniform
        # reference below computes them
        assert bh_density_monte_carlo(spaces["flat-const"], (0.0, 0.0), 200_000, 20240) == (
            0.6494758562098508,
            0.0022061889781902705,
        )
        assert bh_density_monte_carlo(
            spaces["sphere-hopf"], (0.0, 0.0, 0.0), 200_000, 7
        ) == (6.665221006873872, 0.028431209441610324)

    def test_threads_calling_at_once_get_the_recorded_values(self, spaces):
        recorded = {
            "flat-const": ((0.0, 0.0), 20240, (0.6494758562098508, 0.0022061889781902705)),
            "sphere-hopf": ((0.0, 0.0, 0.0), 7, (6.665221006873872, 0.028431209441610324)),
        }
        names = ["flat-const", "sphere-hopf"] * 2
        barrier = threading.Barrier(len(names))
        results = [None] * len(names)

        def call(k):
            x, seed, _ = recorded[names[k]]
            barrier.wait()
            results[k] = bh_density_monte_carlo(spaces[names[k]], x, 200_000, seed)

        before = threading.active_count()
        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(names))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        assert results == [recorded[name][2] for name in names]
        assert threading.active_count() == before  # no helper outlives its call

    def test_the_helper_half_raises_in_the_caller(self, spaces, monkeypatch):
        count_hits = scurvature._count_hits

        def failing_second_half(seed, first_row, *args):
            if first_row > 0:
                raise MemoryError("second half")
            return count_hits(seed, first_row, *args)

        monkeypatch.setattr(scurvature, "_count_hits", failing_second_half)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="second half"):
            bh_density_monte_carlo(spaces["flat-const"], (0.0, 0.0), 200_000, 1)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "name, x", [("flat-const", (0.3, -0.2)), ("sphere-hopf", (0.1, 0.2, -0.3)),
                    ("polar-riemannian", (1.5, 3.0)), ("specgen-n4", None)]
    )
    @pytest.mark.parametrize(
        "count, seed",
        [
            (10_000, 0),
            (scurvature.MC_CHUNK_ROWS, 3),  # one chunk
            (2 * scurvature.MC_CHUNK_ROWS, 1),  # two chunks, one per half
            (3 * scurvature.MC_CHUNK_ROWS, 2**64 - 1),  # an odd number of chunks
            (65_537, 2**64 - 1),
            (140_000, 5),  # a partial last chunk
        ],
    )
    def test_draw_equals_the_uniform_reference(self, spaces, name, x, count, seed):
        """The two halves' in-place draws give the estimates of rng.uniform
        per chunk from the one sequential stream."""
        if name in spaces:
            space = spaces[name]
        else:
            spec = specgen.generate(random.Random(22), "length-varies", 4, 1, name)
            space = manifest.space_from_spec(spec)
            x = tuple(0.5 * (lo + hi) for lo, hi in space.chart.bounds)
        a = np.array([[standard_part(e) for e in row] for row in randers.a_at(space, x)])
        b = np.array([standard_part(c) for c in randers.b_at(space, x)])
        lam, q = np.linalg.eigh(a)
        half_width = 1.0 / (1.0 - randers.beta_length(space, x)) / np.sqrt(lam)
        rng = np.random.Generator(np.random.PCG64DXSM(seed))
        hits = 0
        for start in range(0, count, scurvature.MC_CHUNK_ROWS):
            rows = min(scurvature.MC_CHUNK_ROWS, count - start)
            y = rng.uniform(-half_width, half_width, size=(rows, len(x)))
            hits += int(np.count_nonzero(np.sqrt((y * y) @ lam) + y @ (q.T @ b) < 1.0))
        p = hits / count
        box_volume = float(np.prod(2.0 * half_width))
        ball_volume = box_volume * p
        omega = unit_ball_volume(len(x))
        se_volume = box_volume * math.sqrt(p * (1.0 - p) / count)
        expected = (omega / ball_volume, omega * se_volume / (ball_volume * ball_volume))
        assert bh_density_monte_carlo(space, x, count, seed) == expected

    def test_memory_is_bounded(self, spaces):
        # one draw of all samples peaked at 53 MB; its two halves of 32768-row
        # chunks peak at 4.2 MB once the space is warm (10 runs, 4.20-4.21 MB)
        tracemalloc.start()
        try:
            bh_density_monte_carlo(spaces["sphere-hopf"], (0.0, 0.0, 0.0), 1_000_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSCurvatureFormula:
    def test_riemannian_volume_measure_vanishes(self, spaces, structures):
        for name in ("euclidean2", "polar-riemannian"):
            sp = spaces[name]
            F = structures[name]
            measure = riemannian_volume_measure(sp)
            for x, v in probe_pairs(sp.chart, 30):
                assert abs(s_curvature(F, measure, x, v)) <= 1e-9

    def test_nonkilling_anchor_value(self, spaces, structures):
        # trace N = 0.5 and v . dlog sigma = -0.25 combine to S = 0.75
        F = structures["flat-nonkilling"]
        measure = busemann_hausdorff_measure(spaces["flat-nonkilling"])
        assert s_curvature(F, measure, (0.5, 0.0), (1.0, 0.0)) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_flat_const_vanishes_everywhere(self, spaces, structures):
        F = structures["flat-const"]
        measure = busemann_hausdorff_measure(spaces["flat-const"])
        for x, v in probe_pairs(spaces["flat-const"].chart, 30):
            assert abs(s_curvature(F, measure, x, v)) <= 1e-9

    def test_zero_vector(self, spaces, structures):
        measure = busemann_hausdorff_measure(spaces["flat-const"])
        assert s_curvature(structures["flat-const"], measure, (0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_nonpositive_density_rejected(self, spaces, structures):
        bad = Measure("custom", lambda x: x[0])  # vanishes at x1 = 0
        with pytest.raises(ValueError, match="not positive"):
            s_curvature(structures["flat-const"], bad, (0.0, 0.5), (1.0, 0.0))

    def test_from_connection_equals_s_curvature(self, spaces, structures):
        for name in catalog.NAMES:
            sp = spaces[name]
            F = structures[name]
            names = sp.chart.names
            measures = [
                measure_from_kind(sp, kind)
                for kind in ("lebesgue", "riemannian-volume", "busemann-hausdorff")
            ]
            measures.append(
                measure_from_kind(sp, "custom", expr.parse(f"exp(0.3*{names[0]})", names))
            )
            for x, v in probe_pairs(sp.chart, 4):
                N = nonlinear_connection(F, x, v)
                for measure in measures:
                    assert repr(s_curvature_from(N, measure, x, v)) == repr(
                        s_curvature(F, measure, x, v)
                    )

    def test_homogeneity(self, spaces, structures):
        F = structures["rotational-killing"]
        measure = busemann_hausdorff_measure(spaces["rotational-killing"])
        for x, v in probe_pairs(spaces["rotational-killing"].chart, 20):
            s = s_curvature(F, measure, x, v)
            for c in (0.5, 2.0):
                sc = s_curvature(F, measure, x, [c * vi for vi in v])
                assert abs(sc - c * s) <= 1e-9 * (1.0 + abs(s))


class TestHeldConnection:
    """s_curvature holds N for the last (F, x, v).  Each test builds its
    own F, so no entry held by an earlier test can match."""

    # The s-curvature-sweep density shape, with fixed coefficients.
    DENSITY = "exp(0.3*{first} - 0.2*{second}^2) * (2 + sin(0.4*{last}))"

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls = []
        monkeypatch.setattr(
            scurvature,
            "nonlinear_connection",
            lambda F, x, v: calls.append((F, tuple(x), tuple(v))) or nonlinear_connection(F, x, v),
        )
        return calls

    def _measures(self, sp) -> list:
        names = sp.chart.names
        density = self.DENSITY.format(first=names[0], second=names[1], last=names[-1])
        field = expr.parse(density, names)
        return [measure_from_kind(sp, kind, field) for kind in scurvature.MEASURE_KINDS]

    @staticmethod
    def _exact(F, measure, x, v) -> str:
        """repr of S with N computed afresh, outside s_curvature."""
        return repr(s_curvature_from(nonlinear_connection(F, x, v), measure, x, v))

    def test_measures_at_one_point_share_one_connection(self, spaces, monkeypatch):
        sp = spaces["sphere-hopf"]
        F = randers.finsler(sp)
        measures = self._measures(sp)
        calls = self._counted(monkeypatch)
        x, v = [0.1, -0.2, 0.3], [0.5, 1.0, -0.25]
        for measure in measures:
            s_curvature(F, measure, x, v)
        assert calls == [(F, tuple(x), tuple(v))]
        s_curvature(F, measures[0], x, [2.0 * c for c in v])
        assert len(calls) == 2

    @staticmethod
    def _sweep(spaces) -> list:
        """(F, space, [(x, v), ...]) per catalog space and per specgen
        family and dimension (n = 2-4), each with a fresh F."""
        specs = specgen.generate_set(3, specgen.family_grid(), "held")
        built = list(spaces.values()) + [manifest.space_from_spec(spec) for spec in specs]
        return [(randers.finsler(sp), sp, probe_pairs(sp.chart, 2, 9)) for sp in built]

    def _ops(self, sweep) -> list:
        """Per space and point, the sweep's ops: four kinds at v, then one at 2v."""
        out = []
        for F, sp, pairs in sweep:
            measures = self._measures(sp)
            ops = []
            for k, (x, v) in enumerate(pairs):
                ops += [(F, measure, x, v) for measure in measures]
                ops.append((F, measures[k % 4], x, [2.0 * c for c in v]))
            out.append(ops)
        return out

    def test_equals_the_connection_computed_afresh(self, spaces):
        per_space = self._ops(self._sweep(spaces))
        in_order = [op for ops in per_space for op in ops]
        # The j-th op of every space, then the (j+1)-th: consecutive calls differ in F.
        interleaved = [op for column in zip(*per_space) for op in column]
        expected = {id(op): self._exact(*op) for op in in_order}
        for order in (in_order, interleaved):
            assert [repr(s_curvature(*op)) for op in order] == [expected[id(op)] for op in order]

    def test_signed_zero_and_an_equal_chart_recompute(self, spaces, monkeypatch):
        sp = spaces["flat-nonkilling"]
        F, twin = randers.finsler(sp), randers.finsler(sp)
        measure = busemann_hausdorff_measure(sp)
        calls = self._counted(monkeypatch)
        points = [
            ((0.0, 0.3), (1.0, 0.5)),
            ((-0.0, 0.3), (1.0, 0.5)),
            ((-0.0, 0.3), (1.0, 0.0)),
            ((-0.0, 0.3), (1.0, -0.0)),
        ]
        for x, v in points:
            assert repr(s_curvature(F, measure, x, v)) == self._exact(F, measure, x, v)
        assert repr(s_curvature(twin, measure, *points[-1])) == self._exact(
            twin, measure, *points[-1]
        )
        assert [(G is F, x, v) for G, x, v in calls] == [
            *[(True, x, v) for x, v in points],
            (False, *points[-1]),
        ]

    def test_a_raising_point_is_not_held(self, monkeypatch):
        # alpha^2 < 0 where x1 < 0, so math.sqrt raises there.
        sp = randers.build_space(
            ["x1", "x2"], [[-1, 1], [-1, 1]], [["x1", "0"], ["0", "1"]], ["0.1", "0"]
        )
        F = randers.finsler(sp)
        measure = lebesgue_measure()
        good, bad = ((0.5, 0.1), (1.0, 0.5)), ((-0.5, 0.1), (1.0, 0.5))
        calls = self._counted(monkeypatch)
        s_curvature(F, measure, *good)
        for _ in range(2):
            with pytest.raises(ValueError, match="math domain error"):
                s_curvature(F, measure, *bad)
        assert len(calls) == 3
        assert repr(s_curvature(F, measure, *good)) == self._exact(F, measure, *good)
        after = ((0.25, -0.3), (0.5, 1.0))
        assert repr(s_curvature(F, measure, *after)) == self._exact(F, measure, *after)
        assert len(calls) == 4


class TestTransportOracle:
    def test_riemannian_zero(self, spaces, structures):
        sp = spaces["polar-riemannian"]
        F = structures["polar-riemannian"]
        measure = riemannian_volume_measure(sp)
        value = s_curvature_transport(
            F, measure, (1.2, 3.0), (0.5, 0.3), h=1e-3, steps=100, richardson=False
        )
        assert abs(value) <= 1e-6

    def test_nonkilling_anchor(self, spaces, structures):
        F = structures["flat-nonkilling"]
        measure = busemann_hausdorff_measure(spaces["flat-nonkilling"])
        value = s_curvature_transport(F, measure, (0.5, 0.0), (1.0, 0.0))
        assert value == pytest.approx(0.75, abs=1e-5)

    def test_rescaling_contract(self, spaces, structures):
        F = structures["flat-nonkilling"]
        measure = busemann_hausdorff_measure(spaces["flat-nonkilling"])
        s1 = s_curvature_transport(F, measure, (0.3, 0.2), (0.9, -0.4))
        s2 = s_curvature_transport(F, measure, (0.3, 0.2), (1.8, -0.8))
        assert abs(s2 - 2.0 * s1) <= 1e-8

    def test_agrees_with_formula_on_probes(self, spaces, structures):
        for name in ("flat-nonkilling", "sphere-hopf"):
            sp = spaces[name]
            F = structures[name]
            measure = busemann_hausdorff_measure(sp)
            for x, v in probe_pairs(sp.chart, 10):
                sf = s_curvature(F, measure, x, v)
                st = s_curvature_transport(F, measure, x, v, h=1e-3, steps=100)
                assert abs(sf - st) <= 1e-5

    def test_transport_steps_is_the_even_default(self):
        # Richardson reads each path at TRANSPORT_STEPS // 2.
        assert scurvature.TRANSPORT_STEPS % 2 == 0
        for oracle in (s_curvature_transport, s_curvature_transport_batch):
            steps = inspect.signature(oracle).parameters["steps"].default
            assert steps == scurvature.TRANSPORT_STEPS

    @pytest.mark.parametrize(
        "name,spec",
        [(name, None) for name in catalog.NAMES]
        + [(s["name"], s) for s in specgen.generate_set(5, specgen.family_grid(), "steps")],
    )
    def test_default_steps_agree_with_100_and_the_formula(self, name, spec):
        space = manifest.space_from_spec(spec) if spec else catalog.space(name)
        F = randers.finsler(space)
        measure = busemann_hausdorff_measure(space)
        pairs = probe_pairs(space.chart, 8)
        xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
        default = s_curvature_transport_batch(F, measure, xs, vs)
        fine = s_curvature_transport_batch(F, measure, xs, vs, steps=100)
        formula = [s_curvature(F, measure, x, v) for x, v in pairs]
        for d, f, s in zip(default, fine, formula):
            assert abs(d - f) <= 1e-10 and abs(d - s) <= 1e-10

    def test_odd_steps_round_up_only_under_richardson(self, spaces, structures):
        F = structures["flat-nonkilling"]
        measure = busemann_hausdorff_measure(spaces["flat-nonkilling"])
        x, v = (0.5, 0.0), (1.0, 0.0)

        def run(steps, richardson):
            return s_curvature_transport(F, measure, x, v, steps=steps, richardson=richardson)

        assert run(3, True) == run(4, True)
        assert run(3, False) != run(4, False)
        assert s_curvature_transport_batch(F, measure, [x], [v], steps=3, richardson=False) == [
            run(3, False)
        ]

    # F(v) overflows to inf at |v| = 1e300, and is NaN for a NaN component;
    # neither may reach the geodesic as a zero or NaN unit start vector.
    @pytest.mark.parametrize("v", [(0.0, 1e300), (math.nan, 1.0)])
    def test_non_finite_f_is_rejected(self, structures, v):
        F = structures["euclidean2"]
        measure = lebesgue_measure()
        with pytest.raises(ValueError, match="finite F"):
            s_curvature_transport(F, measure, (0.1, 0.2), v)
        # the batch hands the failing probe to the per-probe call
        with pytest.raises(ValueError, match="finite F"):
            s_curvature_transport_batch(F, measure, [(0.1, 0.2), (0.3, 0.0)], [(1.0, 0.0), v])


class TestMeasureLaws:
    def test_scale_invariance(self, spaces, structures):
        sp = spaces["flat-nonkilling"]
        F = structures["flat-nonkilling"]
        bh = busemann_hausdorff_measure(sp)
        scaled = Measure("custom", lambda x: 2.7 * bh.density(x))
        for x, v in probe_pairs(sp.chart, 20):
            assert abs(s_curvature(F, scaled, x, v) - s_curvature(F, bh, x, v)) <= 1e-12

    def test_density_shift_law(self, spaces, structures):
        # multiplying sigma by exp(x1) shifts S(v) by exactly -v1
        sp = spaces["flat-const"]
        F = structures["flat-const"]
        bh = busemann_hausdorff_measure(sp)
        shifted = Measure("custom", lambda x: jets.exp(x[0]) * bh.density(x))
        for x, v in probe_pairs(sp.chart, 20):
            s0 = s_curvature(F, bh, x, v)
            s1 = s_curvature(F, shifted, x, v)
            assert abs(s1 - (s0 - v[0])) <= 1e-10


class TestMeasureUniqueness:
    def test_theorem_only_if_corroboration(self, spaces, structures):
        # no measure in the built-in family is vanishing on the NO spaces
        for name in ("flat-nonkilling", "rotational-killing"):
            sp = spaces[name]
            F = structures[name]
            pairs = probe_pairs(sp.chart, 100)
            for measure in (
                lebesgue_measure(),
                riemannian_volume_measure(sp),
                busemann_hausdorff_measure(sp),
            ):
                worst = max(abs(s_curvature(F, measure, x, v)) for x, v in pairs)
                assert worst >= 0.05


class TestZermeloRotation:
    """The Randers space of Zermelo navigation on flat h with the rotation
    W = 0.3 (-x2, x1): S_BH vanishes, and so does e_ij = r_ij + b_i s_j +
    b_j s_i, although beta is not Killing and ||beta|| is not constant.
    analyze still refuses it (exit 3, killing-violated).  Whether it should
    admit it is open, so no verdict is asserted."""

    L = "(1-0.09*(x1^2+x2^2))"

    @pytest.fixture(scope="class")
    def space(self):
        L = self.L
        return randers.build_space(
            ["x1", "x2"],
            [(-1.0, 1.0), (-1.0, 1.0)],
            [
                [f"1/{L} + 0.09*x2^2/{L}^2", f"-0.09*x1*x2/{L}^2"],
                [f"-0.09*x1*x2/{L}^2", f"1/{L} + 0.09*x1^2/{L}^2"],
            ],
            [f"0.3*x2/{L}", f"-0.3*x1/{L}"],
        )

    def test_bh_s_vanishes_on_the_probes(self, space):
        F = randers.finsler(space)
        bh = busemann_hausdorff_measure(space)
        pairs = probe_pairs(space.chart, 100, 0)
        assert max(abs(s_curvature(F, bh, x, v)) for x, v in pairs) <= 1e-12

    def test_e_vanishes_on_the_probes(self, space):
        # r_ij and s_ij are the symmetric and antisymmetric halves of b_{i|j}
        # and s_j = b^i s_ij (Chern & Shen, Riemann-Finsler Geometry, 2005)
        worst = 0.0
        for x, _ in probe_pairs(space.chart, 100, 0):
            data = randers.PointData(space, x)
            q, b, b_up = data.bcov, data.b, data.b_up
            r = [[0.5 * (q[i][j] + q[j][i]) for j in range(2)] for i in range(2)]
            s_low = [sum(b_up[i] * 0.5 * (q[i][j] - q[j][i]) for i in range(2)) for j in range(2)]
            worst = max(
                worst,
                *(abs(r[i][j] + b[i] * s_low[j] + b[j] * s_low[i])
                  for i in range(2) for j in range(2)),
            )
        assert worst <= 1e-14

    def test_transport_oracle_agrees(self, space):
        F = randers.finsler(space)
        bh = busemann_hausdorff_measure(space)
        assert abs(s_curvature_transport(F, bh, (0.5, 0.3), (1.0, 0.4))) <= 1e-8


class TestMeasureConstruction:
    def test_from_kind(self, spaces):
        sp = spaces["flat-const"]
        assert measure_from_kind(sp, "lebesgue").kind == "lebesgue"
        assert measure_from_kind(sp, "riemannian-volume").kind == "riemannian-volume"
        assert measure_from_kind(sp, "busemann-hausdorff").kind == "busemann-hausdorff"
        field = expr.parse("exp(x1)", ["x1", "x2"])
        assert measure_from_kind(sp, "custom", field).kind == "custom"

    def test_custom_needs_density(self, spaces):
        with pytest.raises(ValueError):
            measure_from_kind(spaces["flat-const"], "custom")

    def test_unknown_kind(self, spaces):
        with pytest.raises(ValueError):
            measure_from_kind(spaces["flat-const"], "holmes-thompson")

    def test_custom_measure_evaluates(self, spaces):
        field = expr.parse("1 + x1^2", ["x1", "x2"])
        m = custom_measure(field, ("x1", "x2"))
        assert m.density((2.0, 0.0)) == 5.0


class TestCompiledCustomMeasure:
    """custom_measure compiles its density once; S under it equals S under
    a density that walks the AST through expr.evaluate, bit for bit."""

    # The s-curvature-sweep density shape, with fixed coefficients.
    SHAPE = "exp({a}*{x0} + {b}*{x1}^2) * (2 + sin({c}*{xl}))"

    def _measures(self, sp, coefficients):
        names = sp.chart.names
        a, b, c = coefficients
        field = expr.parse(
            self.SHAPE.format(a=a, b=b, c=c, x0=names[0], x1=names[1], xl=names[-1]), names
        )
        interpreted = Measure("custom", lambda x: expr.evaluate(field, dict(zip(names, x))))
        return custom_measure(field, names), interpreted

    @pytest.mark.parametrize("coefficients", [("0.31", "-0.42", "0.17"), ("-0.5", "0.25", "-0.375")])
    def test_s_equals_the_interpreted_density(self, spaces, structures, coefficients):
        for name, sp in spaces.items():
            F = structures[name]
            compiled, interpreted = self._measures(sp, coefficients)
            pairs = probe_pairs(sp.chart, 6)
            for x, v in pairs:
                assert repr(s_curvature(F, compiled, x, v)) == repr(
                    s_curvature(F, interpreted, x, v)
                ), name
            xs = [np.array(c) for c in zip(*[x for x, _ in pairs])]
            vs = [np.array(c) for c in zip(*[v for _, v in pairs])]
            N = PairTensors(F, xs, vs).N
            lanes = [s_curvature_from(N, m, xs, vs).tolist() for m in (compiled, interpreted)]
            assert list(map(repr, lanes[0])) == list(map(repr, lanes[1])), name
