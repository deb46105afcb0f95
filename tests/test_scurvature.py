import math
import tracemalloc

import pytest

from finslerlab import catalog, jets, randers, scurvature
from finslerlab.core import probe_pairs
from finslerlab.scurvature import (
    Measure,
    MeasureUniquenessError,
    bh_density_monte_carlo,
    busemann_hausdorff_measure,
    custom_measure,
    lebesgue_measure,
    measure_from_kind,
    measure_uniqueness_check,
    riemannian_volume_density,
    riemannian_volume_measure,
    nonlinear_connection,
    s_curvature,
    s_curvature_from,
    s_curvature_transport,
    s_curvature_transport_batch,
    unit_ball_volume,
)
from finslerlab import expr


class TestVolumeDensity:
    def test_flat(self, spaces):
        assert riemannian_volume_density(spaces["euclidean2"], (0.2, 0.3)) == 1.0

    def test_polar(self, spaces):
        assert riemannian_volume_density(spaces["polar-riemannian"], (1.5, 1.0)) == pytest.approx(1.5, abs=1e-14)

    def test_equals_bh_when_form_vanishes(self, spaces):
        sp = spaces["polar-riemannian"]
        for x in ((0.7, 0.5), (1.9, 6.0)):
            assert riemannian_volume_density(sp, x) == pytest.approx(
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

    def test_recorded_estimates(self, spaces):
        # values of the single-draw implementation; chunked draws keep the stream
        assert bh_density_monte_carlo(spaces["flat-const"], (0.0, 0.0), 200_000, 20240) == (
            0.6486069563113785,
            0.0022011239920046595,
        )
        assert bh_density_monte_carlo(
            spaces["sphere-hopf"], (0.0, 0.0, 0.0), 200_000, 7
        ) == (6.647796600308765, 0.028309593216158106)

    def test_memory_is_bounded(self, spaces):
        # one draw of all samples peaked at 53 MB here
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
                    assert s_curvature_from(N, measure, x, v) == s_curvature(F, measure, x, v)

    def test_homogeneity(self, spaces, structures):
        F = structures["rotational-killing"]
        measure = busemann_hausdorff_measure(spaces["rotational-killing"])
        for x, v in probe_pairs(spaces["rotational-killing"].chart, 20):
            s = s_curvature(F, measure, x, v)
            for c in (0.5, 2.0):
                sc = s_curvature(F, measure, x, [c * vi for vi in v])
                assert abs(sc - c * s) <= 1e-9 * (1.0 + abs(s))


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
    def test_proportional_measures_both_vanish(self, spaces):
        sp = spaces["flat-const"]
        bh = busemann_hausdorff_measure(sp)
        scaled = Measure("custom", lambda x: 2.7 * bh.density(x))
        pairs = probe_pairs(sp.chart, 20)
        both, spread = measure_uniqueness_check(sp, bh, scaled, pairs, tol=1e-8)
        assert both
        assert spread <= 1e-14

    def test_shifted_measure_fails_gate(self, spaces):
        sp = spaces["flat-const"]
        bh = busemann_hausdorff_measure(sp)
        shifted = Measure("custom", lambda x: jets.exp(x[0]) * bh.density(x))
        pairs = probe_pairs(sp.chart, 20)
        both, spread = measure_uniqueness_check(sp, bh, shifted, pairs, tol=1e-8)
        assert not both
        assert spread > 0.1

    def test_one_connection_per_probe(self, spaces, monkeypatch):
        calls = []
        monkeypatch.setattr(
            scurvature,
            "nonlinear_connection",
            lambda F, x, v: calls.append(x) or nonlinear_connection(F, x, v),
        )
        sp = spaces["flat-const"]
        bh = busemann_hausdorff_measure(sp)
        pairs = probe_pairs(sp.chart, 20)
        measure_uniqueness_check(sp, bh, lebesgue_measure(), pairs, tol=1e-8)
        assert calls == [x for x, _ in pairs]

    def test_volume_equals_bh_on_riemannian(self, spaces):
        sp = spaces["euclidean2"]
        pairs = probe_pairs(sp.chart, 20)
        both, spread = measure_uniqueness_check(
            sp, riemannian_volume_measure(sp), busemann_hausdorff_measure(sp), pairs, tol=1e-8
        )
        assert both
        assert spread == 0.0

    def test_inconsistent_density_trips_guard(self, spaces):
        # a density that hides its x-dependence from the jets (so S appears
        # to vanish) while varying across probes contradicts uniqueness and
        # must raise
        from finslerlab.jets import standard_part

        sp = spaces["flat-const"]
        bh = busemann_hausdorff_measure(sp)
        liar = Measure("custom", lambda x: 1.0 + 0.001 * standard_part(x[0]))
        pairs = probe_pairs(sp.chart, 10)
        with pytest.raises(MeasureUniquenessError):
            measure_uniqueness_check(sp, bh, liar, pairs, tol=1e-8)

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
