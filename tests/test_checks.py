import dataclasses

import numpy as np
import pytest

from finslerlab import checks, core, randers, scurvature
from finslerlab.core import probe_grid
from finslerlab.jets import Jet, standard_part


@pytest.mark.parametrize("name", ["flat-nonkilling", "rotational-killing"])
def test_battery_passes_on_refusing_spaces(spaces, name):
    # admits = False exercises the witness branch of theorem-end-to-end
    results = checks.run_checks(
        spaces[name],
        *probe_grid(spaces[name].chart, 25),
        transport_probes=5,
        mc_samples=50_000,
    )
    failed = [r.line() for r in results if not (r.passed or r.skipped)]
    assert not failed, "\n".join(failed)
    by_name = {r.name: r for r in results}
    assert by_name["killing-skew-contraction"].skipped
    assert by_name["theorem-end-to-end"].observed >= 0.05


def test_battery_passes_on_admitting_space(spaces):
    results = checks.run_checks(
        spaces["polar-riemannian"],
        *probe_grid(spaces["polar-riemannian"].chart, 25),
        transport_probes=5,
        mc_samples=50_000,
    )
    failed = [r.line() for r in results if not (r.passed or r.skipped)]
    assert not failed, "\n".join(failed)
    by_name = {r.name: r for r in results}
    assert not by_name["killing-skew-contraction"].skipped
    assert by_name["theorem-end-to-end"].note.startswith("admits")
    assert by_name["theorem-end-to-end"].observed <= 1e-8


def _lanes(x) -> int:
    """Points one call evaluates: the lane count of array leaves, else 1."""
    return np.size(standard_part(x[0]))


@pytest.mark.parametrize("name", ["flat-nonkilling", "polar-riemannian"])
def test_battery_evaluates_each_probe_value_once(spaces, monkeypatch, name):
    # flat-nonkilling refuses (the Lebesgue and volume floor is read),
    # polar-riemannian admits (the Killing-skew check runs)
    calls = {"analyze_beta": 0, "s_bh": 0, "half_f_squared": 0, "geodesic": 0, "plain_f": 0}
    lanes = {"s_bh": 0, "half_f_squared": 0, "geodesic": 0, "plain_f": 0}
    analyze_beta = randers.analyze_beta
    finsler = randers.finsler
    s_curvature_from = scurvature.s_curvature_from
    half_f_squared = core._half_f_squared
    geodesic = core.geodesic

    def counting_analyze_beta(*args, **kwargs):
        calls["analyze_beta"] += 1
        return analyze_beta(*args, **kwargs)

    def counting_s_curvature_from(N, measure, x, v):
        # s_curvature evaluates through s_curvature_from too, so every S_BH
        # read is counted here, whichever of the two the battery calls
        if measure.kind == "busemann-hausdorff":
            calls["s_bh"] += 1
            lanes["s_bh"] += _lanes(x)
        return s_curvature_from(N, measure, x, v)

    def counting_half_f_squared(F, x, *args):
        calls["half_f_squared"] += 1
        lanes["half_f_squared"] += _lanes(x)
        return half_f_squared(F, x, *args)

    def counting_finsler(space):
        F = finsler(space)

        def func(x, v):
            # jet leaves are the tensors' F^2/2
            if not isinstance(v[0], Jet):
                calls["plain_f"] += 1
                lanes["plain_f"] += _lanes(x)
            return F.func(x, v)

        return dataclasses.replace(F, func=func)

    def counting_geodesic(F, x0, *args):
        calls["geodesic"] += 1
        lanes["geodesic"] += _lanes(x0)
        return geodesic(F, x0, *args)

    monkeypatch.setattr(randers, "analyze_beta", counting_analyze_beta)
    monkeypatch.setattr(randers, "finsler", counting_finsler)
    monkeypatch.setattr(scurvature, "geodesic", counting_geodesic)
    monkeypatch.setattr(scurvature, "s_curvature_from", counting_s_curvature_from)
    monkeypatch.setattr(core, "_half_f_squared", counting_half_f_squared)
    space = spaces[name]
    pairs, points = probe_grid(space.chart, 25)
    checks.run_checks(space, pairs, points, transport_probes=5, mc_samples=10_000)
    subset = pairs[:20]
    transport = 5
    # S_BH once per pair, plus S_BH at 0.5 v and 2 v on the homogeneity subset.
    # F^2/2 once per pair for g, A, N and G, once more for g at 2 v; N at 0.5 v
    # and 2 v on the subset; g at the four Richardson states of each oracle probe.
    # One geodesic per oracle probe and direction.  F itself at v (read from
    # PairTensors) and at 0.5 v, 2 v and 3 v per pair, and at the start of
    # each oracle geodesic.
    assert lanes == {
        "s_bh": len(pairs) + 2 * len(subset),
        "half_f_squared": 2 * len(pairs) + 2 * len(subset) + 4 * transport,
        "geodesic": 2 * transport,
        "plain_f": 4 * len(pairs) + 2 * transport,
    }
    # Each of those is one pass over array leaves: S_BH on the grid and on
    # the subset; F^2/2 for PairTensors, g at 2 v, the subset and the oracle;
    # the oracle's forward and backward geodesics as one lock-step RK4 run;
    # F once per factor c in the pair pass and once for the oracle's starts.
    assert calls == {
        "analyze_beta": 1, "s_bh": 2, "half_f_squared": 4, "geodesic": 1, "plain_f": 5
    }
