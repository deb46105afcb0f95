import pytest

from finslerlab import checks, randers, scurvature
from finslerlab.core import probe_pairs


@pytest.mark.parametrize("name", ["flat-nonkilling", "rotational-killing"])
def test_battery_passes_on_refusing_spaces(spaces, name):
    # admits = False exercises the witness branch of theorem-end-to-end
    results = checks.run_checks(
        spaces[name],
        probe_count=25,
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
        probe_count=25,
        transport_probes=5,
        mc_samples=50_000,
    )
    failed = [r.line() for r in results if not (r.passed or r.skipped)]
    assert not failed, "\n".join(failed)
    by_name = {r.name: r for r in results}
    assert not by_name["killing-skew-contraction"].skipped
    assert by_name["theorem-end-to-end"].note.startswith("admits")
    assert by_name["theorem-end-to-end"].observed <= 1e-8


@pytest.mark.parametrize("name", ["flat-nonkilling", "polar-riemannian"])
def test_battery_evaluates_each_probe_value_once(spaces, monkeypatch, name):
    # flat-nonkilling refuses (the Lebesgue and volume floor is read),
    # polar-riemannian admits (the Killing-skew check runs)
    calls = {"analyze_beta": 0, "s_bh": 0, "nonlinear_connection": 0}
    analyze_beta = randers.analyze_beta
    s_curvature_from = scurvature.s_curvature_from
    nonlinear_connection = scurvature.nonlinear_connection

    def counting_analyze_beta(*args, **kwargs):
        calls["analyze_beta"] += 1
        return analyze_beta(*args, **kwargs)

    def counting_s_curvature_from(N, measure, x, v):
        # s_curvature evaluates through s_curvature_from too, so every S_BH
        # read is counted here, whichever of the two the battery calls
        if measure.kind == "busemann-hausdorff":
            calls["s_bh"] += 1
        return s_curvature_from(N, measure, x, v)

    def counting_nonlinear_connection(F, x, v):
        calls["nonlinear_connection"] += 1
        return nonlinear_connection(F, x, v)

    monkeypatch.setattr(randers, "analyze_beta", counting_analyze_beta)
    monkeypatch.setattr(scurvature, "s_curvature_from", counting_s_curvature_from)
    monkeypatch.setattr(checks, "nonlinear_connection", counting_nonlinear_connection)
    monkeypatch.setattr(scurvature, "nonlinear_connection", counting_nonlinear_connection)
    space = spaces[name]
    checks.run_checks(space, probe_count=25, transport_probes=5, mc_samples=10_000)
    pairs = probe_pairs(space.chart, 25, 0)
    subset = pairs[:20]
    # S_BH once per pair, plus S_BH at 0.5 v and 2 v on the homogeneity subset;
    # N once per pair for every measure, plus N at 0.5 v and 2 v on the subset.
    once = len(pairs) + 2 * len(subset)
    assert calls == {"analyze_beta": 1, "s_bh": once, "nonlinear_connection": once}
