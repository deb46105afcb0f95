import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerlab import catalog, checks, core, jets, manifest, randers, scurvature
from finslerlab.core import probe_grid
from finslerlab.jets import Jet, standard_part

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import specgen  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["flat-nonkilling", "rotational-killing"])
def test_battery_passes_on_refusing_spaces(spaces, name):
    # admits = False exercises the witness branch of theorem-end-to-end
    pairs, points = probe_grid(spaces[name].chart, 25)
    results = checks.run_checks(
        spaces[name],
        pairs,
        randers.validate_space(spaces[name], points),
        transport_probes=5,
        mc_samples=50_000,
    )
    failed = [r.line() for r in results if not (r.passed or r.skipped)]
    assert not failed, "\n".join(failed)
    by_name = {r.name: r for r in results}
    assert by_name["killing-skew-contraction"].skipped
    assert by_name["theorem-end-to-end"].observed >= 0.05


def test_battery_passes_on_admitting_space(spaces):
    space = spaces["polar-riemannian"]
    pairs, points = probe_grid(space.chart, 25)
    results = checks.run_checks(
        space,
        pairs,
        randers.validate_space(space, points),
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
    # flat-nonkilling refuses (the even part of S is read),
    # polar-riemannian admits (the Killing-skew check runs)
    calls = {"validate_space": 0, "bh_density": 0, "half_f_squared": 0, "geodesic": 0, "plain_f": 0}
    lanes = {"bh_density": 0, "half_f_squared": 0, "geodesic": 0, "plain_f": 0}
    validate_space = randers.validate_space
    finsler = randers.finsler
    bh_density = randers.bh_density_closed_form
    half_f_squared = core._half_f_squared
    geodesic = core.geodesic
    lanewise = jets.lanewise
    passes = []  # the lane count of every jets.lanewise pass

    def counting_lanewise(fn, points):
        points = list(points)
        passes.append(len(points))
        return lanewise(fn, points)

    def counting_validate_space(*args, **kwargs):
        calls["validate_space"] += 1
        return validate_space(*args, **kwargs)

    def counting_bh_density(space, x):
        # the Busemann-Hausdorff measure evaluates its density here, so the
        # scaled and shifted laws count only if they evaluate it again
        calls["bh_density"] += 1
        lanes["bh_density"] += _lanes(x)
        return bh_density(space, x)

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

    monkeypatch.setattr(randers, "validate_space", counting_validate_space)
    monkeypatch.setattr(randers, "finsler", counting_finsler)
    monkeypatch.setattr(scurvature, "geodesic", counting_geodesic)
    monkeypatch.setattr(randers, "bh_density_closed_form", counting_bh_density)
    monkeypatch.setattr(core, "_half_f_squared", counting_half_f_squared)
    monkeypatch.setattr(jets, "lanewise", counting_lanewise)
    space = spaces[name]
    pairs, points = probe_grid(space.chart, 25)
    # The grid pass, as manifest.probed_space runs it; the battery reads its rows.
    analysis = randers.validate_space(space, points)
    checks.run_checks(space, pairs, analysis, transport_probes=5, mc_samples=10_000)
    subset = pairs[:20]
    transport = 5
    # The pair pass has one lane per pair and one per (pair, c) of the
    # homogeneity subset, (x, 3 v) and (x, v / 3), whose own N gives S there.
    pair_lanes = len(pairs) + 2 * len(subset)
    # sigma_BH once per pair-pass lane (its scaled and shifted laws reuse
    # that jet), at the four Richardson states of each oracle probe, and at
    # the chart midpoint for the Monte-Carlo gate.  F^2/2 once per lane for
    # g, A, N and G, once more for g at 3 v; g at the four Richardson states
    # of each oracle probe.  One geodesic per oracle probe and direction.  F
    # itself at v (read from PairTensors) and at 0.5 v, 2 v and 3 v per
    # lane, and at the start of each oracle geodesic.
    assert lanes == {
        "bh_density": pair_lanes + 4 * transport + 1,
        "half_f_squared": 2 * pair_lanes + 4 * transport,
        "geodesic": 2 * transport,
        "plain_f": 4 * pair_lanes + 2 * transport,
    }
    # Each of those is one pass over array leaves, or one float call: sigma_BH
    # in the pair pass, at the oracle's end states and at the midpoint; F^2/2
    # for PairTensors, g at 3 v and the oracle; the oracle's forward and
    # backward geodesics as one lock-step RK4 run; F once per factor c in
    # the pair pass and once for the oracle's starts.  The beta analysis is
    # the one grid pass above: run_checks does not repeat it.
    assert calls == {
        "validate_space": 1, "bh_density": 3, "half_f_squared": 3, "geodesic": 1, "plain_f": 5
    }
    # One pass over the pairs and the subset builds every per-lane quantity.
    # The others are over the points (validate_space's grid pass, the
    # length-gradient gap and, when the space admits, the certificate) and
    # the oracle's trajectories and end states.
    assert len(passes) == 5 + randers.decide(analysis, 1e-9, 1e-8).admits
    assert passes.count(pair_lanes) == 1


def _homogeneity_cases():
    """The catalog spaces and one generated space per specgen family."""
    shape = [(family, specgen.DIMENSIONS[family][0], 0) for family in specgen.FAMILIES]
    generated = specgen.generate_set(0, shape, "homogeneity")
    return [(name, None) for name in catalog.NAMES] + [(spec["name"], spec) for spec in generated]


@pytest.mark.parametrize("bend", [0.0, 1e-3])
@pytest.mark.parametrize("name,spec", _homogeneity_cases())
def test_s_at_scaled_v_comes_from_its_own_connection(monkeypatch, name, spec, bend):
    # S at 3 v and v / 3 must be the float S of N(x, c v), which differs
    # from c S(v) by rounding only.  A bend of F by bend * (1 + x1^2) v1^2
    # breaks the homogeneity (and makes F depend on x on the flat spaces
    # too): then an S at c v taken from S(v) or from a scaled N(v) no
    # longer matches, and s-homogeneity reads the bend, far above rounding.
    space = manifest.space_from_spec(spec) if spec else catalog.space(name)
    F = randers.finsler(space)
    if bend:
        func = F.func
        F = dataclasses.replace(
            F, func=lambda x, v: func(x, v) + bend * (1.0 + x[0] * x[0]) * (v[0] * v[0])
        )
        monkeypatch.setattr(randers, "finsler", lambda _space: F)
    bh = scurvature.busemann_hausdorff_measure(space)
    pairs, points = probe_grid(space.chart, 25)
    subset = pairs[:20]
    lanewise = jets.lanewise
    pair_pass = []  # (lanes, columns) of the pass over the pairs and the subset

    def recording_lanewise(fn, lanes):
        lanes = list(lanes)
        columns = lanewise(fn, lanes)
        if len(lanes) == len(pairs) + 2 * len(subset):
            pair_pass.append((lanes, columns))
        return columns

    monkeypatch.setattr(jets, "lanewise", recording_lanewise)
    analysis = randers.validate_space(space, points)
    results = checks.run_checks(space, pairs, analysis, transport_probes=0, mc_samples=10_000)
    [(lanes, columns)] = pair_pass

    def s_bh(x, v):
        return scurvature.s_curvature_from(core.nonlinear_connection(F, x, v), bh, x, v)

    s_homog = 0.0
    for k, (x, v) in enumerate(subset):
        s0 = s_bh(x, v)
        for j, c in enumerate((3.0, 1.0 / 3.0)):
            w = [c * vi for vi in v]
            lane = len(pairs) + 2 * k + j
            assert lanes[lane] == (*x, *w)
            s_cv = s_bh(x, w)
            # the last columns are S under sigma_BH and its two laws, then
            # the even part of S
            assert repr(columns[-2][0][lane]) == repr(s_cv)
            s_homog = max(s_homog, abs(s_cv - c * s0) / (1.0 + abs(s0)))
    assert (s_homog > 1e-12) == bool(bend)
    by_name = {r.name: r for r in results}
    assert repr(by_name["s-homogeneity"].observed) == repr(s_homog)


def test_homogeneity_entries_read_rounding(spaces):
    # 3 and 1/3 are not powers of two, so S at c v and g at 3 v carry
    # rounding of their own: an S(c v) formed as c S(v), or a g at 3 v
    # taken from g at v, would read 0 on every space.
    observed = []
    for name in catalog.NAMES:
        pairs, points = probe_grid(spaces[name].chart, 25)
        results = checks.run_checks(
            spaces[name], pairs, randers.validate_space(spaces[name], points),
            transport_probes=0, mc_samples=10_000,
        )
        observed.append({r.name: r.observed for r in results})
    for entry in ("s-homogeneity", "metric-zero-homogeneity"):
        assert max(row[entry] for row in observed) > 0.0, entry


@pytest.mark.parametrize("name,tolerance", [("flat-nonkilling", 0.05), ("polar-riemannian", 1e-8)])
def test_no_probe_pairs_skip_the_theorem_entry(spaces, name, tolerance):
    # flat-nonkilling refuses (no pair to read the even part of S at),
    # polar-riemannian admits
    space = spaces[name]
    _, points = probe_grid(space.chart, 25)
    analysis = randers.validate_space(space, points)
    results = checks.run_checks(space, [], analysis, transport_probes=0, mc_samples=10_000)
    entry = {r.name: r for r in results}["theorem-end-to-end"]
    assert (entry.skipped, entry.passed, entry.observed, entry.tolerance) == (True, True, 0.0, tolerance)
    assert entry.note == "no probe pairs compared"
    assert entry.line().startswith("SKIP theorem-end-to-end")


def test_measure_laws_fold_every_pair(monkeypatch, spaces):
    # The scale and shift laws are read at every probe pair of the pass,
    # not only at the homogeneity subset (the first 20 pairs).
    lanewise = jets.lanewise
    passes = []

    def recording_lanewise(fn, lanes):
        lanes = list(lanes)
        columns = lanewise(fn, lanes)
        passes.append((len(lanes), columns))
        return columns

    monkeypatch.setattr(jets, "lanewise", recording_lanewise)
    worst_past_the_subset = set()
    for name in catalog.NAMES:
        pairs, points = probe_grid(spaces[name].chart, 100)
        passes.clear()
        analysis = randers.validate_space(spaces[name], points)
        results = checks.run_checks(spaces[name], pairs, analysis, transport_probes=0, mc_samples=10_000)
        [columns] = [columns for size, columns in passes if size == len(pairs) + 40]
        # S under sigma_BH and its two laws at each pair
        laws = list(zip(*(column[: len(pairs)] for column in columns[-2])))
        gaps = {
            "measure-scale-invariance": [abs(scaled - s0) for s0, scaled, _ in laws],
            "measure-density-shift": [
                abs(shifted - (s0 - v[0])) for (_, v), (s0, _, shifted) in zip(pairs, laws)
            ],
        }
        by_name = {r.name: r for r in results}
        for entry, column in gaps.items():
            assert repr(by_name[entry].observed) == repr(max([0.0, *column])), (name, entry)
            if max(column[20:]) > max(column[:20]):
                worst_past_the_subset.add(entry)
    assert worst_past_the_subset == {"measure-scale-invariance", "measure-density-shift"}


def _even_parts(space, pairs) -> list:
    """|E(x, v)| = |S(x, v) + S(x, -v)| per pair, from the closed-form Y
    trace at v and at -v: one PointData with one array lane per pair."""
    x, v = ([np.array(c) for c in zip(*(p[k] for p in pairs))] for k in range(2))
    data = randers.PointData(space, x)
    even = 0.5 * (data.trace_dY_closed_form(v) + data.trace_dY_closed_form([-c for c in v]))
    return np.abs(np.broadcast_to(even, (len(pairs),))).tolist()


def _refusing_cases():
    """The refusing catalog spaces and the refused families of the seed-7
    verdict grid."""
    generated = specgen.generate_set(7, specgen.family_grid(), "verdict")
    return [(name, None) for name in ("flat-nonkilling", "rotational-killing")] + [
        (spec["name"], spec) for spec in generated if not spec["bench"]["admits"]
    ]


@pytest.mark.parametrize("name,spec", _refusing_cases())
def test_refused_verdict_reads_the_even_part_of_s(name, spec):
    # S_sigma(v) = S_BH(v) + v^i d_i log(sigma_BH / sigma), so E = S(v) + S(-v)
    # is the same for every measure.  The entry reads max |E| over the pairs
    # and names its pair, where S under any measure, at v and at -v, replays it.
    space = manifest.space_from_spec(spec) if spec else catalog.space(name)
    pairs, points = probe_grid(space.chart, 25)
    analysis = randers.validate_space(space, points)
    results = checks.run_checks(space, pairs, analysis, transport_probes=0, mc_samples=10_000)
    entry = {r.name: r for r in results}["theorem-end-to-end"]
    evens = _even_parts(space, pairs)
    assert repr(entry.observed) == repr(max(evens))
    assert entry.passed and entry.tolerance == 0.05
    point, vector = re.search(r"--point=(\S+) --vector=(\S+)$", entry.note).groups()
    x, v = (tuple(map(float, text.split(","))) for text in (point, vector))
    assert evens[pairs.index((x, v))] == entry.observed
    F = randers.finsler(space)
    for measure in (
        scurvature.lebesgue_measure(),
        scurvature.riemannian_volume_measure(space),
        scurvature.busemann_hausdorff_measure(space),
    ):
        even = scurvature.s_curvature(F, measure, x, v) + scurvature.s_curvature(
            F, measure, x, [-c for c in v]
        )
        assert abs(abs(even) - entry.observed) <= 1e-12 * (1.0 + entry.observed), measure.kind


def test_refused_specs_clear_the_floor_twice_over():
    # Every refused spec that validate-battery and verdict-batch generate,
    # at seeds 0-49, reads max |E| at least twice the 0.05 floor on the
    # battery's default grid (100 pairs, probe seed 0), so theorem-end-to-end
    # passes on each of them with margin.
    worst = {}
    for seed in range(50):
        for tag, shape in (
            ("validate", workloads.ValidateBattery.SHAPE), ("verdict", specgen.family_grid())
        ):
            for spec in specgen.generate_set(seed, shape, tag):
                if spec["bench"]["admits"]:
                    continue
                space = manifest.space_from_spec(spec)
                pairs, _ = probe_grid(space.chart, 100, 0)
                worst[seed, spec["name"]] = max(_even_parts(space, pairs))
    low = {key: value for key, value in worst.items() if value < 0.1}
    assert not low, low
