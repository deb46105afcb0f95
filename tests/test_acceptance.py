"""Acceptance criteria, one test per criterion.

Every test pins the tolerances stated in the project contract, prints a
single PASS/FAIL line, and enforces the stated runtime budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

from finslerlab import catalog
from finslerlab.core import fundamental_tensor, geodesic, probe_pairs, spray
from finslerlab.jets import partial, seed_group, standard_part
from finslerlab.randers import (
    PointData,
    beta_length_squared,
    bh_density_closed_form,
    theorem_verdict,
)
from finslerlab.scurvature import (
    Measure,
    bh_density_monte_carlo,
    busemann_hausdorff_measure,
    lebesgue_measure,
    riemannian_volume_measure,
    s_curvature,
    s_curvature_transport,
)
from finslerlab.core import euler_identity_residual

MC_SEED = 20240


def report(num, description, ok, elapsed, budget, detail):
    status = "PASS" if (ok and (budget is None or elapsed < budget)) else "FAIL"
    limit = f" < {budget}s" if budget is not None else ""
    print(f"{status} criterion {num}: {description} [{detail}] ({elapsed:.2f}s{limit})")
    assert ok, f"criterion {num}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_01_riemannian_reduction(spaces, structures):
    started = time.perf_counter()
    worst = 0.0
    for name in ("euclidean2", "polar-riemannian"):
        F = structures[name]
        measure = riemannian_volume_measure(spaces[name])
        for x, v in probe_pairs(spaces[name].chart, 100):
            worst = max(worst, abs(s_curvature(F, measure, x, v)))
    elapsed = time.perf_counter() - started
    report(
        1,
        "Riemannian spaces with the volume measure have S = 0",
        worst <= 1e-9,
        elapsed,
        2.0,
        f"max |S| = {worst:.2e} <= 1e-9 at 100 probes each",
    )


def test_criterion_02_if_direction(spaces, structures):
    started = time.perf_counter()
    worst = 0.0
    for name in ("flat-const", "sphere-hopf"):
        F = structures[name]
        measure = busemann_hausdorff_measure(spaces[name])
        for x, v in probe_pairs(spaces[name].chart, 100):
            worst = max(worst, abs(s_curvature(F, measure, x, v)))
    elapsed = time.perf_counter() - started
    report(
        2,
        "Killing forms of constant length give S = 0 with the BH measure",
        worst <= 1e-8,
        elapsed,
        5.0,
        f"max |S| = {worst:.2e} <= 1e-8 at 100 probes each",
    )


def test_criterion_03_only_if_corroboration(spaces, structures):
    started = time.perf_counter()
    nonkilling = theorem_verdict(spaces["flat-nonkilling"])
    rotational = theorem_verdict(spaces["rotational-killing"])
    ok = (
        not nonkilling.admits
        and nonkilling.reason == "killing-violated"
        and abs(nonkilling.analysis.killing_defect_sup - 0.8) <= 1e-12
        and not rotational.admits
        and rotational.reason == "length-not-constant"
        and rotational.analysis.length_gradient_sup >= 0.1
    )
    floors = {}
    for name in ("flat-nonkilling", "rotational-killing"):
        sp = spaces[name]
        F = structures[name]
        pairs = probe_pairs(sp.chart, 100)
        for measure in (
            lebesgue_measure(),
            riemannian_volume_measure(sp),
            busemann_hausdorff_measure(sp),
        ):
            peak = max(abs(s_curvature(F, measure, x, v)) for x, v in pairs)
            floors[(name, measure.kind)] = peak
            ok = ok and peak >= 0.05
    elapsed = time.perf_counter() - started
    worst_floor = min(floors.values())
    report(
        3,
        "non-Killing / non-constant-length spaces rejected with witnesses",
        ok,
        elapsed,
        None,
        f"defect 0.8 exact, gradient sup >= 0.1, min over measures of max |S| = {worst_floor:.3f} >= 0.05",
    )


def test_criterion_04_formula_vs_transport(spaces, structures):
    started = time.perf_counter()
    worst = 0.0
    for name in catalog.NAMES:
        sp = spaces[name]
        F = structures[name]
        measure = busemann_hausdorff_measure(sp)
        for x, v in probe_pairs(sp.chart, 50):
            sf = s_curvature(F, measure, x, v)
            st = s_curvature_transport(F, measure, x, v, h=1e-3, steps=100, richardson=True)
            worst = max(worst, abs(sf - st))
    F = structures["flat-nonkilling"]
    measure = busemann_hausdorff_measure(spaces["flat-nonkilling"])
    anchor_formula = s_curvature(F, measure, (0.5, 0.0), (1.0, 0.0))
    anchor_transport = s_curvature_transport(
        F, measure, (0.5, 0.0), (1.0, 0.0), h=1e-3, steps=100, richardson=True
    )
    ok = (
        worst <= 1e-5
        and abs(anchor_formula - 0.75) <= 1e-5
        and abs(anchor_transport - 0.75) <= 1e-5
    )
    elapsed = time.perf_counter() - started
    report(
        4,
        "trace formula matches the transport-definition oracle",
        ok,
        elapsed,
        30.0,
        f"max |Sf - St| = {worst:.2e} <= 1e-5 over 50 probes x 6 spaces; anchor 0.75 from both paths",
    )


def test_criterion_05_proof_identity_suite(spaces, structures):
    started = time.perf_counter()
    worst_x = worst_y = worst_beta = worst_euler = 0.0
    for name in catalog.NAMES:
        sp = spaces[name]
        F = structures[name]
        n = sp.dimension
        pairs = probe_pairs(sp.chart, 100)
        for x, v in pairs:
            data = PointData(sp, x)
            dx, dy = data.traces(v)
            worst_x = max(worst_x, abs(dx))
            worst_y = max(worst_y, abs(dy - data.trace_dY_closed_form(v)))
            worst_euler = max(worst_euler, euler_identity_residual(F, x, v))
        for x, _ in pairs:
            covariant = PointData(sp, x).length_gradient()
            xs = seed_group([float(c) for c in x], range(n))
            lsq = beta_length_squared(sp, xs)
            direct = [standard_part(partial(lsq, i)) for i in range(n)]
            worst_beta = max(
                worst_beta, max(abs(a - b) for a, b in zip(covariant, direct))
            )
    ok = (
        worst_x <= 1e-9
        and worst_y <= 1e-9
        and worst_beta <= 1e-10
        and worst_euler <= 1e-9
    )
    elapsed = time.perf_counter() - started
    report(
        5,
        "spray-trace and one-form identities hold at jet precision",
        ok,
        elapsed,
        10.0,
        f"dX {worst_x:.1e}<=1e-9, dY {worst_y:.1e}<=1e-9, grad {worst_beta:.1e}<=1e-10, euler {worst_euler:.1e}<=1e-9",
    )


def test_criterion_06_spray_equivalence(spaces, structures):
    started = time.perf_counter()
    worst = 0.0
    for name in catalog.NAMES:
        sp = spaces[name]
        F = structures[name]
        for x, v in probe_pairs(sp.chart, 100):
            closed = PointData(sp, x).spray(v)[0]
            generic = [standard_part(c) for c in spray(F, x, v)]
            denom = 1.0 + max(abs(c) for c in generic)
            worst = max(
                worst, max(abs(a - b) for a, b in zip(closed, generic)) / denom
            )
    elapsed = time.perf_counter() - started
    report(
        6,
        "closed-form spray equals the jet-derived spray",
        worst <= 1e-8,
        elapsed,
        5.0,
        f"max relative difference {worst:.2e} <= 1e-8 at 100 probes x 6 spaces",
    )


def test_criterion_07_bh_cross_check(spaces):
    started = time.perf_counter()
    targets = {
        "flat-const": ((0.0, 0.0), 0.6495190528),
        "flat-nonkilling": ((0.5, 0.0), 0.96**1.5),
    }
    ok = True
    details = []
    for name, (x, target) in targets.items():
        sp = spaces[name]
        closed = float(bh_density_closed_form(sp, x))
        ok = ok and abs(closed - target) <= 1e-9
        estimate, std_error = bh_density_monte_carlo(sp, x, 1_000_000, MC_SEED)
        gate = max(0.01 * closed, 3.0 * std_error)
        ok = ok and abs(estimate - closed) <= gate
        details.append(f"{name}: closed {closed:.6f}, MC {estimate:.6f} +- {std_error:.1e}")
    elapsed = time.perf_counter() - started
    report(
        7,
        "Monte-Carlo BH density confirms the closed form",
        ok,
        elapsed,
        15.0,
        "; ".join(details) + f" (seed {MC_SEED}, 1e6 samples)",
    )


def test_criterion_08_measure_laws(spaces, structures):
    started = time.perf_counter()
    sp = spaces["flat-nonkilling"]
    F = structures["flat-nonkilling"]
    bh = busemann_hausdorff_measure(sp)
    scaled = Measure("custom", lambda x: 2.7 * bh.density(x))
    from finslerlab.jets import exp as jet_exp

    shifted = Measure("custom", lambda x: jet_exp(x[0]) * bh.density(x))
    worst_scale = worst_shift = 0.0
    for x, v in probe_pairs(sp.chart, 25):
        s0 = s_curvature(F, bh, x, v)
        worst_scale = max(worst_scale, abs(s_curvature(F, scaled, x, v) - s0))
        worst_shift = max(
            worst_shift, abs(s_curvature(F, shifted, x, v) - (s0 - v[0]))
        )
    # Two measures with S = 0 on every probe have proportional densities.
    sp_c = spaces["flat-const"]
    F_c = structures["flat-const"]
    bh_c = busemann_hausdorff_measure(sp_c)
    second = Measure("custom", lambda x: 2.0 * bh_c.density(x))
    pairs = probe_pairs(sp_c.chart, 25)
    both = all(
        abs(s_curvature(F_c, m, x, v)) <= 1e-8 for x, v in pairs for m in (bh_c, second)
    )
    ratios = [
        standard_part(bh_c.density(list(x))) / standard_part(second.density(list(x)))
        for x, _ in pairs
    ]
    spread = max(ratios) / min(ratios) - 1.0
    ok = worst_scale <= 1e-12 and worst_shift <= 1e-10 and both and spread <= 1e-10
    elapsed = time.perf_counter() - started
    report(
        8,
        "measure scale/shift laws and vanishing-measure uniqueness",
        ok,
        elapsed,
        2.0,
        f"scale {worst_scale:.1e}<=1e-12, shift {worst_shift:.1e}<=1e-10, spread {spread:.1e}<=1e-10",
    )


def test_criterion_09_homogeneity_suite(spaces, structures):
    started = time.perf_counter()
    per_space = max(1, 100 // len(catalog.NAMES) + 1)
    budgeted = []
    for name in catalog.NAMES:
        sp = spaces[name]
        for x, v in probe_pairs(sp.chart, per_space):
            budgeted.append((name, x, v))
    budgeted = budgeted[:100]
    worst_f = worst_g = worst_s = worst_spray = 0.0
    for name, x, v in budgeted:
        sp = spaces[name]
        F = structures[name]
        n = sp.dimension
        measure = busemann_hausdorff_measure(sp)
        fv = F(x, v)
        for c in (0.5, 2.0, 3.0):
            worst_f = max(worst_f, abs(F(x, [c * q for q in v]) - c * fv) / fv)
        g1 = fundamental_tensor(F, x, v)
        g2 = fundamental_tensor(F, x, [2.0 * q for q in v])
        worst_g = max(
            worst_g,
            max(abs(g1[i][j] - g2[i][j]) for i in range(n) for j in range(n)),
        )
        s0 = s_curvature(F, measure, x, v)
        for c in (0.5, 2.0):
            sc = s_curvature(F, measure, x, [c * q for q in v])
            worst_s = max(worst_s, abs(sc - c * s0) / (1.0 + abs(s0)))
        G1 = [standard_part(q) for q in spray(F, x, v)]
        G2 = [standard_part(q) for q in spray(F, x, [2.0 * q for q in v])]
        worst_spray = max(
            worst_spray,
            max(abs(b - 4.0 * a) for a, b in zip(G1, G2)) / (1.0 + max(map(abs, G1))),
        )
    ok = (
        worst_f <= 1e-10
        and worst_g <= 1e-10
        and worst_s <= 1e-9
        and worst_spray <= 1e-9
    )
    elapsed = time.perf_counter() - started
    report(
        9,
        "homogeneity: F(cv)=cF, g_cv=g_v, S(cv)=cS, G(cv)=c^2 G",
        ok,
        elapsed,
        5.0,
        f"F {worst_f:.1e}, g {worst_g:.1e}, S {worst_s:.1e}, G {worst_spray:.1e} at 100 probes",
    )


def test_criterion_10_geodesic_integrator(spaces, structures):
    started = time.perf_counter()
    worst_drift = 0.0
    for name in catalog.NAMES:
        sp = spaces[name]
        F = structures[name]
        x0 = tuple(0.5 * (lo + hi) for lo, hi in sp.chart.bounds)
        u = probe_pairs(sp.chart, 1)[0][1]
        f0 = F(list(x0), list(u))
        v0 = tuple(0.4 * c / f0 for c in u)
        path = geodesic(F, x0, v0, 1.0, steps=1000)
        speeds = [F(list(x), list(v)) for x, v in zip(path.points, path.velocities)]
        worst_drift = max(worst_drift, max(abs(s - speeds[0]) for s in speeds))

    F = structures["polar-riemannian"]
    x0, v0 = (1.25, 3.0), (0.3, 0.4)
    reference = geodesic(F, x0, v0, 1.0, steps=1600).points[-1]

    def endpoint_error(steps):
        end = geodesic(F, x0, v0, 1.0, steps=steps).points[-1]
        return math.hypot(end[0] - reference[0], end[1] - reference[1])

    e1, e2, e3 = endpoint_error(25), endpoint_error(50), endpoint_error(100)
    r1, r2 = e1 / e2, e2 / e3
    ok = worst_drift <= 1e-8 and 10.0 <= r1 <= 26.0 and 10.0 <= r2 <= 26.0
    elapsed = time.perf_counter() - started
    report(
        10,
        "RK4 conserves F and shows fourth-order step convergence",
        ok,
        elapsed,
        5.0,
        f"max speed drift {worst_drift:.1e} <= 1e-8; halving ratios {r1:.1f}, {r2:.1f} (expect ~16)",
    )
