#!/usr/bin/env python3
"""RK4 order study for the geodesic integrator, and the transport
oracle's step ladder.

Integrates one geodesic at a ladder of step counts and prints endpoint
errors against a fine reference run; consecutive ratios near 16 confirm
fourth-order convergence.  Also reports the F-speed drift, a first
integral of the flow.

Then runs the S-curvature transport oracle (h = 1e-3, Richardson) at 50
probes and at a ladder of RK4 step counts, on every catalog space and on
the specgen family grid (every family and dimension the benchmark draws
from, at seed 7: perfbench/specgen.py, tag "verdict"), and prints the
worst |S_formula - S_transport| per space and count.  The gap stays at
the central difference's rounding floor down to 2 steps.  Exits 1 if the
worst gap at scurvature.TRANSPORT_STEPS, the count `validate` and
`s-curvature --oracle` run, exceeds 1e-9 on any of these spaces.
"""

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import specgen  # noqa: E402
from finslerlab import catalog, manifest, randers, scurvature  # noqa: E402
from finslerlab.core import geodesic, probe_pairs  # noqa: E402

TRANSPORT_LADDER = (100, 20, 10, 4, 2)
TRANSPORT_PROBES = 50
TRANSPORT_GATE = 1e-9
# The seed of the specgen family grid in the transport ladder.
GRID_SEED = 7


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", default="polar-riemannian", choices=catalog.NAMES)
    parser.add_argument("--time", type=float, default=1.0)
    parser.add_argument("--reference-steps", type=int, default=3200)
    args = parser.parse_args()

    sp = catalog.space(args.space)
    F = randers.finsler(sp)
    x0 = tuple(0.5 * (lo + hi) for lo, hi in sp.chart.bounds)
    v_raw = tuple(0.3 + 0.1 * i for i in range(sp.dimension))
    f0 = F(list(x0), list(v_raw))
    v0 = tuple(0.4 * c / f0 for c in v_raw)

    reference = geodesic(F, x0, v0, args.time, steps=args.reference_steps)
    ref_end = reference.points[-1]
    print(f"space {args.space}, x0 = {x0}, F-speed 0.4, T = {args.time}")
    print(f"{'steps':>7s} {'endpoint error':>16s} {'ratio':>8s} {'speed drift':>12s}")
    previous = None
    for steps in (25, 50, 100, 200, 400):
        path = geodesic(F, x0, v0, args.time, steps=steps)
        end = path.points[-1]
        err = math.sqrt(sum((a - b) ** 2 for a, b in zip(end, ref_end)))
        speeds = [F(list(x), list(v)) for x, v in zip(path.points, path.velocities)]
        drift = max(abs(s - speeds[0]) for s in speeds)
        ratio = f"{previous / err:8.1f}" if previous else f"{'-':>8s}"
        print(f"{steps:7d} {err:16.3e} {ratio} {drift:12.2e}")
        previous = err
    print()
    return transport_ladder()


def ladder_spaces() -> list:
    """(name, space) of the catalog, then of the specgen family grid."""
    grid = specgen.generate_set(GRID_SEED, specgen.family_grid(), "verdict")
    return [(name, catalog.space(name)) for name in catalog.NAMES] + [
        (spec["name"], manifest.space_from_spec(spec)) for spec in grid
    ]


def transport_ladder() -> int:
    """Worst formula-vs-transport gap per space and step count; 1 if the
    worst at TRANSPORT_STEPS exceeds TRANSPORT_GATE."""
    ladder = sorted({*TRANSPORT_LADDER, scurvature.TRANSPORT_STEPS}, reverse=True)
    print(
        f"transport oracle, h = 1e-3, Richardson, {TRANSPORT_PROBES} probes per space: "
        "worst |S_formula - S_transport|"
    )
    print(f"{'space':34s} {'n':>2s} " + " ".join(f"{k:>8d}" for k in ladder))
    worst = dict.fromkeys(ladder, 0.0)
    for name, sp in ladder_spaces():
        F = randers.finsler(sp)
        bh = scurvature.busemann_hausdorff_measure(sp)
        pairs = probe_pairs(sp.chart, TRANSPORT_PROBES)
        xs, vs = [x for x, _ in pairs], [v for _, v in pairs]
        formula = [scurvature.s_curvature(F, bh, x, v) for x, v in pairs]
        row = []
        for steps in ladder:
            transport = scurvature.s_curvature_transport_batch(F, bh, xs, vs, steps=steps)
            gap = max(abs(a - b) for a, b in zip(formula, transport))
            worst[steps] = max(worst[steps], gap)
            row.append(gap)
        print(f"{name:34s} {sp.dimension:2d} " + " ".join(f"{g:8.1e}" for g in row))
    print(f"{'worst':34s} {'':2s} " + " ".join(f"{worst[k]:8.1e}" for k in ladder))
    gap = worst[scurvature.TRANSPORT_STEPS]
    if not gap <= TRANSPORT_GATE:
        print(
            f"FAIL: worst gap {gap:.3e} at TRANSPORT_STEPS = {scurvature.TRANSPORT_STEPS} "
            f"exceeds {TRANSPORT_GATE:g}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
