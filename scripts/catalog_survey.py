#!/usr/bin/env python3
"""Survey the built-in catalog: verdicts, defects, and S-curvature floors.

Prints one row per space: does it admit a measure with vanishing
S-curvature, why/why not, how large |S| gets for each built-in measure
over a probe set, and how large the even part E = S(v) + S(-v) gets.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finslerlab import catalog, randers, scurvature
from finslerlab.core import nonlinear_connection, probe_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = (
        f"{'space':20s} {'admits':6s} {'reason':20s} {'killing':>9s} "
        f"{'parallel':>9s} {'len spread':>10s} {'max|S| leb':>11s} "
        f"{'max|S| vol':>11s} {'max|S| BH':>11s} {'max|E|':>11s}"
    )
    print(header)
    print("-" * len(header))
    for name in catalog.NAMES:
        sp = catalog.space(name)
        pairs, points = probe_grid(sp.chart, args.probes, args.seed)
        verdict = randers.theorem_verdict(sp, points)
        an = verdict.analysis
        F = randers.finsler(sp)
        connections = [nonlinear_connection(F, x, v) for x, v in pairs]  # one N per pair
        peaks = []
        for measure in (
            scurvature.lebesgue_measure(),
            scurvature.riemannian_volume_measure(sp),
            scurvature.busemann_hausdorff_measure(sp),
        ):
            peaks.append(
                max(
                    abs(scurvature.s_curvature_from(N, measure, x, v))
                    for N, (x, v) in zip(connections, pairs)
                )
            )
        evens = []  # E from the closed-form Y trace at v and at -v
        for x, v in pairs:
            data = randers.PointData(sp, x)
            evens.append(
                0.5 * (data.trace_dY_closed_form(v) + data.trace_dY_closed_form([-c for c in v]))
            )
        print(
            f"{name:20s} {str(verdict.admits):6s} {verdict.reason:20s} "
            f"{an.killing_defect_sup:9.2e} {an.parallel_defect_sup:9.2e} "
            f"{an.length_max - an.length_min:10.2e} "
            f"{peaks[0]:11.3e} {peaks[1]:11.3e} {peaks[2]:11.3e} {max(map(abs, evens)):11.3e}"
        )
    print()
    print("admits = true rows have max|S| ~ 1e-15 for the BH measure.")
    print("E = S(v) + S(-v) is the certificate: a density adds to S a term odd in v,")
    print("so E is the same for every measure, and where E is not 0 no measure has")
    print("S = 0.  admits = false rows read max|E| >= 0.05 (last column).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
