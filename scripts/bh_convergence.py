#!/usr/bin/env python3
"""Monte-Carlo Busemann-Hausdorff density vs the closed form.

Sweeps the sample count and prints the estimate, the binomial standard
error, and the true error against the closed-form density, showing the
expected 1/sqrt(N) decay.  Each row is held to the agreement gate of
`finslerlab bh`, scurvature.bh_agreement_gate: max(1% of the closed
form, 3 standard errors); the script exits 1 if any row misses it.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finslerlab import catalog, randers, scurvature


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--space", default="flat-const", choices=catalog.NAMES)
    parser.add_argument("--point", default=None, help="comma-separated, default: domain center")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--max-exponent", type=int, default=7, help="largest 10^k sample count")
    args = parser.parse_args()

    sp = catalog.space(args.space)
    if args.point:
        x = tuple(float(c) for c in args.point.split(","))
    else:
        x = tuple(0.5 * (lo + hi) for lo, hi in sp.chart.bounds)
    closed = float(randers.bh_density_closed_form(sp, x))
    print(f"space {args.space} at x = {x}: closed-form density = {closed:.10f}")
    print(f"{'samples':>10s} {'estimate':>14s} {'std error':>12s} {'true error':>12s} {'gate':>10s}")
    missed = 0
    for k in range(4, args.max_exponent + 1):
        n = 10**k
        estimate, std_error = scurvature.bh_density_monte_carlo(sp, x, n, args.seed)
        error = abs(estimate - closed)
        gate = scurvature.bh_agreement_gate(closed, std_error)
        missed += error > gate
        print(f"{n:10d} {estimate:14.8f} {std_error:12.2e} {error:12.2e} {gate:10.2e}"
              f"{'' if error <= gate else '  MISSED'}")
    if missed:
        print(f"{missed} row(s) missed the agreement gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
