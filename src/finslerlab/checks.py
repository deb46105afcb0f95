"""Probe-based invariant battery for a Randers space.

One CheckResult per identity: homogeneity of F, g and S, the
positive-definiteness and Euler contractions, the rewrite/definitional
agreement of the nonlinear connection (N = (1/2) dG/dv of the Lagrangian
spray against N from gamma and A: the two share only g and g^-1), the
one-form identities behind the X/Y spray split, formula-vs-transport
S-curvature, measure scale and shift laws, Monte-Carlo vs closed-form
Busemann-Hausdorff density, and the end-to-end verdict coherence.  The `validate` CLI command prints one
line per entry; the test suite asserts them at the same tolerances.

Every (x, v) quantity comes from one jets.lanewise pass: one lane per
probe pair, then (x, 3v) and (x, v/3) for the first 20 pairs, whose own
N gives the S that s-homogeneity compares.  The factors are not powers
of two, which every float operation would scale exactly: S(cv) and g at
3v then read their rounding, so a wrong N would show.  Each lane
evaluates F^2/2 once for PairTensors and sigma_BH once for S under it
and its scaled and shifted laws, which are read at every pair.  A
refused verdict reads E = S(x, v) + S(x, -v), half the closed-form Y
trace at v and -v: S's density term is odd in v, so no measure moves E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets, randers, scurvature
from .core import DomainExitError, PairTensors, euler_identity_residual
from .core import fundamental_tensor
from .expr import ExprError
from .jets import _leaves, partial, seed_group, standard_part
from .jets import exp as jet_exp
from .linalg import _stacked
from .randers import RandersSpace

__all__ = ["CheckResult", "TransportDomainError", "run_checks"]

# Seed of the Monte-Carlo Busemann-Hausdorff density check.
MC_SEED = 20240


class TransportDomainError(ArithmeticError):
    """The transport oracle raised a ValueError other than DomainExitError
    or ExprError, which is the __cause__: typically math leaving its domain
    at an RK4 stage point, just past the chart, where the metric stops
    being positive definite."""


@dataclass
class CheckResult:
    name: str
    observed: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        text = f"{status} {self.name}: observed {self.observed:.3e} vs tolerance {self.tolerance:.3e}"
        return text + (f" ({self.note})" if self.note else "")


def _result(name, observed, tolerance, note="") -> CheckResult:
    return CheckResult(name, float(observed), float(tolerance), float(observed) <= float(tolerance), note=note)


def run_checks(
    space: RandersSpace,
    pairs: list,
    analysis: randers.BetaAnalysis,
    transport_probes: int = 50,
    mc_samples: int = 1_000_000,
    tol_killing: float = 1e-9,
    tol_length: float = 1e-8,
    tol_s: float = 1e-8,
) -> list[CheckResult]:
    """The battery on one probe grid: (pairs, points) = core.probe_grid and
    analysis = randers.validate_space(space, points), as
    manifest.probed_space returns them."""
    F = randers.finsler(space)
    n = space.dimension
    results: list[CheckResult] = []
    verdict = randers.decide(analysis, tol_killing, tol_length)

    # S under Busemann-Hausdorff and its scale and shift laws: one sigma_BH jet per lane.
    bh = scurvature.busemann_hausdorff_measure(space)

    # Each loop over the probes is one jets.lanewise pass: a function of
    # one probe's values, evaluated once over array leaves with one lane
    # per probe.  The folds below take each sup in the per-pair order.
    def pair_row(p):  # p = (*x, *v) of one lane
        x, v = p[:n], p[n:]
        t = PairTensors(F, x, v)  # F, g, A, N, G for every check below
        fv = t.f
        homog = [abs(F(x, [c * vi for vi in v]) - c * fv) / fv for c in (0.5, 2.0, 3.0)]
        quad = sum(t.g[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        g3 = fundamental_tensor(F, x, [3.0 * vi for vi in v])
        Nd = t.definitional_N()
        data = randers.PointData(space, x)  # the closed forms for the spray and both traces
        closed = data.spray(v)[0]
        denom = 1.0 + jets.maximum([abs(c) for c in t.G])
        dx, dy = data.traces(v)
        trace_y = data.trace_dY_closed_form(v)
        row = [
            fv,
            homog,
            abs(quad - fv * fv) / (fv * fv),
            jets.maximum([abs(g3[i][j] - t.g[i][j]) for i in range(n) for j in range(n)]),
            np.linalg.eigvalsh(_stacked(t.g)).min(axis=-1),
            jets.maximum(
                [abs(sum(t.A[i][j][k] * v[k] for k in range(n))) for i in range(n) for j in range(n)]
            ),
            jets.maximum([abs(t.N[i][j] - Nd[i][j]) for i in range(n) for j in range(n)]),
            euler_identity_residual(F, x, v),
            jets.maximum([abs(a - b) for a, b in zip(closed, t.G)]) / denom,
            abs(dx),
            abs(dy - trace_y),
        ]
        xs = seed_group(_leaves(x), range(n))  # x seeded once for every density
        sigma = bh.density(xs)
        laws = (sigma, 2.7 * sigma, jet_exp(xs[0]) * sigma)
        return row + [
            [scurvature._trace_formula(t.N, d, x, v) for d in laws],
            abs(0.5 * (trace_y + data.trace_dY_closed_form([-vi for vi in v]))),  # |E(x, v)|
        ]

    # The pass runs one lane per pair, then one per (pair, c) of the
    # homogeneity subset with v scaled by c: S at cv from that lane's own N.
    # Each column holds a value per lane, the pairs' first: the subset
    # lanes' other values are computed and not read.
    subset = pairs[:20]
    cs = (3.0, 1.0 / 3.0)
    m = len(pairs)
    lanes = [(*x, *v) for x, v in pairs] + [(*x, *[c * vi for vi in v]) for x, v in subset for c in cs]
    (fvs, homogs, gvvs, g_homogs, eigs, cartans, rewrites, eulers, sprays, traces_x, traces_y,
     s_laws, evens) = jets.lanewise(pair_row, lanes) if lanes else [[], [[]] * 3, *[[]] * 9, [[]] * 3, []]
    s_bh, scaled, shifted = (col[:m] for col in s_laws)  # S under sigma_BH and its two laws
    s_cv = s_laws[0][m:]  # S_BH of each subset lane
    min_f = min([math.inf, *fvs[:m]])
    homog = max([0.0, *(h for col in homogs for h in col[:m])])
    gvv = max([0.0, *gvvs[:m]])
    g_homog = max([0.0, *g_homogs[:m]])
    min_eig = min([math.inf, *eigs[:m]])
    cartan_defect = max([0.0, *cartans[:m]])
    n_rewrite = max([0.0, *rewrites[:m]])
    euler = max([0.0, *eulers[:m]])
    results.append(
        CheckResult("finsler-positivity", min_f, 0.0, min_f > 0.0, note="min F over probes; must stay positive")
    )
    results.append(_result("finsler-homogeneity", homog, 1e-10, "relative, c in {0.5, 2, 3}"))
    results.append(_result("metric-recovers-F-squared", gvv, 1e-10, "relative"))
    results.append(
        CheckResult("metric-positive-definite", min_eig, 0.0, min_eig > 0.0, note="min eigenvalue of g over probes")
    )
    results.append(_result("metric-zero-homogeneity", g_homog, 1e-10, "g at 3v vs v"))
    results.append(_result("cartan-euler-contraction", cartan_defect, 1e-10, "sum_k A_ijk v^k"))
    results.append(_result("connection-rewrite-vs-definitional", n_rewrite, 1e-8))
    results.append(_result("euler-v-over-F", euler, 1e-9, "(n-1)/F identity"))

    # One-form identities.
    def gradient_gap(p):  # p = (*x, *d(||beta||^2)/dx by the covariant path)
        lsq = randers.beta_length_squared(space, seed_group(_leaves(p[:n]), range(n)))
        direct = [standard_part(partial(lsq, i)) for i in range(n)]
        return jets.maximum([abs(a - b) for a, b in zip(p[n:], direct)])

    gradients = zip(*analysis.length_gradients)  # each probe's d(||beta||^2)/dx
    gaps = jets.lanewise(gradient_gap, [(*x, *g) for x, g in zip(analysis.probes, gradients)])
    results.append(_result("length-gradient-two-path", max([0.0, *gaps]), 1e-10))
    results.append(_result("spray-closed-vs-generic", max([0.0, *sprays[:m]]), 1e-8, "relative to 1 + |G|_inf"))
    results.append(_result("trace-dX-vanishes", max([0.0, *traces_x[:m]]), 1e-9))
    results.append(_result("trace-dY-closed-form", max([0.0, *traces_y[:m]]), 1e-9))

    if (
        analysis.killing_defect_sup <= tol_killing
        and analysis.length_gradient_sup <= 1e-10
    ):
        bc, b_up = analysis.covariant, analysis.raised
        skews = (
            abs(sum(terms))  # per probe, summed over j in order
            for i in range(n)
            for terms in zip(*[
                [(p - q) * u for p, q, u in zip(bc[i][j], bc[j][i], b_up[j])] for j in range(n)
            ])
        )
        worst = max([0.0, *skews])
        results.append(
            _result("killing-skew-contraction", worst, 1e-9, "sum_j (b_i|j - b_j|i) b^j")
        )
    else:
        results.append(
            CheckResult(
                "killing-skew-contraction", 0.0, 1e-9, True, skipped=True,
                note="only meaningful for Killing forms of constant length",
            )
        )

    tight = randers.decide(analysis, tol_killing * 0.1, tol_length * 0.1)
    mono_ok = not (tight.admits and not verdict.admits)
    results.append(
        CheckResult(
            "verdict-monotonicity", 0.0 if mono_ok else 1.0, 0.0, mono_ok,
            note="tightening tolerances never flips admits to true",
        )
    )

    # S-curvature: formula vs transport, homogeneity, measure laws.
    transport_pairs = pairs[: min(transport_probes, len(pairs))]
    formula = s_bh[: len(transport_pairs)]
    try:
        transport = scurvature.s_curvature_transport_batch(
            F, bh, [x for x, _ in transport_pairs], [v for _, v in transport_pairs], h=1e-3
        )
    except (DomainExitError, ExprError):
        raise  # the chart's edge or an undefined spec expression
    except ValueError as exc:
        raise TransportDomainError(str(exc)) from exc
    if transport_pairs:
        transport_diff = max(abs(sf - st) for sf, st in zip(formula, transport))
        results.append(
            _result("s-formula-vs-transport", transport_diff, 1e-5, "h = 1e-3, Richardson")
        )
    else:
        results.append(
            CheckResult(
                "s-formula-vs-transport", 0.0, 1e-5, True, skipped=True,
                note="no transport probes compared",
            )
        )

    s_homog = scale_diff = shift_diff = 0.0
    for k, s0 in enumerate(s_bh[: len(subset)]):
        for c, sc in zip(cs, s_cv[2 * k : 2 * k + 2]):
            s_homog = max(s_homog, abs(sc - c * s0) / (1.0 + abs(s0)))
    for (_, v), s0, scaled_s, shifted_s in zip(pairs, s_bh, scaled, shifted):
        scale_diff = max(scale_diff, abs(scaled_s - s0))
        shift_diff = max(shift_diff, abs(shifted_s - (s0 - v[0])))
    results.append(_result("s-homogeneity", s_homog, 1e-9, "relative to 1 + |S|"))
    results.append(_result("measure-scale-invariance", scale_diff, 1e-12, "sigma -> 2.7 sigma"))
    results.append(_result("measure-density-shift", shift_diff, 1e-10, "sigma -> exp(x1) sigma shifts S by -v1"))

    midpoint = tuple(0.5 * (lo + hi) for lo, hi in space.chart.bounds)
    closed = float(randers.bh_density_closed_form(space, midpoint))
    mc, se = scurvature.bh_density_monte_carlo(space, midpoint, mc_samples, MC_SEED)
    gate = scurvature.bh_agreement_gate(closed, se)
    results.append(
        _result("bh-monte-carlo-vs-closed", abs(mc - closed), gate,
                f"{mc_samples} samples, seed {MC_SEED}")
    )

    if not pairs:
        results.append(
            CheckResult(
                "theorem-end-to-end", 0.0, tol_s if verdict.admits else 0.05, True, skipped=True,
                note="no probe pairs compared",
            )
        )
    elif verdict.admits:
        max_s_bh = max([0.0, *map(abs, s_bh)])
        results.append(
            _result("theorem-end-to-end", max_s_bh, tol_s, "admits: S vanishes for the BH measure")
        )
    else:
        even = max(evens[:m])
        x, v = (",".join(map(repr, c)) for c in pairs[evens.index(even)])
        results.append(
            CheckResult(
                "theorem-end-to-end", even, 0.05, even >= 0.05,
                note=f"no measure admitted: |S(v) + S(-v)|, the same for every measure, "
                f"peaks at --point={x} --vector={v}",
            )
        )
    return results
