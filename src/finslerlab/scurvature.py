"""Measures and the S-curvature.

The primary computation is the trace formula

    S(v) = sum_i { N^i_i(v) - v^i * dlog(sigma)/dx^i },

with the nonlinear connection from the generic tensor calculus and a
jet-evaluable measure density sigma.  The transport-based definition
(the t-derivative of log(sqrt(det g) / sigma) along the unit-speed
geodesic) is implemented independently and serves as the oracle; a
batch of oracle probes integrates all its geodesics as one RK4 run.

The Busemann-Hausdorff density is available in closed form (Randers) and
as a Monte-Carlo unit-ball volume estimate; the Monte-Carlo estimate is
never differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr, jets, randers
from .core import (
    FinslerStructure,
    fundamental_tensor,
    geodesic,
    geodesic_batch,
    nonlinear_connection,
)
from .jets import _leaves, partial, seed_group, standard_part
from .linalg import det
from .randers import RandersSpace

__all__ = [
    "Measure",
    "MeasureUniquenessError",
    "MEASURE_KINDS",
    "lebesgue_measure",
    "riemannian_volume_measure",
    "busemann_hausdorff_measure",
    "custom_measure",
    "measure_from_kind",
    "riemannian_volume_density",
    "unit_ball_volume",
    "bh_density_monte_carlo",
    "s_curvature",
    "s_curvature_from",
    "s_curvature_transport",
    "s_curvature_transport_batch",
    "measure_uniqueness_check",
]

MEASURE_KINDS = ("lebesgue", "riemannian-volume", "busemann-hausdorff", "custom")


class MeasureUniquenessError(RuntimeError):
    """Two vanishing-S measures whose densities were not proportional."""


@dataclass(frozen=True)
class Measure:
    """Positive density sigma(x) relative to the coordinate volume dx."""

    kind: str
    density: Callable  # (x scalars) -> scalar, jet-evaluable

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"measure kind must be one of {MEASURE_KINDS}")


def lebesgue_measure() -> Measure:
    return Measure("lebesgue", lambda x: 1.0)


def riemannian_volume_measure(space: RandersSpace) -> Measure:
    return Measure("riemannian-volume", lambda x: _sqrt_det_a(space, x))


def busemann_hausdorff_measure(space: RandersSpace) -> Measure:
    return Measure(
        "busemann-hausdorff", lambda x: randers.bh_density_closed_form(space, x)
    )


def custom_measure(field: expr.ScalarField, coordinate_names: Sequence[str]) -> Measure:
    names = tuple(coordinate_names)
    return Measure("custom", lambda x: expr.evaluate(field, dict(zip(names, x))))


def measure_from_kind(
    space: RandersSpace, kind: str, density_field: Optional[expr.ScalarField] = None
) -> Measure:
    if kind == "lebesgue":
        return lebesgue_measure()
    if kind == "riemannian-volume":
        return riemannian_volume_measure(space)
    if kind == "busemann-hausdorff":
        return busemann_hausdorff_measure(space)
    if kind == "custom":
        if density_field is None:
            raise ValueError("custom measure needs a density expression")
        return custom_measure(density_field, space.chart.names)
    raise ValueError(f"unknown measure kind '{kind}'")


def _sqrt_det_a(space: RandersSpace, x):
    return jets.sqrt(det(randers.a_at(space, x)))


def riemannian_volume_density(space: RandersSpace, x) -> float:
    """sqrt(det a_ij(x)) > 0 (the volume density of the alpha-metric)."""
    d = standard_part(det(randers.a_at(space, x)))
    if d <= 0.0:
        raise randers.InvalidSpaceError(f"det a = {d} <= 0 at x = {tuple(x)}")
    return math.sqrt(d)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# -- S-curvature ----------------------------------------------------------------


def s_curvature(F: FinslerStructure, measure: Measure, x, v) -> float:
    """Trace formula S(v) = sum_i { N^i_i - v^i dlog(sigma)/dx^i }; S(0) = 0."""
    if all(float(c) == 0.0 for c in v):
        return 0.0
    return s_curvature_from(nonlinear_connection(F, x, v), measure, x, v)


def s_curvature_from(N, measure: Measure, x, v) -> float:
    """The trace formula given the nonlinear connection N = N(x, v).

    N depends on F alone, so callers that read several measures at one
    (x, v) compute it once and pass it to each.  Generic over leaves: on
    1-D array leaves (one lane per pair) every lane is the float value of
    its pair, and the density must be positive in every lane.
    """
    n = len(N)
    trace = sum(N[i][i] for i in range(n))
    xs = seed_group(_leaves(x), range(n))
    sigma = measure.density(xs)
    sigma_val = standard_part(sigma)
    lowest = sigma_val.min() if isinstance(sigma_val, np.ndarray) else sigma_val
    if not lowest > 0.0:
        raise ValueError(f"measure density {sigma_val} is not positive at x = {tuple(x)}")
    dlog = [standard_part(partial(sigma, i)) / sigma_val for i in range(n)]
    v = _leaves(v)
    return trace - sum(v[i] * dlog[i] for i in range(n))


def _log_ratio(F: FinslerStructure, measure: Measure, x, u):
    """log( sqrt(det g_u) / sigma ) at a path state (x, u), or in every
    lane of a batch of states over array leaves."""
    g = fundamental_tensor(F, x, u)
    d = standard_part(det(g))
    sigma = standard_part(measure.density(list(x)))
    return 0.5 * jets.log(d) - jets.log(sigma)


def s_curvature_transport(
    F: FinslerStructure,
    measure: Measure,
    x,
    v,
    h: float = 1e-3,
    steps: int = 100,
    richardson: bool = True,
) -> float:
    """Transport-definition oracle for the S-curvature at one (x, v).

    Normalizes v to unit F-speed, integrates the geodesic to +-h on float
    leaves, central-differences log(sqrt(det g)/sigma) and rescales by
    F(v) (S is positively 1-homogeneous).  With richardson=True the h and
    h/2 differences are combined for fourth-order accuracy.  Raises what
    geodesic raises when a path leaves the chart or blows up.
    """
    if steps % 2:
        steps += 1
    fval, unit = _unit_start(F, x, v)
    forward = geodesic(F, x, unit, h, steps)
    backward = geodesic(F, x, unit, -h, steps)
    phis = [
        _log_ratio(F, measure, *path.state(index))
        for index in _end_indices(steps, richardson)
        for path in (forward, backward)
    ]
    return _central_difference(fval, phis, h, richardson)


def s_curvature_transport_batch(
    F: FinslerStructure,
    measure: Measure,
    xs: Sequence,
    vs: Sequence,
    h: float = 1e-3,
    steps: int = 100,
    richardson: bool = True,
) -> list[float]:
    """The transport oracle at every (xs[k], vs[k]), in input order.

    With two or more probes, the forward and backward geodesics of all
    of them advance in lock-step as one geodesic_batch run over array
    leaves, so each RK4 stage evaluates the spray once for the batch
    (F.fast_spray must accept array leaves, as the Randers closed form
    does).  The end states the central differences read, 2 or 4 per
    probe, are then evaluated in one pass over array leaves
    (jets.lanewise, one lane per state): one fundamental_tensor, det and
    density evaluation for all of them.  The values equal those of one
    s_curvature_transport call per probe bit for bit: each array lane
    computes what the float path computes.  One probe, or a batch whose
    geodesics fail anywhere, is computed by exactly that loop of calls,
    so a failure raises what the first failing call raises; end states
    whose pass fails are evaluated one by one on floats in the order the
    loop reads them.
    """
    if steps % 2:
        steps += 1
    run = None
    if len(xs) >= 2:
        try:
            starts = [_unit_start(F, x, v) for x, v in zip(xs, vs)]
        except (ArithmeticError, ValueError):
            pass
        else:  # trajectory 2k is probe k forward, 2k + 1 backward
            run = geodesic_batch(
                F,
                [x for x in xs for _ in (0, 1)],
                [unit for _, unit in starts for _ in (0, 1)],
                [h, -h] * len(starts),
                steps,
            )
    if run is None:
        return [
            s_curvature_transport(F, measure, x, v, h, steps, richardson)
            for x, v in zip(xs, vs)
        ]

    n = F.chart.dimension
    indices = _end_indices(steps, richardson)
    rows = {}  # step index -> one (*x, *u) row per trajectory
    for index in indices:
        leaves = (*run.points[index], *run.velocities[index])
        rows[index] = list(zip(*[c.tolist() for c in leaves]))
    # Probe k reads trajectories 2k (forward) and 2k + 1 (backward).
    states = [rows[i][2 * k + back] for k in range(len(starts)) for i in indices for back in (0, 1)]
    phis = jets.lanewise(lambda p: _log_ratio(F, measure, p[:n], p[n:]), states)
    per_probe = 2 * len(indices)
    return [
        _central_difference(fval, phis[k * per_probe : (k + 1) * per_probe], h, richardson)
        for k, (fval, _) in enumerate(starts)
    ]


def _end_indices(steps, richardson) -> tuple:
    """The step indices whose states _central_difference reads, forward
    then backward at each: the path end, then (Richardson) its midpoint."""
    return (steps, steps // 2) if richardson else (steps,)


def _central_difference(fval, phis, h, richardson) -> float:
    """F(v) times the central difference of log(sqrt(det g)/sigma), from
    its values phis at the _end_indices states (forward, backward, ...)."""
    d_full = (phis[0] - phis[1]) / (2.0 * h)
    if not richardson:
        return fval * d_full
    d_half = (phis[2] - phis[3]) / h
    return fval * (4.0 * d_half - d_full) / 3.0


def _unit_start(F: FinslerStructure, x, v) -> tuple[float, list[float]]:
    """(F(x, v), v / F(x, v)) for the transport oracle."""
    fval = float(standard_part(F(list(x), list(v))))
    if not (0.0 < fval < math.inf):  # NaN fails too
        raise ValueError(f"transport oracle needs a finite F(v) > 0, got {fval}")
    return fval, [float(c) / fval for c in v]


# -- Busemann-Hausdorff density by Monte Carlo -----------------------------------

# Rows per Monte-Carlo draw; the hit counts of the chunks are summed.
MC_CHUNK_ROWS = 65_536


def bh_density_monte_carlo(
    space: RandersSpace, x, sample_count: int, rng_seed: int
) -> tuple[float, float]:
    """(sigma_BH estimate, standard error) via unit-ball volume sampling.

    The F-unit ball satisfies alpha(v) < 1/(1 - ||beta||), so the sampling
    box is that ellipsoid's bounding box in the a(x)-eigenbasis.  The RNG
    is counter-based (numpy Philox keyed with the 64-bit seed), which
    makes estimates bit-reproducible for a fixed seed.  Samples are drawn
    MC_CHUNK_ROWS rows at a time from the one stream, so memory stays
    bounded whatever the sample count.
    """
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 10^4")
    n = space.dimension
    a = np.array([[standard_part(e) for e in row] for row in randers.a_at(space, x)])
    b = np.array([standard_part(c) for c in randers.b_at(space, x)])
    lam, q = np.linalg.eigh(a)
    if lam[0] <= 0.0:
        raise randers.InvalidSpaceError(f"metric not positive definite at x = {tuple(x)}")
    blen = randers.beta_length(space, x)
    if blen >= 1.0:
        raise randers.InvalidSpaceError(
            f"degenerate bounding box: ||beta|| = {blen:.6g} >= 1 at x = {tuple(x)}"
        )
    radius = 1.0 / (1.0 - blen)
    half_width = radius / np.sqrt(lam)
    box_volume = float(np.prod(2.0 * half_width))

    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    b_eigen = q.T @ b
    hits = 0
    for start in range(0, sample_count, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, sample_count - start)
        y = rng.uniform(-half_width, half_width, size=(rows, n))
        hits += int(np.count_nonzero(np.sqrt((y * y) @ lam) + y @ b_eigen < 1.0))
    p = hits / sample_count
    if p == 0.0:
        raise randers.InvalidSpaceError("unit ball missed entirely; degenerate data")
    ball_volume = box_volume * p
    se_volume = box_volume * math.sqrt(p * (1.0 - p) / sample_count)
    omega = unit_ball_volume(n)
    estimate = omega / ball_volume
    std_error = omega * se_volume / (ball_volume * ball_volume)
    return estimate, std_error


# -- measure uniqueness -----------------------------------------------------------


def measure_uniqueness_check(
    space: RandersSpace,
    measure1: Measure,
    measure2: Measure,
    probes: Sequence,
    tol: float,
) -> tuple[bool, float]:
    """(both_vanishing, density ratio spread max/min - 1) over (x, v) probes.

    When both measures have |S| <= tol everywhere probed, their densities
    must be proportional (spread <= 10*tol); a violation raises, since it
    would contradict the uniqueness of the vanishing-S measure.
    """
    F = randers.finsler(space)
    max1 = 0.0
    max2 = 0.0
    for x, v in probes:
        if all(float(c) == 0.0 for c in v):
            continue  # S(0) = 0 under every measure
        N = nonlinear_connection(F, x, v)
        max1 = max(max1, abs(s_curvature_from(N, measure1, x, v)))
        max2 = max(max2, abs(s_curvature_from(N, measure2, x, v)))
    both = max1 <= tol and max2 <= tol
    ratios = [
        standard_part(measure1.density(list(x)))
        / standard_part(measure2.density(list(x)))
        for x, _ in probes
    ]
    spread = max(ratios) / min(ratios) - 1.0
    if both and spread > 10.0 * tol:
        raise MeasureUniquenessError(
            f"both measures have |S| <= {tol} but density ratio spread is {spread:.3e}"
        )
    return both, spread
