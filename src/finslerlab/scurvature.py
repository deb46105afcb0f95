"""Measures and the S-curvature.

The primary computation is the trace formula

    S(v) = sum_i { N^i_i(v) - v^i * dlog(sigma)/dx^i },

with the nonlinear connection from the generic tensor calculus and a
jet-evaluable measure density sigma.  The transport-based definition
(the t-derivative of log(sqrt(det g) / sigma) along the unit-speed
geodesic) is implemented independently and serves as the oracle; a
batch of oracle probes integrates all its geodesics as one RK4 run over
array leaves.

The Busemann-Hausdorff density is available in closed form (Randers) and
as a Monte-Carlo unit-ball volume estimate; the Monte-Carlo estimate is
never differentiated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr, jets, randers
from .core import FinslerStructure, _every_lane, fundamental_tensor, geodesic, nonlinear_connection
from .jets import _leaves, partial, seed_group, standard_part
from .linalg import det
from .randers import RandersSpace

__all__ = [
    "Measure",
    "MEASURE_KINDS",
    "lebesgue_measure",
    "riemannian_volume_measure",
    "busemann_hausdorff_measure",
    "custom_measure",
    "measure_from_kind",
    "unit_ball_volume",
    "bh_density_monte_carlo",
    "bh_agreement_gate",
    "s_curvature",
    "s_curvature_from",
    "s_curvature_transport",
    "s_curvature_transport_batch",
]

MEASURE_KINDS = ("lebesgue", "riemannian-volume", "busemann-hausdorff", "custom")


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
    return Measure("riemannian-volume", lambda x: jets.sqrt(det(randers.a_at(space, x))))


def busemann_hausdorff_measure(space: RandersSpace) -> Measure:
    return Measure(
        "busemann-hausdorff", lambda x: randers.bh_density_closed_form(space, x)
    )


def custom_measure(field: expr.ScalarField, coordinate_names: Sequence[str]) -> Measure:
    """The density of a parsed expression, compiled once (as expr.evaluate)."""
    density = expr.compile_field(field, coordinate_names)
    return Measure("custom", lambda x: density(tuple(x)))


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


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# -- S-curvature ----------------------------------------------------------------

# RK4 steps per transport-oracle geodesic (validate, s-curvature --oracle).
# At h = 1e-3 the oracle's error is the rounding floor of its central
# difference at every count from 2 to 100, on the catalog and the specgen
# families (scripts/geodesic_convergence.py); RK4's share, C h^4 / steps^4,
# is about 6e-14 C at 2 steps.  Even, so that the Richardson midpoint is a
# step index.
TRANSPORT_STEPS = 2


# The (F, key, N) of the last s_curvature call that computed N, rebound as
# a whole, so a concurrent caller reads a whole entry or none.
_held: Optional[tuple] = None


def s_curvature(F: FinslerStructure, measure: Measure, x, v) -> float:
    """Trace formula S(v) = sum_i { N^i_i - v^i dlog(sigma)/dx^i }; S(0) = 0.

    N depends on F alone, so N is held for the last (F, x, v): calls for
    several measures at one (x, v) compute it once.  F matches by
    identity, each component of x and v by its type and the bits of its
    float value (float.hex: -0.0 and 0.0 differ).  A miss computes N
    with nonlinear_connection; an N that raises is not held.
    """
    global _held
    if all(float(c) == 0.0 for c in v):
        return 0.0
    key = tuple(tuple((type(c), float(c).hex()) for c in leaves) for leaves in (x, v))
    held = _held
    if held is None or held[0] is not F or held[1] != key:
        N = nonlinear_connection(F, x, v)
        held = _held = (F, key, tuple(map(tuple, N)))
    return s_curvature_from(held[2], measure, x, v)


def s_curvature_from(N, measure: Measure, x, v) -> float:
    """The trace formula given the nonlinear connection N = N(x, v).

    N depends on F alone, so callers that read several measures at one
    (x, v) compute it once and pass it to each.  Generic over leaves: on
    1-D array leaves (one lane per pair) every lane is the float value of
    its pair, and the density must be positive in every lane (else
    randers.InvalidSpaceError, a ValueError, so that a batch hands its
    lanes back to the float loop).
    """
    return _trace_formula(N, measure.density(seed_group(_leaves(x), range(len(N)))), x, v)


def _trace_formula(N, sigma, x, v):
    """s_curvature_from given sigma evaluated on x seeded once,
    seed_group(_leaves(x), range(n)): callers that read several densities
    at one x (a measure and its scaled and shifted laws) seed x once."""
    n = len(N)
    trace = sum(N[i][i] for i in range(n))
    sigma_val = standard_part(sigma)
    lowest = sigma_val.min() if isinstance(sigma_val, np.ndarray) else sigma_val
    if not lowest > 0.0:
        raise randers.InvalidSpaceError(
            f"measure density {sigma_val} is not positive at x = {tuple(x)}"
        )
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
    steps: int = TRANSPORT_STEPS,
    richardson: bool = True,
) -> float:
    """Transport-definition oracle for the S-curvature at one (x, v).

    Normalizes v to unit F-speed, integrates the geodesic to +-h on float
    leaves, central-differences log(sqrt(det g)/sigma) and rescales by
    F(v) (S is positively 1-homogeneous).  With richardson=True the h and
    h/2 differences are combined for fourth-order accuracy.  Raises what
    geodesic raises when a path leaves the chart or blows up.  Runs
    _integrated_steps(steps, richardson) RK4 steps per path.
    """
    steps = _integrated_steps(steps, richardson)
    n = F.chart.dimension
    forward, backward = [_trajectory(F, (*x, *v, t), steps, richardson) for t in (h, -h)]
    phis = [_log_ratio(F, measure, s[:n], s[n:]) for s in _end_states(forward, backward)]
    return _central_difference(forward[0], phis, h, richardson)


def s_curvature_transport_batch(
    F: FinslerStructure,
    measure: Measure,
    xs: Sequence,
    vs: Sequence,
    h: float = 1e-3,
    steps: int = TRANSPORT_STEPS,
    richardson: bool = True,
) -> list[float]:
    """The transport oracle at every (xs[k], vs[k]), in input order.

    Two jets.lanewise passes.  The first runs the trajectories, lane 2k
    probe k to +h and lane 2k + 1 to -h: the forward and backward
    geodesics of all probes advance in lock-step as one RK4 run over
    array leaves, so each RK4 stage evaluates F.fast_spray once for the
    batch.  The second evaluates the log-ratio at the end states the
    central differences read, 2 or 4 per probe, in one pass: one
    fundamental_tensor, det and density evaluation for all of them.
    Each lane computes what s_curvature_transport computes on floats, so
    the values equal its values bit for bit.  A pass that fails is rerun
    lane by lane on floats, in order, and raises what the first failing
    lane raises: for one probe, exactly what s_curvature_transport
    raises; across probes, a trajectory error of a later probe wins over
    a log-ratio error of an earlier one, because every trajectory runs
    before any log-ratio.
    """
    steps = _integrated_steps(steps, richardson)
    n = F.chart.dimension
    if not xs:
        return []
    fvals, ends = jets.lanewise(
        lambda p: _trajectory(F, p, steps, richardson),
        [(*x, *v, t) for x, v in zip(xs, vs) for t in (h, -h)],
    )
    # Each end index's (*x, *u) state per lane, in _end_states' order.
    at_end = [list(zip(*end)) for end in ends]
    states = [lanes[j] for k in range(len(xs)) for lanes in at_end for j in (2 * k, 2 * k + 1)]
    phis = jets.lanewise(lambda p: _log_ratio(F, measure, p[:n], p[n:]), states)
    per_probe = 2 * len(ends)
    return [
        _central_difference(fval, phis[k * per_probe : (k + 1) * per_probe], h, richardson)
        for k, fval in enumerate(fvals[::2])
    ]


def _integrated_steps(steps: int, richardson: bool) -> int:
    """The RK4 step count the oracle runs for `steps`: rounded up to even
    under Richardson, whose h/2 difference reads the path at steps // 2."""
    return steps + steps % 2 if richardson else steps


def _trajectory(F: FinslerStructure, p, steps: int, richardson: bool) -> list:
    """[F(v), the (*x, *u) states at _end_indices] of the unit-speed
    geodesic from p = (*x, *v, t) to time t, on float or array leaves."""
    n = F.chart.dimension
    x, v, t = p[:n], p[n : 2 * n], p[2 * n]
    fval, unit = _unit_start(F, x, v)
    path = geodesic(F, x, unit, t, steps)
    return [fval, [[*path.points[i], *path.velocities[i]] for i in _end_indices(steps, richardson)]]


def _end_states(forward, backward) -> list:
    """One probe's end states from its two _trajectory results, in the
    order _central_difference reads them."""
    return [s for pair in zip(forward[1], backward[1]) for s in pair]


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


def _unit_start(F: FinslerStructure, x, v) -> tuple:
    """(F(x, v), v / F(x, v)) for the transport oracle, on float leaves or
    in every lane of array leaves."""
    x, v = _leaves(x), _leaves(v)
    fval = standard_part(F(x, v))
    if not _every_lane((0.0 < fval) & (fval < math.inf)):  # NaN fails too
        raise ValueError(f"transport oracle needs a finite F(v) > 0, got {fval}")
    return fval, [c / fval for c in v]


# -- Busemann-Hausdorff density by Monte Carlo -----------------------------------

# Rows per Monte-Carlo chunk; the hit counts of the chunks are summed, and
# the second half of the stream starts at a chunk boundary.
MC_CHUNK_ROWS = 16_384


def bh_density_monte_carlo(
    space: RandersSpace, x, sample_count: int, rng_seed: int
) -> tuple[float, float]:
    """(sigma_BH estimate, standard error) via unit-ball volume sampling.

    The F-unit ball satisfies alpha(v) < 1/(1 - ||beta||), so the sampling
    box is that ellipsoid's bounding box in the a(x)-eigenbasis.  The RNG
    is numpy's PCG64DXSM seeded with rng_seed, an int in [0, 2**64), so
    estimates are bit-reproducible for a fixed seed.  (The probe grid's
    default_rng(seed) is PCG64, so the two streams of one seed differ.)
    The stream's rows are split at a chunk boundary into two contiguous
    halves: the caller counts the hits of the first while a helper thread
    counts those of the second, from a generator advanced to the row where
    it starts, so every sample has the bits of the one sequential stream.
    Each half draws MC_CHUNK_ROWS rows at a time into one reused buffer,
    maps it into the box in place (two passes over the flat chunk), forms
    its b-projection and then squares it in place, so memory stays bounded
    whatever the sample count.
    """
    if sample_count < 10_000:
        raise ValueError("sample_count must be at least 10^4")
    if not (isinstance(rng_seed, int) and not isinstance(rng_seed, bool)
            and 0 <= rng_seed < 2**64):
        raise ValueError(f"rng_seed must be an int in [0, 2**64), got {rng_seed!r}")
    n = space.dimension
    a_x, b_x = randers.a_and_b(space, x)
    a = np.array([[standard_part(e) for e in row] for row in a_x])
    b = np.array([standard_part(c) for c in b_x])
    lam, q = np.linalg.eigh(a)
    if lam[0] <= 0.0:
        raise randers.InvalidSpaceError(f"metric not positive definite at x = {tuple(x)}")
    blen = randers.beta_length(space, x, a_x, b_x)
    if blen >= 1.0:
        raise randers.InvalidSpaceError(
            f"degenerate bounding box: ||beta|| = {blen:.6g} >= 1 at x = {tuple(x)}"
        )
    radius = 1.0 / (1.0 - blen)
    half_width = radius / np.sqrt(lam)
    box_volume = float(np.prod(2.0 * half_width))

    b_eigen = q.T @ b
    chunks = -(-sample_count // MC_CHUNK_ROWS)
    split = min((chunks + 1) // 2 * MC_CHUNK_ROWS, sample_count)
    second: list = []  # the helper's hit count, or what it raised

    def count_second_half() -> None:
        try:
            second.append(_count_hits(rng_seed, split, sample_count, half_width, lam, b_eigen))
        except BaseException as exc:  # re-raised in the caller
            second.append(exc)

    helper = threading.Thread(target=count_second_half)
    helper.start()
    try:
        hits = _count_hits(rng_seed, 0, split, half_width, lam, b_eigen)
    finally:
        helper.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    hits += second[0]
    p = hits / sample_count
    if p == 0.0:
        raise randers.InvalidSpaceError("unit ball missed entirely; degenerate data")
    ball_volume = box_volume * p
    if not 0.0 < ball_volume * ball_volume < math.inf:  # the standard error divides by it
        raise randers.InvalidSpaceError(
            f"unit-ball volume {ball_volume!r} is out of float range at x = {tuple(x)}"
        )
    se_volume = box_volume * math.sqrt(p * (1.0 - p) / sample_count)
    omega = unit_ball_volume(n)
    estimate = omega / ball_volume
    std_error = omega * se_volume / (ball_volume * ball_volume)
    return estimate, std_error


def bh_agreement_gate(closed: float, std_error: float) -> float:
    """How far a bh_density_monte_carlo estimate may lie from the closed-form
    density `closed` and still agree with it: 1% of it or 3 standard
    errors, whichever is larger."""
    return max(0.01 * closed, 3.0 * std_error)


def _count_hits(seed: int, first_row: int, stop_row: int, half_width, lam, b_eigen) -> int:
    """Hits in rows [first_row, stop_row) of the PCG64DXSM stream seeded
    with seed."""
    n = len(lam)
    # PCG64DXSM gives one uint64 per step and Generator.random uses one per
    # double, so row first_row starts first_row * n steps in.
    rng = np.random.Generator(np.random.PCG64DXSM(seed).advance(first_row * n))
    # rng.uniform(low, high) draws low + (high - low) * U; the same
    # arithmetic on rng.random's U, in place, keeps every sample's bits.  It
    # runs as two passes over the flat chunk, against the spans and lows
    # repeated once per row.
    size = min(MC_CHUNK_ROWS, stop_row - first_row)
    low = -half_width
    spans, lows = np.tile(half_width - low, size), np.tile(low, size)
    draw = np.empty((size, n))
    hits = 0
    for start in range(first_row, stop_row, MC_CHUNK_ROWS):
        rows = min(MC_CHUNK_ROWS, stop_row - start)
        y = rng.random(out=draw[:rows])
        flat = y.reshape(-1)
        flat *= spans[: flat.size]
        flat += lows[: flat.size]
        linear = y @ b_eigen
        np.multiply(y, y, out=y)
        hits += int(np.count_nonzero(np.sqrt(y @ lam) + linear < 1.0))
    return hits

