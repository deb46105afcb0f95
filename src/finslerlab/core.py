"""Generic Finsler tensor calculus over coordinate charts.

Everything is derived from one scalar function F(x, v) that must be
positively 1-homogeneous in v and smooth away from v = 0.  Derivatives
are taken with nested jets, so the fundamental tensor, Cartan tensor,
formal Christoffel symbols, spray and nonlinear connection come out
exact up to rounding.  PairTensors holds all of them from a single jet
evaluation of F^2/2, per pair or per lane: on float leaves for one
probe pair, on 1-D array leaves for a grid of pairs with one lane per
pair, each lane equal to the float evaluation of its pair bit for bit.
The public functions that need less (fundamental_tensor, spray,
nonlinear_connection) seed only the levels they read.

Conventions match the source data for this tool: the geodesic equation
is eta'' + G(eta') = 0 with G the plain gamma-contraction (no factor 2),
and N = (1/2) dG/dv.  Textbooks that define G with an extra 1/2 differ
by that factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .jets import Scalar, _leaves, partial, seed_group, standard_part, value_of
from .linalg import _stacked, inv, sum_

__all__ = [
    "CoordinateChart",
    "FinslerStructure",
    "GeodesicPath",
    "StructureValidityError",
    "DomainExitError",
    "NonFiniteStateError",
    "MIN_VECTOR_NORM",
    "PairTensors",
    "fundamental_tensor",
    "cartan_tensor",
    "formal_christoffel",
    "spray",
    "nonlinear_connection",
    "nonlinear_connection_definitional",
    "geodesic",
    "geodesic_batch",
    "euler_identity_residual",
    "probe_pairs",
    "probe_points",
    "probe_grid",
    "corner_points",
]

# Structures are non-smooth at v = 0; tensors reject anything this close.
MIN_VECTOR_NORM = 1e-12


class StructureValidityError(ValueError):
    """The probed function violates a Finsler-structure condition."""


class DomainExitError(RuntimeError):
    """Geodesic left the chart domain; carries the truncated path."""

    def __init__(self, time: float, path: "GeodesicPath"):
        super().__init__(f"geodesic left the chart domain at t = {time}")
        self.time = time
        self.path = path


class NonFiniteStateError(RuntimeError):
    """Geodesic state became non-finite (blow-up or invalid evaluation)."""

    def __init__(self, time: float):
        super().__init__(f"geodesic state became non-finite at t = {time}")
        self.time = time


@dataclass(frozen=True)
class CoordinateChart:
    names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.names) < 2:
            raise ValueError("charts need dimension >= 2")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")
        if len(self.bounds) != len(self.names):
            raise ValueError("one (lo, hi) interval per coordinate required")
        for lo, hi in self.bounds:
            if not (lo < hi):
                raise ValueError(f"empty coordinate interval ({lo}, {hi})")

    @property
    def dimension(self) -> int:
        return len(self.names)

    def contains(self, x: Sequence[float]) -> bool:
        return all(lo < xi < hi for xi, (lo, hi) in zip(x, self.bounds))


@dataclass(frozen=True)
class FinslerStructure:
    """A positively 1-homogeneous structure given by a jet-evaluable F(x, v).

    fast_spray, when set, is an exact closed-form spray used for ODE
    integration instead of the jet-derived one (the two are required to
    agree and are cross-checked in the test suite).  geodesic_batch calls
    it with 1-D array leaves, one element per trajectory.
    """

    chart: CoordinateChart
    func: Callable
    fast_spray: Optional[Callable] = None

    def __call__(self, x: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        return self.func(x, v)


@dataclass
class GeodesicPath:
    times: list[float]
    points: list[tuple[float, ...]]
    velocities: list[tuple[float, ...]]

    def state(self, index: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return self.points[index], self.velocities[index]


def _check_nonzero(v) -> None:
    """Raises unless |v| >= MIN_VECTOR_NORM; over array leaves, in every lane."""
    parts = [standard_part(c) for c in v]
    if any(isinstance(c, np.ndarray) for c in parts):
        lanes = zip(*[c.tolist() for c in np.broadcast_arrays(*parts)])
    else:
        lanes = (parts,)
    for lane in lanes:
        norm = math.hypot(*lane)
        if norm < MIN_VECTOR_NORM:
            raise StructureValidityError(
                f"tangent vector too close to 0 (|v| = {norm}); tensors are undefined there"
            )


def _is_exact_zero(v) -> bool:
    return all(standard_part(c) == 0.0 for c in v)


def _half_f_squared(F: FinslerStructure, x, v, levels: str) -> Scalar:
    """F^2/2 at (x, v) under one new jet level per letter of `levels`,
    innermost first: "v" seeds the components of v, "x" those of x."""
    n = F.chart.dimension
    s = list(x) + list(v)
    for level in levels:
        s = seed_group(s, range(n, 2 * n) if level == "v" else range(n))
    f = F(s[:n], s[n:])
    return 0.5 * (f * f)


def _v_hessian(r, n: int) -> list:
    return [[partial(partial(r, i), j) for j in range(n)] for i in range(n)]


def _metric_and_dx(F: FinslerStructure, x, v) -> tuple[list, list]:
    """(g, dg) with dg[k][i][j] = dg_ij/dx_k, from one seeded evaluation."""
    n = F.chart.dimension
    r = _half_f_squared(F, x, v, "vvx")
    return _v_hessian(value_of(r), n), [_v_hessian(partial(r, k), n) for k in range(n)]


def _checked_standard_part(g, x, v) -> list[list[float]]:
    """The standard parts of g; raises unless they form a positive definite
    matrix (in every lane, by one stacked Cholesky, over array leaves)."""
    gf = [[standard_part(e) for e in row] for row in g]
    try:
        np.linalg.cholesky(_stacked(gf))
    except np.linalg.LinAlgError:
        raise StructureValidityError(
            f"fundamental tensor not positive definite at x={tuple(map(standard_part, x))}, "
            f"v={tuple(map(standard_part, v))}"
        ) from None
    return gf


def fundamental_tensor(F: FinslerStructure, x, v) -> list[list[float]]:
    """g_ij(v) = half v-Hessian of F^2, with a positive-definiteness check."""
    _check_nonzero(v)
    g = _v_hessian(_half_f_squared(F, x, v, "vv"), F.chart.dimension)
    _checked_standard_part(g, x, v)
    return g


def cartan_tensor(F: FinslerStructure, x, v) -> list:
    """A_ijk = (F/2) dg_ij/dv_k = (F/4) third v-derivative of F^2."""
    return PairTensors(F, x, v).A


def formal_christoffel(F: FinslerStructure, x, v) -> list:
    """gamma^i_jk(v), symmetric in (j, k); raises on singular g."""
    _check_nonzero(v)
    g, dg = _metric_and_dx(F, x, v)
    return _gamma_from(inv(g), dg)


def _gamma_from(g_inv, dg) -> list:
    n = len(g_inv)
    gamma = []
    for i in range(n):
        rows = [[0.0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j, n):  # symmetric in the lower pair
                terms = sum_(
                    g_inv[i][l] * (dg[k][l][j] + dg[j][k][l] - dg[l][j][k])
                    for l in range(n)
                )
                rows[j][k] = rows[k][j] = 0.5 * terms
        gamma.append(rows)
    return gamma


def _spray_from(gamma, v) -> list:
    n = len(v)
    return [
        sum_(gamma[i][j][k] * (v[j] * v[k]) for j in range(n) for k in range(n))
        for i in range(n)
    ]


def _connection_from(G) -> list[list[float]]:
    """N^i_j = (1/2) dG^i/dv^j from G over jets whose outermost level seeds v."""
    n = len(G)
    return [[0.5 * standard_part(partial(G[i], j)) for j in range(n)] for i in range(n)]


def spray(F: FinslerStructure, x, v) -> list:
    """Spray coefficients G^i(v) = sum gamma^i_jk v^j v^k; G(0) = 0."""
    if _is_exact_zero(v):
        return [0.0] * F.chart.dimension
    return _spray_from(formal_christoffel(F, x, v), v)


def nonlinear_connection(F: FinslerStructure, x, v) -> list[list[float]]:
    """N^i_j = (1/2) dG^i/dv^j via one extra jet level; N(0) = 0."""
    if _is_exact_zero(v):
        n = F.chart.dimension
        return [[0.0] * n for _ in range(n)]
    return _connection_at(F, x, v)


def _connection_at(F: FinslerStructure, x, v) -> list:
    """nonlinear_connection at a v != 0, over float or array leaves."""
    n = F.chart.dimension
    s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
    xs, vs = s[:n], s[n:]
    _check_nonzero(vs)
    g, dg = _metric_and_dx(F, xs, vs)
    return _connection_from(_spray_from(_gamma_from(inv(g), dg), vs))


def nonlinear_connection_definitional(F: FinslerStructure, x, v) -> list[list[float]]:
    """N from its defining contraction (test cross-check, v != 0 only)."""
    return PairTensors(F, x, v).definitional_N()


class PairTensors:
    """What one evaluation of F^2/2 at (x, v) holds, per pair or per lane.

    F^2/2 is evaluated once, over the four jet levels (v, v, v, x) that
    nonlinear_connection uses.  The value slots of the g jets are g_ij,
    their outer-v partials give the Cartan tensor, and the formal
    Christoffel symbols gamma, the spray G and the nonlinear connection N
    follow from the same jets.  f is F(x, v).  On float leaves every
    entry is a float; on 1-D array leaves (a grid of pairs, one lane per
    pair, as jets.lanewise passes them) every entry is an array whose
    lane k equals the float entry of pair k bit for bit.  The (x, v)
    counterpart of randers._PointData.
    """

    __slots__ = ("f", "g", "g_inv", "A", "gamma", "G", "N", "v")

    def __init__(self, F: FinslerStructure, x, v):
        _check_nonzero(v)
        n = F.chart.dimension
        s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
        g, dg = _metric_and_dx(F, s[:n], s[n:])
        self.g = _checked_standard_part(g, x, v)
        g_inv = inv(g)
        gamma = _gamma_from(g_inv, dg)
        G = _spray_from(gamma, s[n:])
        self.N = _connection_from(G)
        self.f = F(x, v)
        half_f = 0.5 * self.f
        self.A = [
            [[half_f * partial(g[i][j], k) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        self.g_inv = [[standard_part(e) for e in row] for row in g_inv]
        self.gamma = [[[standard_part(e) for e in row] for row in m] for m in gamma]
        self.G = [standard_part(c) for c in G]
        self.v = v

    def definitional_N(self) -> list[list[float]]:
        """N^i_j = sum_k { gamma^i_jk v^k - A^i_jk G^k / F }, with its own
        G = sum gamma^i_jk v^j v^k: a formula independent of N's jets."""
        gamma, v, A = self.gamma, self.v, self.A
        n = len(v)
        G = [
            sum_(gamma[i][j][k] * v[j] * v[k] for j in range(n) for k in range(n))
            for i in range(n)
        ]
        out = []
        for i in range(n):
            a_up = [
                [sum_(self.g_inv[i][l] * A[l][j][k] for l in range(n)) for k in range(n)]
                for j in range(n)
            ]
            out.append(
                [
                    sum_(gamma[i][j][k] * v[k] - a_up[j][k] * G[k] / self.f for k in range(n))
                    for j in range(n)
                ]
            )
        return out


# -- geodesics ----------------------------------------------------------------


def geodesic(
    F: FinslerStructure,
    x0: Sequence[float],
    v0: Sequence[float],
    time: float,
    steps: int = 1000,
) -> GeodesicPath:
    """Classical fixed-step RK4 for eta'' + G(eta') = 0 on float leaves.

    Raises DomainExitError (carrying the truncated path) when the path
    leaves the chart domain, NonFiniteStateError on blow-up.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_nonzero(v0)
    spray_fn = F.fast_spray or (lambda xx, vv: spray(F, xx, vv))
    x = [float(c) for c in x0]
    u = [float(c) for c in v0]
    path = GeodesicPath(times=[0.0], points=[tuple(x)], velocities=[tuple(u)])
    for t, x, u in _rk4(spray_fn, x, u, time / steps, steps):
        if not all(math.isfinite(c) for c in itertools.chain(x, u)):
            raise NonFiniteStateError(t)
        if not F.chart.contains(x):
            raise DomainExitError(t, path)
        path.times.append(t)
        path.points.append(tuple(x))
        path.velocities.append(tuple(u))
    return path


def geodesic_batch(
    F: FinslerStructure,
    x0s: Sequence[Sequence[float]],
    v0s: Sequence[Sequence[float]],
    times: Sequence[float],
    steps: int = 1000,
) -> Optional[GeodesicPath]:
    """geodesic for many trajectories in lock-step, or None on any failure.

    One RK4 run whose state leaves are 1-D arrays with one element per
    trajectory; trajectory k starts at (x0s[k], v0s[k]) and runs to
    times[k] (either sign).  F.fast_spray must accept array leaves, as
    the Randers closed form does.  The returned path has array leaves
    (times from the first step on).  The batch only detects failure: a
    zero start vector, a spray that raises, or a state that turns
    non-finite or leaves the chart in any trajectory gives None, and the
    caller runs geodesic per trajectory to learn which one fails and how.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if F.fast_spray is None:
        raise TypeError("geodesic_batch needs F.fast_spray, a spray over array leaves")
    try:
        for v0 in v0s:
            _check_nonzero(v0)
    except StructureValidityError:
        return None
    n = F.chart.dimension
    x = [np.array([float(x0[i]) for x0 in x0s]) for i in range(n)]
    u = [np.array([float(v0[i]) for v0 in v0s]) for i in range(n)]
    h = np.array([t / steps for t in times])
    bounds = F.chart.bounds
    path = GeodesicPath(times=[0.0], points=[tuple(x)], velocities=[tuple(u)])
    with np.errstate(all="ignore"):  # a non-finite lane fails the batch below
        try:
            for t, x, u in _rk4(F.fast_spray, x, u, h, steps):
                inside = all(((lo < c) & (c < hi)).all() for c, (lo, hi) in zip(x, bounds))
                if not (inside and all(np.isfinite(c).all() for c in itertools.chain(x, u))):
                    return None
                path.times.append(t)
                path.points.append(tuple(x))
                path.velocities.append(tuple(u))
        except (ArithmeticError, ValueError):
            return None
    return path


def _rk4(spray_fn: Callable, x: list, u: list, h, steps: int):
    """Classical RK4 steps for eta'' + G(eta') = 0, generic over leaves:
    yields (t, x, u) after each step.  Float leaves carry one trajectory;
    1-D array leaves, with h an array too, carry a batch."""

    def rhs(xx, uu):
        G = spray_fn(xx, uu)
        return uu, [-standard_part(c) for c in G]

    for step in range(steps):
        k1x, k1u = rhs(x, u)
        k2x, k2u = rhs(
            [xi + 0.5 * h * ki for xi, ki in zip(x, k1x)],
            [ui + 0.5 * h * ki for ui, ki in zip(u, k1u)],
        )
        k3x, k3u = rhs(
            [xi + 0.5 * h * ki for xi, ki in zip(x, k2x)],
            [ui + 0.5 * h * ki for ui, ki in zip(u, k2u)],
        )
        k4x, k4u = rhs(
            [xi + h * ki for xi, ki in zip(x, k3x)],
            [ui + h * ki for ui, ki in zip(u, k3u)],
        )
        x = [
            xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1x, k2x, k3x, k4x)
        ]
        u = [
            ui + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for ui, a, b, c, d in zip(u, k1u, k2u, k3u, k4u)
        ]
        yield (step + 1) * h, x, u


# -- identities ----------------------------------------------------------------


def euler_identity_residual(F: FinslerStructure, x, v) -> float:
    """| sum_i d/dv^i (v^i / F) - (n-1)/F |, per pair or per lane."""
    _check_nonzero(v)
    n = F.chart.dimension
    s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
    xs, vs = s[:n], s[n:]
    fval = F(xs, vs)
    trace = sum_(partial(vs[i] / fval, i) for i in range(n))
    return abs(standard_part(trace) - (n - 1) / standard_part(fval))


# -- deterministic probe grids --------------------------------------------------


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(d: int, count: int, seed: int) -> np.ndarray:
    """count x d scrambled Halton points (Owen, arXiv:1706.02808).

    Column k uses the k-th prime b and ceil(54 / log2 b) - 1 digit
    permutations of range(b), shuffled in base order by one
    default_rng(seed).  Point i is the sum over every permutation j of
    perm_j[digit_j(i)] * w_j, with w_0 = 1/b and w_(j+1) = w_j / b, digits
    past i's length (0) included.  The sum runs in j order (cumsum), so
    the points match SciPy's qmc.Halton(d, scramble=True, seed=seed) bit
    for bit.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, d))
    for column, base in enumerate(_primes(d)):
        depth = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], depth, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        weights = [1.0 / base]
        for _ in range(depth - 1):
            weights.append(weights[-1] / base)
        digits = np.arange(count)[:, None] // base ** np.arange(depth) % base
        terms = perms[np.arange(depth), digits] * np.array(weights)
        out[:, column] = np.cumsum(terms, axis=1)[:, -1]
    return out


def _polevl(t, coefs):
    acc = coefs[0]
    for c in coefs[1:]:
        acc = acc * t + c
    return acc


def _p1evl(t, coefs):  # leading coefficient 1
    return _polevl(t, (1.0, *coefs))


# Cephes ndtri rational approximations: P0/Q0 for |y - 1/2| <= 1/2 - exp(-2),
# P1/Q1 for the tails with sqrt(-2 log y) in [2, 8).
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF for u in [1e-12, 1 - 1e-12], as Cephes.

    There sqrt(-2 log y) < 7.5, so Cephes' third branch (>= 8) is never
    needed.  The logs go through math.log, the same libm call as Cephes.
    """
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    central = y > _EXP_M2
    out = np.empty_like(u)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(np.array([-2.0 * math.log(t) for t in y[tail]]))
    z = 1.0 / x
    x = x - np.array([math.log(t) for t in x]) / x - z * _polevl(z, _P1) / _p1evl(z, _Q1)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def probe_pairs(
    chart: CoordinateChart, count: int = 100, seed: int = 0
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Low-discrepancy (x, v) probes: x 1% inside the domain, v on the unit sphere.

    Scrambled Halton in 2n dimensions; the first n map to the chart box,
    the rest go through the normal inverse CDF and are normalized.
    """
    n = chart.dimension
    u = _scrambled_halton(2 * n, count, seed)
    lo, hi = np.array(chart.bounds, dtype=float).T
    xs = lo + (0.01 + 0.98 * u[:, :n]) * (hi - lo)
    zs = _ndtri(np.clip(u[:, n:], 1e-12, 1.0 - 1e-12))
    norms = np.sqrt([z.dot(z) for z in zs])  # np.linalg.norm, row by row
    degenerate = norms < 1e-9
    zs[degenerate] = np.eye(n)[0]
    norms[degenerate] = 1.0
    vs = zs / norms[:, None]
    return [(tuple(x), tuple(v)) for x, v in zip(xs.tolist(), vs.tolist())]


def corner_points(chart: CoordinateChart) -> list[tuple[float, ...]]:
    """The 2^n domain corners pulled inward by 1% of each width."""
    axes = [(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo)) for lo, hi in chart.bounds]
    return [tuple(p) for p in itertools.product(*axes)]


def probe_points(
    chart: CoordinateChart, count: int = 100, seed: int = 0
) -> list[tuple[float, ...]]:
    """Probe x-positions: the Halton set plus the shrunk domain corners."""
    return probe_grid(chart, count, seed)[1]


def probe_grid(chart: CoordinateChart, count: int = 100, seed: int = 0) -> tuple[list, list]:
    """(probe_pairs, probe_points) of one (count, seed), from one Halton set."""
    pairs = probe_pairs(chart, count, seed)
    return pairs, [x for x, _ in pairs] + corner_points(chart)
