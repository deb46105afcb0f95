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
nonlinear_connection) seed only the levels they read; spray, and through
it nonlinear_connection, takes G from the Lagrangian L = F^2/2 of the
same evaluation, as PairTensors does (_spray_from), in 2n^2 products.

Conventions match the source data for this tool: the geodesic equation
is eta'' + G(eta') = 0 with G the plain gamma-contraction (no factor 2),
G^i = gamma^i_jk v^j v^k = g^il (L_{x^k v^l} v^k - L_{x^l}), summed over
k and l, and N = (1/2) dG/dv.  Textbooks that define G with an extra 1/2
(Chern and Shen, Riemann-Finsler Geometry, 2005) differ by that factor.
L is formed in one place, _half_f_squared, by jets.half_square: the bits
of 0.5 * (F * F), but for the overflow the jets module names, without
doubling and halving each slot product.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .jets import Scalar, _leaves, half_square, partial, seed_group, standard_part, value_of
from .linalg import _stacked, inv, sum_
from .staged import Stage

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
    "spray",
    "nonlinear_connection",
    "geodesic",
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


class DomainExitError(ValueError):
    """Geodesic left the chart domain; carries the truncated path.

    A ValueError (the state left the chart's domain) and NonFiniteStateError
    an ArithmeticError, so that jets.lanewise hands a batch that raises
    either back to the per-trajectory float loop."""

    def __init__(self, time: float, path: "GeodesicPath"):
        super().__init__(f"geodesic left the chart domain at t = {time}")
        self.time = time
        self.path = path


class NonFiniteStateError(ArithmeticError):
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
    agree and are cross-checked in the test suite).  geodesic calls it
    at every RK4 stage, with float leaves for one trajectory and with
    1-D arrays, one lane per trajectory, for several; one implementation
    serves both (randers.finsler's is PointData's spray).
    """

    chart: CoordinateChart
    func: Callable
    fast_spray: Optional[Callable] = None

    def __call__(self, x: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
        return self.func(x, v)


@dataclass
class GeodesicPath:
    """The states of an RK4 run, one per step, the start included: float
    leaves for one trajectory, 1-D arrays (one lane per trajectory) for
    several in lock-step."""

    times: list[float]
    points: list[tuple[float, ...]]
    velocities: list[tuple[float, ...]]


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
    """v == 0 exactly; over array leaves, in every lane (a batch with only
    some zero lanes goes on to _check_nonzero, which raises)."""
    return all(_every_lane(standard_part(c) == 0.0) for c in v)


def _half_f_squared(F: FinslerStructure, x, v, levels: str) -> Scalar:
    """F^2/2 at (x, v) under one new jet level per letter of `levels`,
    innermost first: "v" seeds the components of v, "x" those of x."""
    n = F.chart.dimension
    s = list(x) + list(v)
    for level in levels:
        s = seed_group(s, range(n, 2 * n) if level == "v" else range(n))
    return half_square(F(s[:n], s[n:]))


def _v_hessian(r, n: int) -> list:
    return [[partial(partial(r, i), j) for j in range(n)] for i in range(n)]


def _lagrangian(F: FinslerStructure, x, v) -> tuple:
    """(r, g): r = F^2/2 at (x, v) under the levels "vvx" and g_ij = the
    v-Hessian of its value, from one seeded evaluation."""
    r = _half_f_squared(F, x, v, "vvx")
    return r, _v_hessian(value_of(r), F.chart.dimension)


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


def _spray_from(r, g_inv, v) -> list:
    """G from r and g^-1, the inverse of g, with (r, g) = _lagrangian:
    the Lagrangian kernel on r's x-partials, each L_x^l a value and each
    L_x^k v^l one v-partial."""
    n = len(v)
    dx = [partial(r, k) for k in range(n)]
    l_xv = [[value_of(partial(p, l)) for l in range(n)] for p in dx]
    l_x = [value_of(value_of(p)) for p in dx]
    return _kernel(_lagrangian_spray, n)(g_inv, l_xv, l_x, v)


def _connection_from(G) -> list[list[float]]:
    """N^i_j = (1/2) dG^i/dv^j from G over jets whose outermost level seeds v."""
    n = len(G)
    return [[0.5 * standard_part(partial(G[i], j)) for j in range(n)] for i in range(n)]


def spray(F: FinslerStructure, x, v) -> list:
    """Spray coefficients G^i(v) = sum_l g^il (sum_k L_{x^k v^l} v^k - L_{x^l})
    of L = F^2/2, which is sum gamma^i_jk v^j v^k; G(0) = 0.  Raises on
    singular g."""
    if _is_exact_zero(v):
        return [0.0] * F.chart.dimension
    _check_nonzero(v)
    r, g = _lagrangian(F, x, v)
    return _spray_from(r, inv(g), v)


def nonlinear_connection(F: FinslerStructure, x, v) -> list[list[float]]:
    """N^i_j = (1/2) dG^i/dv^j via one extra jet level; N(0) = 0."""
    n = F.chart.dimension
    if _is_exact_zero(v):
        return [[0.0] * n for _ in range(n)]
    s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
    return _connection_from(spray(F, s[:n], s[n:]))


class PairTensors:
    """What one evaluation of F^2/2 at (x, v) holds, per pair or per lane.

    F^2/2 is evaluated once, over the four jet levels (v, v, v, x) that
    nonlinear_connection uses.  The value slots of the g jets are g_ij,
    their outer-v partials give the Cartan tensor, and the spray G (the
    Lagrangian kernel, as in spray) and the nonlinear connection N follow
    from the same jets.  The formal Christoffel symbols gamma, which only
    definitional_N reads, come from the standard parts of g^-1 and dg,
    with no jets.  f is F(x, v).  On float leaves every entry is a float;
    on 1-D array leaves (a grid of pairs, one lane per pair, as
    jets.lanewise passes them) every entry is an array whose lane k
    equals the float entry of pair k bit for bit.  The (x, v)
    counterpart of randers.PointData.
    """

    __slots__ = ("f", "g", "g_inv", "A", "gamma", "G", "N", "v")

    def __init__(self, F: FinslerStructure, x, v):
        _check_nonzero(v)
        n = F.chart.dimension
        s = seed_group(_leaves(x) + _leaves(v), range(n, 2 * n))
        r, g = _lagrangian(F, s[:n], s[n:])
        self.g = _checked_standard_part(g, x, v)
        g_inv = inv(g)
        G = _spray_from(r, g_inv, s[n:])
        self.N = _connection_from(G)
        self.f = F(x, v)
        half_f = 0.5 * self.f
        self.A = [
            [[half_f * partial(g[i][j], k) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
        self.g_inv = [[standard_part(e) for e in row] for row in g_inv]
        dg = [[[standard_part(e) for e in row] for row in _v_hessian(partial(r, k), n)]
              for k in range(n)]
        self.gamma = _kernel(_christoffel, n)(self.g_inv, dg)
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


# -- kernels ---------------------------------------------------------------------
#
# Fixed sequences of products and sums once n is fixed (the Christoffel
# symbols, of g here and of a in randers, their spray contraction, and the
# spray from a Lagrangian's x-partials), each
# written as the plain loop it computes.  _kernel runs a loop once per n on
# staged leaves and calls the straight-line function that run writes, which
# spares the loop and index bookkeeping: the loop's leaf operations in its
# order, so its bits on float, array and jet leaves.  A product that several
# terms share is written in one operand order (v^j v^k with j <= k), so that
# the written function forms it once.


def _shapes(shapes: Callable):
    """Marks a kernel loop with shapes(n), the nested-list shape of each
    of its parameters at dimension n."""

    def mark(loop):
        loop.shapes = shapes
        return loop

    return mark


@cache
def _kernel(loop, n: int):
    """The straight-line function that loop, run on staged leaves of the
    shapes its parameters take at dimension n, writes."""
    stage = Stage()
    params = loop.__code__.co_varnames[: loop.__code__.co_argcount]
    args = [stage.unpack(name, shape) for name, shape in zip(params, loop.shapes(n))]
    return stage.function(loop.__name__, params, loop(*args))


@_shapes(lambda n: [(n, n), (n, n, n)])
def _christoffel(m_inv, dm):
    """gamma^k_ij = 0.5 * (0.0 + sum_l m^kl br_ijl) of a metric m, from its
    inverse and dm[k][i][j] = dm_ij/dx_k, per lower pair, with the bracket
    br_ijl = dm_li/dx_j + dm_jl/dx_i - dm_ij/dx_l shared by every k."""
    n = len(m_inv)
    r = range(n)
    pairs = [(i, j) for i in r for j in range(i, n)]
    bracket = {(i, j): [dm[j][l][i] + dm[i][j][l] - dm[l][i][j] for l in r] for i, j in pairs}
    gamma = [[[None] * n for _ in r] for _ in r]
    for k in r:
        for i, j in pairs:
            terms = (m_inv[k][l] * bracket[i, j][l] for l in r)
            gamma[k][i][j] = gamma[k][j][i] = 0.5 * sum_([0.0, *terms])
    return gamma


@_shapes(lambda n: [(n, n, n), (n,)])
def _spray_contraction(gamma, v):
    """G^i = sum_jk gamma^i_jk v^j v^k (no factor 1/2)."""
    r = range(len(v))
    vv = [[v[min(j, k)] * v[max(j, k)] for k in r] for j in r]
    return [sum_(gamma[i][j][k] * vv[j][k] for j in r for k in r) for i in r]


@_shapes(lambda n: [(n, n), (n, n), (n,), (n,)])
def _lagrangian_spray(m_inv, l_xv, l_x, v):
    """G^i = sum_l m^il (sum_k L_{x^k v^l} v^k - L_{x^l}) for a Lagrangian
    L = (1/2) m_ij v^i v^j, from m^-1, l_xv[k][l] = L_{x^k v^l} and
    l_x[l] = L_{x^l}: the spray contraction of m's Christoffel symbols
    (no factor 1/2), in 2n^2 products.  Each inner sum starts at 0.0, so a
    zero inner sum is +0.0 whether its products are jets.ZERO or computed
    zeros: an L exactly independent of x gives G the same bits on float
    leaves and in the standard parts of jets."""
    r = range(len(v))
    w = [sum_([0.0, *(l_xv[k][l] * v[k] for k in r)]) - l_x[l] for l in r]
    return [sum_(m_inv[i][l] * w[l] for l in r) for i in r]


# -- geodesics ----------------------------------------------------------------


def _every_lane(holds) -> bool:
    """A bool, or over array leaves a bool array true in every lane."""
    return bool(holds.all()) if isinstance(holds, np.ndarray) else holds


def geodesic(
    F: FinslerStructure,
    x0: Sequence[float],
    v0: Sequence[float],
    time: float,
    steps: int = 1000,
) -> GeodesicPath:
    """Classical fixed-step RK4 for eta'' + G(eta') = 0, generic over leaves.

    x0, v0 and time are floats for one trajectory, or 1-D arrays with one
    lane per trajectory (time of either sign in each lane) for several in
    lock-step, each lane equal to the float run bit for bit; F.fast_spray
    must then accept array leaves, as the Randers closed form does.
    After every step it raises NonFiniteStateError if the state is
    non-finite, then DomainExitError (carrying the path truncated before
    that step) if it left the chart; over arrays, if any lane did.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_nonzero(v0)
    spray_fn = F.fast_spray or (lambda xx, vv: spray(F, xx, vv))
    x, u = _leaves(x0), _leaves(v0)
    bounds = F.chart.bounds
    path = GeodesicPath(times=[0.0], points=[tuple(x)], velocities=[tuple(u)])
    for t, x, u in _rk4(spray_fn, x, u, time / steps, steps):
        if not all(_every_lane(abs(c) < math.inf) for c in itertools.chain(x, u)):  # NaN fails
            raise NonFiniteStateError(t)
        if not all(_every_lane((lo < c) & (c < hi)) for c, (lo, hi) in zip(x, bounds)):
            raise DomainExitError(t, path)
        path.times.append(t)
        path.points.append(tuple(x))
        path.velocities.append(tuple(u))
    return path


def _rk4(spray_fn: Callable, x: list, u: list, h, steps: int):
    """Classical RK4 steps for eta'' + G(eta') = 0, generic over leaves:
    yields (t, x, u) after each step.  Float leaves carry one trajectory;
    1-D array leaves (h a float or an array of per-lane steps) carry one
    trajectory per lane."""

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


# NumPy's default_rng(seed) stream, in plain Python.  The probe grid's digit
# permutations are what SciPy's Halton draws: default_rng(seed), a PCG64
# seeded through a SeedSequence, shuffling each row in turn with
# Generator.shuffle.  Drawn here, they need no numpy.random, which a process
# that runs no Monte Carlo then never imports under NumPy 2 (it loads OpenSSL
# through secrets: about 6 MB resident), and no Generator method, whose
# stream NumPy may change between versions (only a bit generator's is fixed).

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64): the seed's 32-bit
    words hashed into a pool of four, the pool hashed out to eight words,
    paired little-endian."""
    seed = operator.index(seed)  # TypeError for a non-integer, as in NumPy
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    multiplier = 0x43B0D7E5

    def hashmix(value):
        nonlocal multiplier
        value ^= multiplier
        multiplier = multiplier * 0x931E8875 & _M32
        value = value * multiplier & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    multiplier, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ multiplier
        multiplier = multiplier * 0x58F38DED & _M32
        value = value * multiplier & _M32
        state.append(value ^ value >> 16)
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


class _PCG64:
    """The 32-bit draws of np.random.PCG64(seed): a 128-bit LCG with the
    XSL-RR output, each 64-bit output giving its low half, then its high."""

    def __init__(self, seed: int):
        high, low, inc_high, inc_low = _seed_words(seed)
        self.inc = ((inc_high << 64 | inc_low) << 1 | 1) & _M128
        # srandom: one step from 0 (the state becomes inc), the seed added, one step
        self.state = ((self.inc + (high << 64 | low)) * _PCG_MULTIPLIER + self.inc) & _M128
        self.held = None

    def next32(self) -> int:
        if self.held is not None:
            word, self.held = self.held, None
            return word
        state = self.state = (self.state * _PCG_MULTIPLIER + self.inc) & _M128
        rot = state >> 122
        word = (state >> 64 ^ state) & _M64
        word = (word >> rot | word << (-rot & 63)) & _M64
        self.held = word >> 32
        return word & _M32

    def shuffled(self, row: list) -> list:
        """Generator.shuffle(row): Fisher-Yates from the end, each index
        drawn by masked rejection (random_interval)."""
        for i in range(len(row) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            row[i], row[j] = row[j], row[i]
        return row


def _digit_permutations(d: int, seed: int) -> tuple:
    """Per column k of a d-dimensional Halton set, the k-th prime b's
    ceil(54 / log2 b) - 1 digit permutations as a (depth, b) array: each
    range(b) shuffled in turn, in column order, by one _PCG64(seed), as
    SciPy shuffles them with default_rng(seed).  They are drawn once per
    grid that _unit_grid builds."""
    rng = _PCG64(seed)
    columns = []
    for base in _primes(d):
        depth = math.ceil(54 / math.log2(base)) - 1
        columns.append(np.array([rng.shuffled(list(range(base))) for _ in range(depth)]))
    return tuple(columns)


def _scrambled_halton(d: int, count: int, seed: int) -> np.ndarray:
    """count x d scrambled Halton points (Owen, arXiv:1706.02808).

    Column k uses the k-th prime b and its digit permutations perm_j
    (_digit_permutations).  Point i is the sum over
    every permutation j of perm_j[digit_j(i)] * w_j, with w_0 = 1/b and
    w_(j+1) = w_j / b, digits past i's length (0) included.  The sum runs
    in j order (cumsum), so the points match SciPy's qmc.Halton(d,
    scramble=True, seed=seed) bit for bit.

    Every i < count has its nonzero digits in the first `length` places
    (the fewest that hold count - 1), so only those columns are computed
    per point; each later column j is perm_j[0] * w_j for every point.
    """
    out = np.empty((count, d))
    index = np.arange(count)[:, None]
    for column, (base, perms) in enumerate(zip(_primes(d), _digit_permutations(d, seed))):
        depth = len(perms)
        weights = [1.0 / base]
        for _ in range(depth - 1):
            weights.append(weights[-1] / base)
        weights = np.array(weights)
        length = 0
        while length < depth and base**length < count:
            length += 1
        digits = index // base ** np.arange(length) % base
        terms = np.empty((count, depth))
        terms[:, :length] = perms[np.arange(length), digits] * weights[:length]
        terms[:, length:] = perms[length:, 0] * weights[length:]
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


# The chart-free part of a grid, kept per process: (n, count, seed) names it,
# and every spec of one dimension probed at one (count, seed) shares it.
UNIT_GRIDS_KEPT = 32


@lru_cache(maxsize=UNIT_GRIDS_KEPT, typed=True)
def _unit_grid(n: int, count: int, seed: int) -> tuple[np.ndarray, tuple]:
    """(fractions, directions) of the (n, count, seed) grid: the read-only
    count x n array of position fractions 0.01 + 0.98 u in the box and the
    tuple of unit directions (tuples of floats), u being the first n and
    the last n columns of one scrambled Halton set in 2n dimensions.  The
    directions go through the normal inverse CDF and are normalized."""
    u = _scrambled_halton(2 * n, count, seed)
    fractions = 0.01 + 0.98 * u[:, :n]
    fractions.flags.writeable = False
    zs = _ndtri(np.clip(u[:, n:], 1e-12, 1.0 - 1e-12))
    norms = np.sqrt([z.dot(z) for z in zs])  # np.linalg.norm, row by row
    degenerate = norms < 1e-9
    zs[degenerate] = np.eye(n)[0]
    norms[degenerate] = 1.0
    vs = zs / norms[:, None]
    return fractions, tuple(map(tuple, vs.tolist()))


def probe_pairs(
    chart: CoordinateChart, count: int = 100, seed: int = 0
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Low-discrepancy (x, v) probes: x 1% inside the domain, v on the unit sphere.

    Scrambled Halton in 2n dimensions; the first n map to the chart box,
    the rest go through the normal inverse CDF and are normalized.  The
    chart-free part (the fractions and the directions, _unit_grid) is
    built once per (n, count, seed) and kept for the process, up to
    UNIT_GRIDS_KEPT of them; each call maps the fractions to its chart's
    box and returns a new list.
    """
    fractions, directions = _unit_grid(chart.dimension, count, seed)
    lo, hi = np.array(chart.bounds, dtype=float).T
    xs = lo + fractions * (hi - lo)
    return list(zip(map(tuple, xs.tolist()), directions))


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
