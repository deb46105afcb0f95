"""Randers structures F = alpha + beta and the vanishing-S criterion.

A RandersSpace holds a Riemannian metric a_ij and a one-form b_i as
parsed coordinate expressions.  PointData holds the covariant
derivative b_{i|j} at a point, the closed-form spray and its X/Y split;
validate_space checks a probe grid and folds PointData into columns of
the Killing / constant-length / parallel defects.  The geodesics of
finsler(space) run PointData's spray on every leaf, through the kernels
core._kernel writes once per dimension; nothing is written per space.
The module also gives the Busemann-Hausdorff density and the final
verdict: the space admits a measure with vanishing S-curvature exactly
when beta is a Killing form of constant length, and the certificate
measure is the Busemann-Hausdorff one.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import expr, jets
from .core import CoordinateChart, FinslerStructure, probe_points
from .core import _christoffel, _kernel, _shapes, _spray_contraction
from .jets import ZERO, Jet, Scalar, _leaves, partial, seed_group, standard_part
from .linalg import _stacked, det, inv, sum_

__all__ = [
    "RandersSpace",
    "BetaAnalysis",
    "TheoremVerdict",
    "InvalidSpaceError",
    "build_space",
    "validate_space",
    "alpha",
    "beta",
    "finsler",
    "beta_length",
    "beta_length_squared",
    "PointData",
    "spray_closed_form",
    "theorem_verdict",
    "decide",
    "bh_density_closed_form",
]


class InvalidSpaceError(ValueError):
    """The (a, b) data violates a Randers-space requirement."""


@dataclass(frozen=True, eq=False)
class RandersSpace:
    chart: CoordinateChart
    a: tuple  # n x n of ScalarField; [i][j] and [j][i] are the same object
    b: tuple  # n of ScalarField

    @property
    def dimension(self) -> int:
        return self.chart.dimension


# Compiled expression tables, keyed by space identity (spaces are immutable).
# "a" is n x n ([i][j] and [j][i] are the same closure), "b" has n entries;
# both evaluate the subtrees that "shared" lists once per pass
# (expr.SharedSubtrees.pass_args).
_COMPILED: "weakref.WeakKeyDictionary[RandersSpace, dict]" = weakref.WeakKeyDictionary()


def _fns(space: RandersSpace) -> dict:
    table = _COMPILED.get(space)
    if table is None:
        names = space.chart.names
        n = space.dimension
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        shared = expr.SharedSubtrees([*(space.a[i][j] for i, j in upper), *space.b])
        a = [[None] * n for _ in range(n)]
        for i, j in upper:
            a[i][j] = a[j][i] = expr.compile_field(space.a[i][j], names, shared)
        table = {
            "a": a,
            "b": [expr.compile_field(f, names, shared) for f in space.b],
            "shared": shared,
        }
        _COMPILED[space] = table
    return table


@dataclass
class BetaAnalysis:
    """The one-form's covariant derivative and length at the probes, from
    validate_space's pass, in columns: each entry is the list of one
    quantity's values over the probes (covariant[i][j][k] is b_{i|j} at
    probe k).  The sups, the length range and the Busemann-Hausdorff
    certificate are computed from the columns at first read."""

    probes: list
    covariant: list  # n x n columns of b_{i|j}
    killing_defects: list  # max |b_{i|j} + b_{j|i}| per probe
    parallel_defects: list  # max |b_{i|j}| per probe
    lengths: list  # ||beta|| per probe
    length_gradients: list  # n columns of d(||beta||^2)/dx_i
    raised: list  # n columns of b^i = a^{ij} b_j
    length_squares: list  # ||beta||^2 per probe
    metric_dets: list  # det a per probe

    @functools.cached_property
    def killing_defect_sup(self) -> float:
        return max([0.0, *self.killing_defects])

    @functools.cached_property
    def parallel_defect_sup(self) -> float:
        return max([0.0, *self.parallel_defects])

    @functools.cached_property
    def length_min(self) -> float:
        return min([math.inf, *self.lengths])

    @functools.cached_property
    def length_max(self) -> float:
        return max([0.0, *self.lengths])

    @functools.cached_property
    def length_gradient_sup(self) -> float:
        return max([0.0, *map(abs, itertools.chain.from_iterable(self.length_gradients))])

    @functools.cached_property
    def bh_density_values(self) -> list:
        """sigma_BH per probe, from one _bh_density pass over the
        length_squares and metric_dets columns (jets.lanewise: math lane
        by lane, so each value is the float computation of its probe bit
        for bit); an inf det a gives an inf value, and at a length >= 1
        (which validate_space refuses) the power raises."""
        n = len(self.raised)
        points = list(zip(self.length_squares, self.metric_dets))
        return jets.lanewise(lambda p: _bh_density(p[0], p[1], n), points)


@dataclass
class TheoremVerdict:
    """decide's verdict on one validate_space analysis, which it holds."""

    admits: bool
    reason: str  # killing-violated | length-not-constant | satisfied
    analysis: BetaAnalysis
    bh_density_probe_values: Optional[list]  # the certificate when the space admits
    tol_killing: float
    tol_length: float


REASON_KILLING = "killing-violated"
REASON_LENGTH = "length-not-constant"
REASON_SATISFIED = "satisfied"


def build_space(
    names: Sequence[str],
    bounds: Sequence[tuple[float, float]],
    metric: Sequence[Sequence[str | expr.ScalarField]],
    one_form: Sequence[str | expr.ScalarField],
) -> RandersSpace:
    """Parse expression strings into a RandersSpace; an entry that is
    already an expr.ScalarField is taken as it is.

    The metric must be symmetric: mirrored entries are accepted when the
    ASTs match or the values agree at 20 probe points; the stored matrix
    then shares one field per unordered index pair, so symmetry is exact
    from here on.  Call validate_space afterwards for the probe-based
    positivity checks and the beta analysis.
    """
    chart = CoordinateChart(tuple(names), tuple((float(lo), float(hi)) for lo, hi in bounds))
    n = chart.dimension
    if len(metric) != n or any(len(row) != n for row in metric):
        raise InvalidSpaceError(f"metric must be {n}x{n}")
    if len(one_form) != n:
        raise InvalidSpaceError(f"one-form must have {n} components")
    parsed = [[_field(metric[i][j], names) for j in range(n)] for i in range(n)]
    b = tuple(_field(s, names) for s in one_form)
    _check_symmetry(chart, parsed)
    a = tuple(
        tuple(parsed[i][j] if i <= j else parsed[j][i] for j in range(n))
        for i in range(n)
    )
    return RandersSpace(chart=chart, a=a, b=b)


def _field(entry, names) -> expr.ScalarField:
    return entry if isinstance(entry, expr.ScalarField) else expr.parse(entry, names)


def _check_symmetry(chart, parsed) -> None:
    n = chart.dimension
    pts = None
    for i in range(n):
        for j in range(i + 1, n):
            if parsed[i][j].ast == parsed[j][i].ast:
                continue
            if pts is None:
                pts = probe_points(chart, 20, seed=0)
            for x in pts:
                env = dict(zip(chart.names, x))
                upper = expr.evaluate(parsed[i][j], env)
                lower = expr.evaluate(parsed[j][i], env)
                if abs(upper - lower) > 1e-10 * (1.0 + abs(upper)):
                    raise InvalidSpaceError(
                        f"asymmetric metric: a[{i}][{j}] = '{parsed[i][j].source}' vs "
                        f"a[{j}][{i}] = '{parsed[j][i].source}' differ at x = {x}"
                    )


def validate_space(space: RandersSpace, points: Sequence) -> BetaAnalysis:
    """Probe-based admissibility at the given x-positions (e.g. probe_points):
    finite a and b, a positive definite and sup ||beta|| < 1; returns the
    BetaAnalysis of the points.

    One pass over array leaves (jets.lanewise), one lane per point: the
    first-order jets of a and b, the checks on their values (finite
    metric, finite one-form, one stacked Cholesky), then PointData's
    b_{i|j}, b^i and length gradient, ||beta||^2 and det a.  A failed
    check raises in the pass, so the per-point loop names the first point.
    """

    def row(x):
        first_order = _first_order_data(space, _leaves(x))
        a, _, b, _ = first_order
        stacked = _stacked(a)
        for label, entries in (("metric", stacked), ("one-form", np.broadcast_arrays(*b))):
            if not np.isfinite(entries).all():
                raise InvalidSpaceError(f"{label} not finite at x = {x}")
        try:
            np.linalg.cholesky(stacked)
        except np.linalg.LinAlgError:
            raise InvalidSpaceError(f"metric not positive definite at x = {x}") from None
        data = PointData.__new__(PointData)
        data._derive(*first_order, inv)
        r, bc = range(len(b)), data.bcov
        lsq = _length_squared(data.a_inv, b)
        killing = jets.maximum([abs(bc[i][j] + bc[j][i]) for i in r for j in r])
        parallel = jets.maximum([abs(bc[i][j]) for i in r for j in r])
        gradient = data.length_gradient()
        return [bc, killing, parallel, jets.sqrt(lsq), gradient, data.b_up, lsq, det(a)]

    probes = list(points)
    if probes:
        columns = jets.lanewise(row, probes)
    else:
        r = range(space.dimension)
        columns = [[[[] for _ in r] for _ in r], [], [], [], [[] for _ in r], [[] for _ in r], [], []]
    analysis = BetaAnalysis(probes, *columns)
    if analysis.length_max >= 1.0:
        raise InvalidSpaceError(
            f"one-form length reaches {analysis.length_max:.6g} >= 1; F is not positive"
        )
    return analysis


# -- pointwise evaluation -------------------------------------------------------


def a_at(space: RandersSpace, x) -> list:
    """Metric entries at x (floats or jets follow the input scalars)."""
    table = _fns(space)
    return _metric(table, table["shared"].pass_args(x))


def b_at(space: RandersSpace, x) -> list:
    table = _fns(space)
    return _one_form(table, table["shared"].pass_args(x))


def a_and_b(space: RandersSpace, x) -> tuple[list, list]:
    """(a_at, b_at) at x from one evaluation pass, a first: a subtree that
    several entries share is evaluated once."""
    table = _fns(space)
    args = table["shared"].pass_args(x)
    return _metric(table, args), _one_form(table, args)


def _metric(table: dict, args) -> list:
    fns = table["a"]
    n = len(fns)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = fns[i][j](args)
    return out


def _one_form(table: dict, args) -> list:
    return [fn(args) for fn in table["b"]]


def alpha(a, v) -> Scalar:
    """alpha(v) = sqrt(a_ij v^i v^j) for the metric entries a = a_at(space, x)."""
    n = len(a)
    terms = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms[i][j] = t = a[i][j] * (v[i] * v[j])
            # A shared mirrored entry (as a_at gives) makes the (j, i) term
            # this one bit for bit: products of floats, arrays and jets
            # commute exactly (a jet product's slots are the same two
            # products, summed in swapped order).
            terms[j][i] = t if a[j][i] is a[i][j] else a[j][i] * (v[j] * v[i])
    return jets.sqrt(sum_([t for row in terms for t in row]))


def beta(b, v) -> Scalar:
    """beta(v) = b_i v^i for the one-form entries b = b_at(space, x)."""
    return sum_([bi * vi for bi, vi in zip(b, v)])


def finsler(space: RandersSpace) -> FinslerStructure:
    """Wrap F = alpha + beta for the generic tensor calculus.

    The exact closed-form spray rides along as fast_spray, which geodesic
    runs at every RK4 stage (and through it the transport oracle,
    s_curvature_transport and its batch form).  On float and array
    leaves alike it is PointData(space, x).spray(v)[0], one first-order
    jet pass and the per-dimension kernels; an exact zero v on float
    leaves gives the zero spray.  The generic jet-derived spray remains
    the reference for the closed form, and the two are compared in the
    validation suite.
    """

    def func(x, v):
        a, b = a_and_b(space, x)
        return alpha(a, v) + beta(b, v)

    def fast_spray(x, v):
        if not isinstance(v[0], np.ndarray) and all(standard_part(c) == 0.0 for c in v):
            return [0.0] * space.dimension
        return PointData(space, x).spray(v)[0]

    return FinslerStructure(chart=space.chart, func=func, fast_spray=fast_spray)


def beta_length_squared(space: RandersSpace, x) -> Scalar:
    """||beta||^2(x) = a^ij b_i b_j; jet-evaluable (smooth even at zeros)."""
    a, b = a_and_b(space, x)
    return _length_squared(inv(a), b)


def _length_squared(a_inv, b) -> Scalar:
    n = len(b)
    return sum_(a_inv[i][j] * (b[i] * b[j]) for i in range(n) for j in range(n))


def beta_length(space: RandersSpace, x, a=None, b=None) -> Union[float, np.ndarray]:
    """||beta||(x) at a float point, or in every lane of array leaves (not
    differentiable where beta vanishes).  `a` and `b`, the metric and the
    one-form at x, spare their evaluation when the caller already holds
    them."""
    if a is None:
        a = a_at(space, x)
    if b is None:
        b = b_at(space, x)
    return jets.sqrt(standard_part(_length_squared(inv(a), b)))


# -- the closed forms at a point -------------------------------------------------


def _first_order_data(space: RandersSpace, x):
    """a, da, b, db at x from one jet pass (float leaves, or array leaves
    for a batch of points).

    da[k][i][j] = da_ij/dx_k and db[k][i] = db_i/dx_k.  The kernel that
    sorts them out takes one row (value, *partials) per entry of a
    (row-major) and of b: nested lists of shapes (n*n, n+1) and (n, n+1),
    which Stage.unpack binds.
    """
    n = space.dimension
    xs = seed_group(x, range(n))
    # Entries are one-level jets over leaves, or leaf constants.
    zeros = (ZERO,) * n
    a_jets, b_jets = a_and_b(space, xs)
    a_rows = [
        (e.value, *e.partials) if isinstance(e, Jet) else (e, *zeros) for row in a_jets for e in row
    ]
    b_rows = [(e.value, *e.partials) if isinstance(e, Jet) else (e, *zeros) for e in b_jets]
    return _kernel(_first_order, n)(a_rows, b_rows)


# -- kernels ---------------------------------------------------------------------
#
# Plain loops that core._kernel writes once per n as straight-line functions,
# like core's Christoffel and spray loops, which PointData runs too.


@_shapes(lambda n: [(n * n, n + 1), (n, n + 1)])
def _first_order(a_rows, b_rows):
    """a, da, b, db from the rows (value, *partials) of a (row-major) and b."""
    n = len(b_rows)
    r = range(n)
    a = [[a_rows[n * i + j][0] for j in r] for i in r]
    da = [[[a_rows[n * i + j][1 + k] for j in r] for i in r] for k in r]
    b = [row[0] for row in b_rows]
    db = [[row[1 + k] for row in b_rows] for k in r]
    return a, da, b, db


@_shapes(lambda n: [(n, n), (n,), (n, n), (n, n, n)])
def _covariant(a_inv, b, db, gamma):
    """b^i = 0.0 + sum_j a^ij b_j and b_{i|j} = db_i/dx_j - (0.0 + sum_k b_k
    gamma^k_ij), the contraction once per lower pair."""
    n = len(b)
    r = range(n)
    b_up = [sum_([0.0, *(a_inv[i][j] * b[j] for j in r)]) for i in r]
    c = [[None] * n for _ in r]
    for i in r:
        for j in range(i, n):
            c[i][j] = c[j][i] = sum_([0.0, *(b[k] * gamma[k][i][j] for k in r)])
    return b_up, [[db[j][i] - c[i][j] for j in r] for i in r]


@_shapes(lambda n: [(n, n), (n, n), (n,), (n,), (n, n), (n, n, n), (n,)])
def _xy_split(a, a_inv, b, b_up, q, gamma, v):
    """(X, Y, riem) of the spray decomposition at v (PointData._xy_split);
    riem is the spray of a.  Each shared product is written in one operand
    order (v^j v^k with j <= k, a^ij v^k, b^k v^j), so that the written
    function forms it once."""
    r = range(len(b))
    riem = _spray_contraction(gamma, v)
    vv = [[v[min(j, k)] * v[max(j, k)] for k in r] for j in r]
    al = jets.sqrt(sum_(a[i][j] * vv[i][j] for i in r for j in r))
    f = al + sum_(b[i] * v[i] for i in r)
    x_cmp = [
        sum_(q[j][k] * (a_inv[i][j] * v[k] - a_inv[i][k] * v[j]) for j in r for k in r) * al
        for i in r
    ]
    s1 = sum_(q[j][k] * vv[j][k] for j in r for k in r)
    s2 = sum_(q[j][k] * (b_up[k] * v[j] - b_up[j] * v[k]) for j in r for k in r)
    common = s1 + s2 * al
    return x_cmp, [(v[i] / f) * common for i in r], riem


class PointData:
    """What one first-order jet pass at x holds: a, its inverse, b, the
    raised b^i = a^{ij} b_j, the Levi-Civita symbols gamma of a and the
    covariant derivative bcov[i][j] = b_{i|j} = db_i/dx_j - sum_k b_k
    gamma^k_ij.  The methods give the closed-form spray, its X/Y traces
    and the length gradient at x.

    On float leaves every entry is a float; on 1-D array leaves (a grid
    of points, one lane per point, as jets.lanewise passes them) every
    entry is an array whose lane k equals the float entry of point k bit
    for bit.  The x-only counterpart of core.PairTensors.
    """

    __slots__ = ("a", "a_inv", "b", "b_up", "bcov", "gamma")

    def __init__(self, space: RandersSpace, x):
        self._derive(*_first_order_data(space, _leaves(x)), inv)

    def _derive(self, a, da, b, db, inverse) -> None:
        """The entries from the first-order data, with a_inv = inverse(a)."""
        n = len(b)
        self.a, self.b = a, b
        self.a_inv = a_inv = inverse(a)
        self.gamma = gamma = _kernel(_christoffel, n)(a_inv, da)
        self.b_up, self.bcov = _kernel(_covariant, n)(a_inv, b, db, gamma)

    def length_gradient(self) -> list:
        """d(||beta||^2)/dx_i via the covariant identity 2 sum_j b_{j|i} b^j."""
        n = len(self.b)
        return [2.0 * sum(self.bcov[j][i] * self.b_up[j] for j in range(n)) for i in range(n)]

    def spray(self, v):
        """(G, X, Y, riem) of the Randers closed form at v; v must be
        nonzero (not checked)."""
        x_cmp, y_cmp, riem = self._xy_split(v)
        g = [r + xc + yc for r, xc, yc in zip(riem, x_cmp, y_cmp)]
        return g, x_cmp, y_cmp, riem

    def traces(self, v) -> tuple[Scalar, Scalar]:
        """(sum_i dX^i/dv^i, sum_i dY^i/dv^i) from one X/Y split at seeded
        v; the X trace vanishes identically and is kept as a live check."""
        n = len(self.b)
        vs = seed_group(_leaves(v), range(n))
        x_cmp, y_cmp, _ = self._xy_split(vs)
        return tuple(
            standard_part(sum_(partial(c[i], i) for i in range(n))) for c in (x_cmp, y_cmp)
        )

    def trace_dY_closed_form(self, v) -> Scalar:
        """The reduced form of sum_i dY^i/dv^i:

        (n+1)/2 * sum (b_{i|j}+b_{j|i}) v^i v^j / F
          + (n+1) * sum (b_{i|j}-b_{j|i}) b^j alpha v^i / F.
        """
        n = len(self.b)
        q = self.bcov
        al = standard_part(alpha(self.a, v))
        f = al + sum(bi * vi for bi, vi in zip(self.b, v))
        sym = sum(
            (q[i][j] + q[j][i]) * v[i] * v[j] for i in range(n) for j in range(n)
        )
        skew = sum(
            (q[i][j] - q[j][i]) * self.b_up[j] * v[i] for i in range(n) for j in range(n)
        )
        return 0.5 * (n + 1) * sym / f + (n + 1) * skew * al / f

    def _xy_split(self, v):
        """(X, Y, riem) of the spray decomposition at generic v:

        X^i = alpha * sum_jk b_{j|k} (a^ij v^k - a^ik v^j),
        Y^i = v^i / F * (sum_jk b_{j|k} v^j v^k
                         + alpha * sum_jk b_{j|k} (b^k v^j - b^j v^k)),
        riem^i = sum_jk gamma^i_jk v^j v^k.
        """
        xy_split = _kernel(_xy_split, len(self.b))
        return xy_split(self.a, self.a_inv, self.b, self.b_up, self.bcov, self.gamma, v)


def spray_closed_form(space: RandersSpace, x, v):
    """(G, X, Y, riem) of the Randers closed form at one float point; v
    must be nonzero.  The single-point entry the benchmark's tracer spans;
    programs build PointData(space, x) and call its spray."""
    if all(standard_part(c) == 0.0 for c in v):
        raise InvalidSpaceError("closed-form spray needs v != 0")
    return PointData(space, x).spray(v)


# -- beta analysis and the verdict ------------------------------------------------


def theorem_verdict(
    space: RandersSpace,
    probes: Optional[Sequence] = None,
    tol_killing: float = 1e-9,
    tol_length: float = 1e-8,
) -> TheoremVerdict:
    """Decide whether the space admits a measure with vanishing S-curvature:
    decide on validate_space's analysis of the probes, which default to
    probe_points(space.chart)."""
    probes = probe_points(space.chart) if probes is None else probes
    return decide(validate_space(space, probes), tol_killing, tol_length)


def decide(analysis: BetaAnalysis, tol_killing: float, tol_length: float) -> TheoremVerdict:
    """The verdict from validate_space's analysis.

    The decision reads the one-form alone: the defect sups must certify a
    Killing form of constant length.  An admitting verdict carries the
    analysis' Busemann-Hausdorff density at each probe as its certificate
    (any other vanishing-S measure is a constant multiple of it).
    """
    if not (tol_killing > 0 and tol_length > 0):
        raise ValueError("tolerances must be positive")
    if analysis.killing_defect_sup > tol_killing:
        reason = REASON_KILLING
    elif (
        analysis.length_max - analysis.length_min <= tol_length
        and analysis.length_gradient_sup <= tol_length
    ):
        reason = REASON_SATISFIED
    else:
        reason = REASON_LENGTH
    admits = reason == REASON_SATISFIED
    certificate = analysis.bh_density_values if admits else None
    return TheoremVerdict(admits, reason, analysis, certificate, tol_killing, tol_length)


def bh_density_closed_form(space: RandersSpace, x) -> Scalar:
    """sigma_BH(x) = (1 - ||beta||^2)^((n+1)/2) * sqrt(det a); jet-evaluable."""
    n = space.dimension
    a, b = a_and_b(space, x)
    len_sq = _length_squared(inv(a), b)
    worst = standard_part(len_sq)
    if isinstance(worst, np.ndarray):
        worst = worst.max()
    if worst >= 1.0:
        raise InvalidSpaceError(
            f"||beta||^2 = {worst:.6g} >= 1 at x = "
            f"{tuple(standard_part(c) for c in x)}"
        )
    return _bh_density(len_sq, det(a), n)


def _bh_density(len_sq, det_a, n: int) -> Scalar:
    """(1 - ||beta||^2)^((n+1)/2) * sqrt(det a) from its two inputs."""
    return jets.powf(1.0 - len_sq, 0.5 * (n + 1)) * jets.sqrt(det_a)
