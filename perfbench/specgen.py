"""Seeded manifold-spec generator for the benchmark workloads.

Five families whose `analyze` verdict is known before the program runs:

    flat-const        flat metric, constant b                  -> satisfied
    riemannian        b = 0 on a polar or conformal metric     -> satisfied
    hopf              scaled sphere-hopf (n = 3 only)          -> satisfied
    killing-violated  flat metric, linear b with a symmetric part
    length-varies     flat metric, rotational (skew) linear b  -> length-not-constant

The *shape* of every workload (which family, dimension and expression
size sits at which position) is fixed; the seed draws the numbers
(coefficients, ||beta||, domains, probe points).  Two seeds therefore
give different inputs of the same cost mix, which is what keeps the
per-run throughput comparable between runs.

Every generated spec carries a `bench` block with its family, the
expected verdict reason, whether it admits the vanishing-S measure and
whether b = 0 (the program ignores unknown keys).  The six catalog specs
are included unchanged; their expectations come from CATALOG_EXPECTED.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

REASON_SATISFIED = "satisfied"
REASON_KILLING = "killing-violated"
REASON_LENGTH = "length-not-constant"

FAMILIES = ("flat-const", "riemannian", "hopf", "killing-violated", "length-varies")
DIMENSIONS = {
    "flat-const": (2, 3, 4),
    "riemannian": (2, 3, 4),
    "hopf": (3,),
    "killing-violated": (2, 3, 4),
    "length-varies": (2, 3, 4),
}
SIZES = (0, 1, 2)

# Catalog verdicts, for the unchanged catalog specs.
CATALOG_EXPECTED = {
    "euclidean2": (REASON_SATISFIED, True),
    "flat-const": (REASON_SATISFIED, False),
    "flat-nonkilling": (REASON_KILLING, False),
    "rotational-killing": (REASON_LENGTH, False),
    "polar-riemannian": (REASON_SATISFIED, True),
    "sphere-hopf": (REASON_SATISFIED, False),
}

_SPHERE_CONF = "(1 + x1^2 + x2^2 + x3^2)"


def num(value: float) -> str:
    """Six-decimal literal: every generated coefficient is printed this way."""
    return f"{value:.6f}"


def _coords(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def _unity(size: int, var: str) -> str:
    """An expression equal to 1 whose parse and jet cost grow with `size`."""
    if size == 0:
        return ""
    if size == 1:
        return f"(sin({var})^2 + cos({var})^2)"
    return f"(cosh({var})^2 - sinh({var})^2) * (sin({var})^2 + cos({var})^2)"


def _times(base: str, size: int, var: str) -> str:
    factor = _unity(size, var)
    if base == "0" or not factor:
        return base
    return f"{base}*{factor}"


def _linear(row: list[float], coords: list[str]) -> str:
    terms = [f"{num(c)}*{x}" for c, x in zip(row, coords) if c != 0.0]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _identity(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def unit_vector(rng: random.Random, n: int) -> list[float]:
    while True:
        z = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in z))
        if norm > 1e-3:
            return [c / norm for c in z]


def _spec(coords, metric, beta, domain, family, reason, b_zero) -> dict:
    return {
        "schema": 1,
        "dimension": len(coords),
        "coordinates": coords,
        "metric": metric,
        "beta": beta,
        "domain": domain,
        "bench": {
            "family": family,
            "reason": reason,
            "admits": reason == REASON_SATISFIED,
            "b_zero": b_zero,
        },
    }


def flat_const(rng: random.Random, n: int, size: int) -> dict:
    coords = _coords(n)
    length = rng.uniform(0.2, 0.85)
    b = [length * c for c in unit_vector(rng, n)]
    beta = [_times(num(c), size, coords[i % n]) for i, c in enumerate(b)]
    domain = [[-1.0, 1.0] for _ in range(n)]
    return _spec(coords, _identity(n), beta, domain, "flat-const", REASON_SATISFIED, False)


def riemannian(rng: random.Random, n: int, size: int) -> dict:
    """b = 0: polar coordinates at size 0, a conformally flat metric otherwise."""
    coords = _coords(n)
    zero = ["0"] * n
    if size == 0:
        r_lo = rng.uniform(0.3, 0.8)
        domain = [[r_lo, r_lo + rng.uniform(1.0, 2.0)]]
        diag = ["1"]
        scale = f"{coords[0]}^2"
        for k in range(1, n):
            diag.append(scale)
            if k < n - 1:  # angles with a sin factor stay away from its zeros
                scale = f"{scale}*sin({coords[k]})^2"
                domain.append([rng.uniform(0.3, 0.6), rng.uniform(2.5, 2.8)])
            else:
                domain.append([0.0, 6.283185307179586])
        metric = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
    else:
        c = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        phi = _linear(c, coords)
        if size == 2:
            q = rng.uniform(0.1, 0.4)
            phi = f"{phi} + {num(q)}*{coords[0]}*{coords[-1]}"
        conf = f"exp({phi})"
        metric = [[conf if i == j else "0" for j in range(n)] for i in range(n)]
        domain = [[-1.0, 1.0] for _ in range(n)]
    return _spec(coords, metric, zero, domain, "riemannian", REASON_SATISFIED, True)


def hopf(rng: random.Random, n: int, size: int) -> dict:
    """sphere-hopf with the metric scaled by lam and ||beta|| = length."""
    if n != 3:
        raise ValueError("the hopf family is three-dimensional")
    coords = _coords(3)
    lam = rng.uniform(0.5, 2.0)
    length = rng.uniform(0.1, 0.85)
    # Rounded first, so the 2:1 ratio of the printed coefficients is exact.
    c = round(length * math.sqrt(lam), 6)
    g = _times(f"{num(4.0 * lam)}/{_SPHERE_CONF}^2", size, coords[0])
    metric = [[g if i == j else "0" for j in range(3)] for i in range(3)]
    beta = [
        f"{num(4.0 * c)}*(x1*x3 - x2)/{_SPHERE_CONF}^2",
        f"{num(4.0 * c)}*(x2*x3 + x1)/{_SPHERE_CONF}^2",
        f"{num(2.0 * c)}*(1 + x3^2 - x1^2 - x2^2)/{_SPHERE_CONF}^2",
    ]
    domain = [[-1.0, 1.0] for _ in range(3)]
    return _spec(coords, metric, beta, domain, "hopf", REASON_SATISFIED, False)


def _scale_to_length(m: list[list[float]], half: float, rng: random.Random) -> list[list[float]]:
    """Scale `m` so that sup |m x| over the box [-half, half]^n lies in [0.7, 0.85].

    |m x|^2 is convex, so its maximum over the box sits at a corner.  The
    lower end keeps the non-admitting spaces' S-curvature large enough
    for the battery's theorem-end-to-end floor.
    """
    n = len(m)
    sup = max(
        math.sqrt(sum(sum(row[j] * x[j] for j in range(n)) ** 2 for row in m))
        for x in itertools.product((-half, half), repeat=n)
    )
    scale = rng.uniform(0.7, 0.85) / sup
    return [[c * scale for c in row] for row in m]


def killing_violated(rng: random.Random, n: int, size: int) -> dict:
    """b = M x with a nonzero symmetric part, sup ||b|| on the box below 0.9."""
    coords = _coords(n)
    m = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        m[i][i] += math.copysign(1.0, m[i][i])  # keeps the Killing defect O(1)
    m = _scale_to_length(m, 1.0, rng)
    beta = [_times(f"({_linear(row, coords)})", size, coords[(i + 1) % n]) for i, row in enumerate(m)]
    domain = [[-1.0, 1.0] for _ in range(n)]
    return _spec(coords, _identity(n), beta, domain, "killing-violated", REASON_KILLING, False)


def length_varies(rng: random.Random, n: int, size: int) -> dict:
    """b = A x with A skew (an exact Killing form), sup ||b|| below 0.9."""
    coords = _coords(n)
    half = 2.0
    a = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0))
            a[j][i] = -a[i][j]
    a = _scale_to_length(a, half, rng)  # (-c) * s == -(c * s): still exactly skew
    beta = [_times(f"({_linear(row, coords)})", size, coords[(i + 1) % n]) for i, row in enumerate(a)]
    domain = [[-half, half] for _ in range(n)]
    return _spec(coords, _identity(n), beta, domain, "length-varies", REASON_LENGTH, False)


BUILDERS = {
    "flat-const": flat_const,
    "riemannian": riemannian,
    "hopf": hopf,
    "killing-violated": killing_violated,
    "length-varies": length_varies,
}


def generate(rng: random.Random, family: str, n: int, size: int, name: str) -> dict:
    return {"name": name, **BUILDERS[family](rng, n, size)}


def catalog_specs() -> list[dict]:
    """The six catalog specs, unchanged."""
    from finslerlab import catalog

    return [catalog.spec(name) for name in catalog.NAMES]


def expectation(spec: dict) -> dict:
    """The `bench` block of a generated spec, or the catalog verdict table."""
    if "bench" in spec:
        return spec["bench"]
    reason, b_zero = CATALOG_EXPECTED[spec["name"]]
    return {
        "family": "catalog",
        "reason": reason,
        "admits": reason == REASON_SATISFIED,
        "b_zero": b_zero,
    }


def family_grid() -> list[tuple[str, int, int]]:
    """One (family, n, size) per family and dimension, in a fixed order.

    The size rotates with family and dimension, so every family with
    three dimensions meets all three expression sizes.
    """
    return [
        (family, n, (k + n) % len(SIZES))
        for k, family in enumerate(FAMILIES)
        for n in DIMENSIONS[family]
    ]


def generate_set(seed: int, shape: list[tuple[str, int, int]], tag: str) -> list[dict]:
    """One spec per entry of `shape`, values drawn from `seed`."""
    rng = random.Random(f"{tag}:{seed}")
    return [
        generate(rng, family, n, size, f"{tag}-{k:03d}-{family}-n{n}-s{size}")
        for k, (family, n, size) in enumerate(shape)
    ]


def dump(spec: dict) -> bytes:
    return (json.dumps(spec, indent=2, sort_keys=True) + "\n").encode()


def write_specs(specs: list[dict], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        path = directory / f"{spec['name']}.json"
        path.write_bytes(dump(spec))
        paths.append(path)
    return paths
