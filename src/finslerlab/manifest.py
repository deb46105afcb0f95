"""Manifold-spec JSON loading and validation.

The on-disk format (schema 1):

    {
      "schema": 1,
      "name": "flat-const",              // optional; a string
      "description": "...",              // optional
      "dimension": 2,
      "coordinates": ["x1", "x2"],
      "metric": [["1", "0"], ["0", "1"]],
      "beta": ["0.5", "0"],
      "domain": [[-1.0, 1.0], [-1.0, 1.0]],
      "measure": {"kind": "custom", "density": "exp(x1)"}   // optional
    }

All expressions are strings in the expr-module grammar.  probed_space
validates a spec once and builds its space from the parsed expressions.
Validation reproduces the RandersSpace invariants: consistent shapes,
coordinate names the grammar reads as names, finite domain intervals,
parseable expressions (at most expr.MAX_DEPTH levels deep), a finite,
symmetric, positive-definite metric and a finite one-form at probe
points, and sup ||beta|| < 1.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import expr, randers, scurvature
from .core import probe_grid

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "SpecValidationError",
    "validate_spec_data",
    "load_spec",
    "space_from_spec",
    "probed_space",
    "measure_from_spec",
    "spec_digest",
]


class SpecValidationError(ValueError):
    """The manifold spec file is malformed or inconsistent."""


def spec_digest(raw: bytes) -> str:
    # hashlib loads OpenSSL (about 3.5 MB resident): it is imported by the
    # first digest, not by a process that only builds spaces from dicts.
    import hashlib

    return hashlib.sha256(raw).hexdigest()


def load_spec(path) -> tuple[dict, str]:
    """Read and decode a spec file, refusing the non-JSON NaN, Infinity and
    -Infinity; returns (data, sha256 digest).  probed_space validates."""
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"not valid JSON: {exc}") from None
    return data, spec_digest(raw)


def _refuse_constant(token: str):
    raise SpecValidationError(f"not valid JSON: the constant {token} is not a number")


def validate_spec_data(data):
    """Check a decoded spec; returns its parsed (metric rows, one-form,
    density), density None unless the spec declares a custom measure."""
    if not isinstance(data, dict):
        raise SpecValidationError("spec must be a JSON object")
    schema = data.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:  # JSON true equals 1 in Python
        raise SpecValidationError(
            f"unsupported schema {schema!r}; this tool reads schema {SCHEMA_VERSION}"
        )
    name = data.get("name", "")
    if not isinstance(name, str):  # every report echoes it
        raise SpecValidationError(f"name must be a string, got {type(name).__name__}")
    for key in ("dimension", "coordinates", "metric", "beta", "domain"):
        if key not in data:
            raise SpecValidationError(f"missing required field '{key}'")
    n = data["dimension"]
    if not isinstance(n, int) or n < 2:
        raise SpecValidationError(f"dimension must be an integer >= 2, got {n!r}")
    coords = data["coordinates"]
    if (
        not isinstance(coords, list)
        or len(coords) != n
        or not all(isinstance(c, str) for c in coords)
    ):
        raise SpecValidationError(f"coordinates must be {n} names")
    try:
        expr.check_coordinates(coords)
    except expr.ExprError as exc:
        raise SpecValidationError(str(exc)) from None
    metric = data["metric"]
    if (
        not isinstance(metric, list)
        or len(metric) != n
        or any(not isinstance(row, list) or len(row) != n for row in metric)
        or any(not isinstance(e, str) for row in metric for e in row)
    ):
        raise SpecValidationError(f"metric must be an {n}x{n} array of expression strings")
    one_form = data["beta"]
    if (
        not isinstance(one_form, list)
        or len(one_form) != n
        or any(not isinstance(e, str) for e in one_form)
    ):
        raise SpecValidationError(f"beta must be {n} expression strings")
    domain = data["domain"]
    if (
        not isinstance(domain, list)
        or len(domain) != n
        or any(not isinstance(iv, list) or len(iv) != 2 for iv in domain)
    ):
        raise SpecValidationError(f"domain must be {n} [lo, hi] intervals")
    for lo, hi in domain:
        try:
            finite = (
                all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in (lo, hi))
                and lo < hi and math.isfinite(float(hi) - float(lo))
            )
        except OverflowError:  # an integer bound past the float range
            finite = False
        if not finite:
            raise SpecValidationError(f"bad domain interval [{lo!r}, {hi!r}]")
    # Entries with the same source share one field: equal ASTs share one
    # memo slot in expr.SharedSubtrees, so the values are those of one
    # field per entry.
    parsed: dict = {}
    fields = []
    for source in [e for row in metric for e in row] + list(one_form):
        if source not in parsed:
            try:
                parsed[source] = expr.parse(source, coords)
            except expr.ExprError as exc:
                raise SpecValidationError(f"bad expression '{source}': {exc}") from None
        fields.append(parsed[source])
    density = None
    measure = data.get("measure")
    if measure is not None:
        if not isinstance(measure, dict) or "kind" not in measure:
            raise SpecValidationError("measure must be an object with a 'kind'")
        kind = measure["kind"]
        if kind not in scurvature.MEASURE_KINDS:
            raise SpecValidationError(
                f"measure kind '{kind}' not in {scurvature.MEASURE_KINDS}"
            )
        if kind == "custom":
            source = measure.get("density")
            if not isinstance(source, str):
                raise SpecValidationError("custom measure needs a 'density' expression")
            try:
                density = expr.parse(source, coords)
            except expr.ExprError as exc:
                raise SpecValidationError(f"bad density '{source}': {exc}") from None
    return [fields[i * n : (i + 1) * n] for i in range(n)], fields[n * n :], density


def space_from_spec(data: dict, probe_count: int = 100, seed: int = 0):
    """Build and probe-validate the RandersSpace described by `data`."""
    return probed_space(data, probe_count, seed)[0]


def probed_space(data: dict, probe_count: int, seed: int):
    """space_from_spec that also hands back what its one probe pass
    computed and the parsed custom density: (space, pairs, analysis,
    density), with (pairs, points) = core.probe_grid, analysis =
    randers.validate_space(space, points), whose probes are the points,
    and density as validate_spec_data returns it, for measure_from_spec.
    The spec is validated here, and only here.  A command that probes
    builds its one grid here, and evaluates a and b on it once."""
    metric, one_form, density = validate_spec_data(data)
    space = randers.build_space(data["coordinates"], data["domain"], metric, one_form)
    pairs, points = probe_grid(space.chart, probe_count, seed)
    return space, pairs, randers.validate_space(space, points), density


def measure_from_spec(space, data: dict, kind: str | None = None, density=None):
    """Measure selected by `kind`, falling back to the spec's measure field.

    Default when neither is given: the Busemann-Hausdorff measure (the
    certificate measure of the vanishing-S criterion).  `density` is the
    spec's custom density as probed_space parsed it; without it, a custom
    measure parses the spec's density here.
    """
    declared = data.get("measure") or {}
    chosen = kind or declared.get("kind") or "busemann-hausdorff"
    if chosen == "custom" and density is None:
        source = declared.get("density")
        if not isinstance(source, str):
            raise SpecValidationError(
                "custom measure requested but the spec has no measure.density"
            )
        density = expr.parse(source, data["coordinates"])
    return scurvature.measure_from_kind(space, chosen, density)
