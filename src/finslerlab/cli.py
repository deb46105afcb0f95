"""Command-line front end: batch analyses over manifold-spec JSON files.

    finslerlab analyze      SPEC [--tol-killing --tol-length --probes --seed]
    finslerlab s-curvature  SPEC --point P --vector V [--measure K --oracle ...]
    finslerlab geodesic     SPEC --from P --dir V --time T [--steps N --csv]
    finslerlab validate     SPEC [--probes --seed --mc-samples ...]
    finslerlab bh           SPEC --point P [--samples N --seed S]
    finslerlab catalog      [NAME]

Reports are strict JSON on stdout (no NaN or Infinity); re-running with
identical inputs and seed reproduces the report byte for byte except the
wall_time_s field.  Exit codes: 0 success (analyze: measure admitted),
1 invalid spec or failed validation (among them a coordinate name that
the expression grammar does not read as a name, such as sin, pi or 1a;
an expression nested more than expr.MAX_DEPTH levels deep; a metric or
one-form entry that is not finite at a probe point; a NaN, Infinity or
-Infinity constant in the spec file; a domain bound or a domain width
that is not finite, or an integer bound that no float holds; a name that
is not a string; a measure density that is not positive at the
s-curvature point; a unit ball at bh's point whose volume is out of
float range, so that the Monte-Carlo estimate cannot be formed; and a
spec expression that is undefined or overflows, an OverflowError from
math, at a point the command evaluates), 2 usage error, 3 no admissible
measure, 4 runtime domain warning (a path left the chart or blew up,
math overflowed or left its domain at an RK4 stage point of geodesic or
s-curvature --oracle, the metric rounded to a singular matrix at one of
geodesic's, s-curvature --oracle's or validate's transport oracle's,
math left its domain at one of validate's transport oracle, or a result
came out non-finite).  FINSLERLAB_SEED
sets the default seed; an explicit --seed wins.  Seeds are integers in
[0, 2**64).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__, catalog, checks, manifest, randers, scurvature
from .core import MIN_VECTOR_NORM, DomainExitError, NonFiniteStateError, geodesic
from .expr import ExprError
from .manifest import SpecValidationError
from .randers import InvalidSpaceError

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_USAGE = 2
EXIT_NO_MEASURE = 3
EXIT_RUNTIME_WARNING = 4

# Seeds key two generators: default_rng(seed)'s PCG64 stream, drawn in plain
# Python (core._PCG64), shuffles the probe grid's Halton digits, and the
# Monte-Carlo density seeds NumPy's PCG64DXSM, a different stream, with the
# seed; scurvature.bh_density_monte_carlo refuses a seed outside [0, 2**64).
SEED_LIMIT = 2**64


class NonFiniteResultError(ArithmeticError):
    """A report value came out NaN or infinite."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        SpecValidationError, InvalidSpaceError, ExprError, FileNotFoundError, OverflowError
    ) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_INVALID_SPEC
    except NonFiniteResultError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_RUNTIME_WARNING


class _JsonArgumentParser(argparse.ArgumentParser):
    """Reports what argparse rejects (a value it cannot convert, a missing
    flag, an unknown command) as a JSON UsageError with exit 2.  Its
    subparsers are of this class too; --help and --version are unchanged."""

    def error(self, message):
        _usage_exit(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = _JsonArgumentParser(
        prog="finslerlab",
        description="Finsler-geometric analyses of Randers spaces given as JSON specs",
    )
    parser.add_argument("--version", action="version", version=f"finslerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide the vanishing-S-measure verdict")
    p.add_argument("spec", help="manifold spec JSON path")
    p.add_argument("--tol-killing", type=float, default=1e-9)
    p.add_argument("--tol-length", type=float, default=1e-8)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("s-curvature", help="S-curvature at one (point, vector)")
    p.add_argument("spec")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--vector", required=True, help="comma-separated components")
    p.add_argument(
        "--measure",
        choices=scurvature.MEASURE_KINDS,
        default=None,
        help="defaults to the spec's measure, else busemann-hausdorff",
    )
    p.add_argument("--oracle", action="store_true", help="also run the transport oracle")
    p.add_argument("--h", type=float, default=1e-3, help="oracle half-step")
    p.add_argument(
        "--steps",
        type=int,
        default=scurvature.TRANSPORT_STEPS,
        help="oracle RK4 steps per geodesic (default %(default)s; rounded up to even "
        "under Richardson); the oracle's accuracy is bounded by the rounding floor "
        "of its central difference at --h, not by the step count",
    )
    p.add_argument("--no-richardson", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_s_curvature)

    p = sub.add_parser("geodesic", help="integrate a geodesic, JSON or CSV output")
    p.add_argument("spec")
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--dir", dest="direction", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_geodesic)

    p = sub.add_parser("validate", help="run the full invariant battery")
    p.add_argument("spec")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--transport-probes", type=int, default=50)
    p.add_argument("--mc-samples", type=int, default=1_000_000)
    p.add_argument("--tol-killing", type=float, default=1e-9)
    p.add_argument("--tol-length", type=float, default=1e-8)
    p.add_argument("--tol-s", type=float, default=1e-8)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("bh", help="Busemann-Hausdorff density: closed form vs Monte Carlo")
    p.add_argument("spec")
    p.add_argument("--point", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_bh)

    p = sub.add_parser("catalog", help="list built-in spaces or dump one as JSON")
    p.add_argument("name", nargs="?")
    p.set_defaults(handler=cmd_catalog)
    return parser


# -- helpers ------------------------------------------------------------------


def _resolve_seed(flag_value) -> int:
    """--seed, else FINSLERLAB_SEED, else 0; a usage error outside [0, 2**64)."""
    label, seed = "--seed", flag_value
    if seed is None:
        label, env = "FINSLERLAB_SEED", os.environ.get("FINSLERLAB_SEED")
        try:
            seed = int(env) if env else 0
        except ValueError:
            seed = env
    if not (isinstance(seed, int) and 0 <= seed < SEED_LIMIT):
        _usage_exit(f"{label} must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _emit(report: dict) -> None:
    try:
        text = _json_text(report, "\n")
    except ValueError:
        raise NonFiniteResultError("the result holds a NaN or infinite value") from None
    print(text)


def _json_text(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False) for a
    tree of str-keyed dicts, lists, tuples, str, int, float, bool and None
    (float and int subclasses as their base type), byte for byte; `newline`
    is the line break plus the indent of value's own line.  json.dumps
    runs its slower pure-Python encoder whenever indent is set.  Raises
    ValueError on a NaN or infinite float and TypeError on anything else."""
    out: list[str] = []
    _write_json(value, newline, out, {})
    return "".join(out)


def _write_json(value, newline: str, out: list, key_prefixes: dict) -> None:
    """Append value's JSON text to `out`.  Two shapes are written in one
    call: a list of finite plain floats by one join, and a table (a list
    of dicts that share one key set, whose values are finite plain floats
    or lists of them, each list key with one length over the rows, as an
    analyze report's per-probe rows) by one % of a template cached in
    `key_prefixes` under (keys, lengths, newline, row count).  Any other
    dict or list writes its finite floats and its str values in its own
    loop, and recurses only for other items; the two loops stay apart
    because one loop over (prefix, item) pairs for both measured slower.
    `key_prefixes` also maps (key set, newline) to the sorted keys, each
    with the text before its value, so that dicts sharing a key set at
    one depth sort and escape their keys once."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        shape = (frozenset(value), newline)
        prefixes = key_prefixes.get(shape)
        if prefixes is None:
            prefixes = key_prefixes[shape] = [
                (key, ("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
                for i, key in enumerate(sorted(value))
            ]
        for key, prefix in prefixes:
            item = value[key]
            kind = type(item)
            if kind is float and math.isfinite(item):
                out.append(prefix + float.__repr__(item))
            elif kind is str:
                out.append(prefix + encode_basestring_ascii(item))
            else:
                out.append(prefix)
                _write_json(item, inner, out, key_prefixes)
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        first = type(value[0])
        if first is float and _finite_floats(value):
            out.append("[" + inner + ("," + inner).join(map(float.__repr__, value)) + newline + "]")
            return
        if first is dict:
            text = _table_text(value, newline, key_prefixes)
            if text is not None:
                out.append(text)
                return
        prefix, separator = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is float and math.isfinite(item):
                out.append(prefix + float.__repr__(item))
            elif kind is str:
                out.append(prefix + encode_basestring_ascii(item))
            else:
                out.append(prefix)
                _write_json(item, inner, out, key_prefixes)
            prefix = separator
        out.append(newline + "]")
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"out of range float value {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a JSON value")


def _finite_floats(values) -> bool:
    """Every item is a plain float and finite: a sum of finite floats that
    a NaN, an inf or an overflow left finite."""
    return set(map(type, values)) == {float} and math.isfinite(sum(values))


def _table_text(rows: list, newline: str, key_prefixes: dict):
    """The JSON text of a table (see _write_json), or None when rows are
    no table."""
    key_set = rows[0].keys()
    if not key_set or set(map(type, rows)) != {dict}:
        return None
    if not all(map(key_set.__eq__, map(dict.keys, rows))):
        return None
    keys = sorted(key_set)
    columns, lengths = [], []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        if kinds == {float}:
            columns.append(column)
            lengths.append(None)
        elif kinds <= {list, tuple} and len(sizes := set(map(len, column))) == 1:
            columns.extend(zip(*column))
            lengths.append(sizes.pop())
        else:
            return None
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    if not _finite_floats(values):
        return None
    shape = (tuple(keys), tuple(lengths), newline, len(rows))
    template = key_prefixes.get(shape)
    if template is None:
        template = key_prefixes[shape] = _table_template(keys, lengths, newline, len(rows))
    return template % values


def _table_template(keys, lengths, newline: str, count: int) -> str:
    """The %-template of a table of `count` rows with the sorted `keys`,
    a float at a key whose length is None and a list of that length
    elsewhere; one %r per float, row by row."""
    row_break, key_break = newline + "  ", newline + "    "
    item_break = key_break + "  "
    parts = []
    for i, (key, length) in enumerate(zip(keys, lengths)):
        name = encode_basestring_ascii(key).replace("%", "%%")
        parts.append(("," if i else "{") + key_break + name + ": ")
        if length is None:
            parts.append("%r")
        elif length:
            parts.append("[" + item_break + ("," + item_break).join(["%r"] * length) + key_break + "]")
        else:
            parts.append("[]")
    row = "".join(parts) + row_break + "}"
    return "[" + row_break + ("," + row_break).join([row] * count) + newline + "]"


def _emit_error(kind: str, message: str, **extra) -> None:
    _emit({"error": {"type": kind, "message": message, **extra}})


def _usage_error(message: str) -> int:
    _emit_error("UsageError", message)
    return EXIT_USAGE


def _usage_exit(message: str):
    """_usage_error for helpers that cannot return the exit code."""
    _usage_error(message)
    raise SystemExit(EXIT_USAGE)


def _flag_error(args, *flags):
    """Message for the first flag whose value is not finite and > 0; None
    when every value can run."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not (value > 0.0 and math.isfinite(value)):
            return f"{flag} must be finite and > 0, got {value}"
    return None


def _parse_vector(text: str, dimension: int, label: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        _usage_exit(f"{label} must be comma-separated numbers, got {text!r}")
    if len(values) != dimension:
        _usage_exit(f"{label} needs {dimension} components, got {len(values)}")
    if not all(math.isfinite(c) for c in values):
        _usage_exit(f"{label} components must be finite, got {text!r}")
    return values


def _base_report(command: str, digest: str, data: dict, seed) -> dict:
    return {
        "tool_version": __version__,
        "report_schema": 1,
        "command": command,
        "spec_digest": digest,
        "spec_name": data.get("name"),
        "seed": seed,
    }


# -- commands -----------------------------------------------------------------


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    if args.probes < 0:
        return _usage_error(f"--probes must be >= 0, got {args.probes}")
    message = _flag_error(args, "--tol-killing", "--tol-length")
    if message:
        return _usage_error(message)
    seed = _resolve_seed(args.seed)
    data, digest = manifest.load_spec(args.spec)
    _, _, analysis, _ = manifest.probed_space(data, args.probes, seed)
    verdict = randers.decide(analysis, args.tol_killing, args.tol_length)
    per_probe = [
        {"x": list(x), "beta_length": length, "killing_defect": kd, "parallel_defect": pd}
        for x, length, kd, pd in zip(
            analysis.probes, analysis.lengths, analysis.killing_defects, analysis.parallel_defects
        )
    ]
    report = _base_report("analyze", digest, data, seed)
    report["tolerances"] = {
        "killing": args.tol_killing,
        "length": args.tol_length,
    }
    report["results"] = {
        "admits_vanishing_s_measure": verdict.admits,
        "reason": verdict.reason,
        "berwald": analysis.parallel_defect_sup <= args.tol_killing,
        "killing_defect_sup": analysis.killing_defect_sup,
        "parallel_defect_sup": analysis.parallel_defect_sup,
        "length_min": analysis.length_min,
        "length_max": analysis.length_max,
        "length_gradient_sup": analysis.length_gradient_sup,
        "bh_density_probe_values": verdict.bh_density_probe_values,
        "probe_count": len(analysis.probes),
        "per_probe": per_probe,
    }
    report["wall_time_s"] = time.perf_counter() - started
    _emit(report)
    return EXIT_OK if verdict.admits else EXIT_NO_MEASURE


def cmd_s_curvature(args) -> int:
    started = time.perf_counter()
    message = _flag_error(args, "--h")
    if message:
        return _usage_error(message)
    if args.steps < 1:
        return _usage_error(f"--steps must be >= 1, got {args.steps}")
    seed = _resolve_seed(args.seed)
    data, digest = manifest.load_spec(args.spec)
    space, _, _, density = manifest.probed_space(data, 100, seed)
    point = _parse_vector(args.point, space.dimension, "--point")
    vector = _parse_vector(args.vector, space.dimension, "--vector")
    if not space.chart.contains(point):
        return _usage_error(f"point {point} is outside the chart domain")
    if 0.0 < math.hypot(*vector) < MIN_VECTOR_NORM:
        return _usage_error(f"--vector must be 0 or have norm >= {MIN_VECTOR_NORM}, got {vector}")
    measure = manifest.measure_from_spec(space, data, args.measure, density)
    F = randers.finsler(space)
    s_formula = scurvature.s_curvature(F, measure, point, vector)
    if not math.isfinite(s_formula):  # F(v) overflowed; the oracle would start at v / F(v) = 0
        raise NonFiniteResultError(f"S-curvature {s_formula} at v = {vector}")
    s_transport = None
    warning = None
    if args.oracle and any(c != 0.0 for c in vector):
        try:
            s_transport = scurvature.s_curvature_transport(
                F,
                measure,
                point,
                vector,
                h=args.h,
                steps=args.steps,
                richardson=not args.no_richardson,
            )
        except (DomainExitError, NonFiniteStateError) as exc:
            warning = {"type": type(exc).__name__, "message": str(exc), "exit_time": exc.time}
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            # math, an expression, or a metric that rounds to singular, at an RK4 stage point
            warning = {"type": type(exc).__name__, "message": str(exc)}
    report = _base_report("s-curvature", digest, data, seed)
    report["results"] = {
        "x": list(point),
        "v": list(vector),
        "measure": measure.kind,
        "s_formula": s_formula,
        "s_transport": s_transport,
        "oracle": {
            "h": args.h,
            "steps": scurvature._integrated_steps(args.steps, not args.no_richardson),
            "richardson": not args.no_richardson,
        }
        if args.oracle
        else None,
    }
    if warning:
        report["warning"] = warning
    report["wall_time_s"] = time.perf_counter() - started
    _emit(report)
    return EXIT_RUNTIME_WARNING if warning else EXIT_OK


def cmd_geodesic(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args.seed)
    data, digest = manifest.load_spec(args.spec)
    space = manifest.space_from_spec(data, seed=seed)
    start = _parse_vector(args.start, space.dimension, "--from")
    direction = _parse_vector(args.direction, space.dimension, "--dir")
    if not space.chart.contains(start):
        return _usage_error(f"point {start} is outside the chart domain")
    if math.hypot(*direction) < MIN_VECTOR_NORM:
        return _usage_error(f"--dir must have norm >= {MIN_VECTOR_NORM}, got {direction}")
    if args.steps < 1:
        return _usage_error("--steps must be >= 1")
    if not math.isfinite(args.time):
        return _usage_error(f"--time must be finite, got {args.time}")
    F = randers.finsler(space)
    warning = None
    try:
        path = geodesic(F, start, direction, args.time, args.steps)
    except DomainExitError as exc:
        path = exc.path
        warning = {"type": "DomainExitError", "message": str(exc), "exit_time": exc.time}
    except NonFiniteStateError as exc:
        _emit_error("NonFiniteStateError", str(exc), time=exc.time)
        return EXIT_RUNTIME_WARNING
    except ExprError:
        raise  # a spec expression undefined at an RK4 stage point: exit 1 from main
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        # math, or a metric that rounds to singular, at an RK4 stage point
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_RUNTIME_WARNING
    speeds = [float(F(x, v)) for x, v in zip(path.points, path.velocities)]
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["t", *space.chart.names, *[f"v{i + 1}" for i in range(space.dimension)], "F"]
        )
        for t, x, v, f in zip(path.times, path.points, path.velocities, speeds):
            writer.writerow([repr(t), *map(repr, x), *map(repr, v), repr(f)])
        if warning:
            print(f"warning: {warning['message']}", file=sys.stderr)
        return EXIT_RUNTIME_WARNING if warning else EXIT_OK
    report = _base_report("geodesic", digest, data, seed)
    report["results"] = {
        "times": path.times,
        "points": [list(x) for x in path.points],
        "velocities": [list(v) for v in path.velocities],
        "speeds": speeds,
        "status": "domain-exit" if warning else "complete",
    }
    if warning:
        report["warning"] = warning
    report["wall_time_s"] = time.perf_counter() - started
    _emit(report)
    return EXIT_RUNTIME_WARNING if warning else EXIT_OK


def cmd_validate(args) -> int:
    started = time.perf_counter()
    if args.probes < 1:
        return _usage_error(f"--probes must be >= 1, got {args.probes}")
    if args.transport_probes < 0:
        return _usage_error(f"--transport-probes must be >= 0, got {args.transport_probes}")
    if args.mc_samples < 10_000:
        return _usage_error(f"--mc-samples must be at least 10000, got {args.mc_samples}")
    message = _flag_error(args, "--tol-killing", "--tol-length", "--tol-s")
    if message:
        return _usage_error(message)
    seed = _resolve_seed(args.seed)
    data, digest = manifest.load_spec(args.spec)
    space, pairs, analysis, _ = manifest.probed_space(data, args.probes, seed)
    try:
        results = checks.run_checks(
            space,
            pairs,
            analysis,
            transport_probes=args.transport_probes,
            mc_samples=args.mc_samples,
            tol_killing=args.tol_killing,
            tol_length=args.tol_length,
            tol_s=args.tol_s,
        )
    except (DomainExitError, NonFiniteStateError) as exc:  # a transport geodesic
        _emit_error(type(exc).__name__, str(exc), time=exc.time)
        return EXIT_RUNTIME_WARNING
    except checks.TransportDomainError as exc:
        _emit_error(type(exc.__cause__).__name__, str(exc))
        return EXIT_RUNTIME_WARNING
    all_pass = all(r.passed or r.skipped for r in results)
    report = _base_report("validate", digest, data, seed)
    report["tolerances"] = {
        "killing": args.tol_killing,
        "length": args.tol_length,
        "s": args.tol_s,
    }
    report["results"] = {
        "all_pass": all_pass,
        "probe_count": args.probes,
        "checks": [
            {
                "name": r.name,
                "observed": r.observed,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "skipped": r.skipped,
                "note": r.note,
            }
            for r in results
        ],
    }
    report["wall_time_s"] = time.perf_counter() - started
    _emit(report)
    for r in results:
        print(r.line(), file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_INVALID_SPEC


def cmd_bh(args) -> int:
    started = time.perf_counter()
    seed = _resolve_seed(args.seed)
    data, digest = manifest.load_spec(args.spec)
    space = manifest.space_from_spec(data, seed=seed)
    point = _parse_vector(args.point, space.dimension, "--point")
    if not space.chart.contains(point):
        return _usage_error(f"point {point} is outside the chart domain")
    if args.samples < 10_000:
        return _usage_error(f"--samples must be at least 10000, got {args.samples}")
    closed = float(randers.bh_density_closed_form(space, point))
    estimate, std_error = scurvature.bh_density_monte_carlo(
        space, point, args.samples, seed
    )
    gate = scurvature.bh_agreement_gate(closed, std_error)
    report = _base_report("bh", digest, data, seed)
    report["results"] = {
        "x": list(point),
        "closed_form": closed,
        "monte_carlo": estimate,
        "std_error": std_error,
        "samples": args.samples,
        "agreement_gate": gate,
        "agree": abs(estimate - closed) <= gate,
    }
    report["wall_time_s"] = time.perf_counter() - started
    _emit(report)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.name is None:
        _emit(
            {
                "tool_version": __version__,
                "spaces": [
                    {"name": name, "description": desc}
                    for name, desc in catalog.descriptions()
                ],
            }
        )
        return EXIT_OK
    if args.name not in catalog.CATALOG:
        _emit_error(
            "UsageError",
            f"unknown catalog space '{args.name}'",
            known=sorted(catalog.CATALOG),
        )
        return EXIT_USAGE
    _emit(catalog.spec(args.name))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
