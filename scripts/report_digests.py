#!/usr/bin/env python3
"""Print a digest of the reports of every command that computes, over a fixed spec set.

One line per (run, spec, seed): the exit code and the sha256 of the raw
stdout, byte for byte, with the value of `wall_time_s` masked, so that a
change in the report's formatting shows too.  The specs are the six
catalog spaces (seed "-") and, for each --seeds value, the specs that
perfbench/specgen generates for the three benchmark workloads.  Per
spec, in-process: `analyze` and `validate` at their default flags;
`s-curvature` at the chart midpoint with a fixed vector under each
measure kind, then once with `--oracle`; and a short `geodesic` from
the same point.  The s-curvature and geodesic runs read a copy of the
spec that declares a custom measure of the s-curvature-sweep density
shape, so `--measure custom` has its density and `--oracle` runs under
it (the spec's own measure).  Two `bh` runs at the chart midpoint
follow: one at default flags, one at 140001 samples (a partial last
chunk) under the largest seed, 2**64 - 1.  After each spec set, two
library-level lines per spec hash the repr of `scurvature.s_curvature`
under the four measure kinds at a few seeded points x with one v, one F
per spec: "library:sweep" in the s-curvature-sweep's order (four kinds
at v, then one at 2v), point by point and space by space, and "library:interleaved"
for the same calls with the spaces and points interleaved, so that a
value carried over from another space or point would change a line.
Last, one "contract:" line per malformed spec and command (`analyze`,
`validate`) digests an error report: coordinate names that the
expression grammar refuses, a non-finite metric or one-form,
expressions of each deep shape one level past expr.MAX_DEPTH, a NaN or
-Infinity constant in the file, domain bounds whose width overflows
or that no float holds, and a name that is not a string.
Two checkouts that print the same lines produce the same reports; diff
the output of a change against its parent's:

    python3 scripts/report_digests.py > digests.txt
    python3 scripts/report_digests.py --seeds 7 11
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import specgen  # noqa: E402
import workloads  # noqa: E402
from finslerlab import cli, core, expr, manifest, randers, scurvature  # noqa: E402

COMMANDS = ("analyze", "validate")
# Points per spec in the library-level lines (core.probe_pairs at seed 1).
LIBRARY_POINTS = 3
WALL_TIME = re.compile(r'("wall_time_s": )[^,\n]*')
# The s-curvature-sweep density shape, with fixed coefficients.
DENSITY = "exp(0.3*{first} - 0.2*{second}^2) * (2 + sin(0.4*{last}))"


def workload_specs(seed: int) -> list[dict]:
    """The generated specs of verdict-batch, validate-battery and s-curvature-sweep."""
    return [
        *specgen.generate_set(seed, specgen.family_grid(), "verdict"),
        *specgen.generate_set(seed, workloads.ValidateBattery.SHAPE, "validate"),
        *specgen.generate_set(seed, workloads.SCurvatureSweep.SHAPE, "sweep"),
    ]


def digest(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = WALL_TIME.sub(r"\1-", out.getvalue())
    return code, hashlib.sha256(text.encode()).hexdigest()


def density_of(spec: dict) -> str:
    """The DENSITY shape over the spec's coordinates."""
    names = spec["coordinates"]
    return DENSITY.format(first=names[0], second=names[1], last=names[-1])


def with_custom_measure(spec: dict) -> dict:
    """The spec with a custom measure of the DENSITY shape added."""
    return {**spec, "measure": {"kind": "custom", "density": density_of(spec)}}


def runs(spec: dict, path: Path, measured: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run digested for one spec."""
    n = len(spec["coordinates"])
    point = ",".join(repr(0.5 * (lo + hi)) for lo, hi in spec["domain"])
    vector = ",".join(repr((-0.5) ** i) for i in range(n))
    where = [f"--point={point}", f"--vector={vector}"]
    out = [(command, [command, str(path)]) for command in COMMANDS]
    out += [
        (f"s-curvature:{kind}", ["s-curvature", str(measured), *where, "--measure", kind])
        for kind in scurvature.MEASURE_KINDS
    ]
    out.append(("s-curvature:oracle", ["s-curvature", str(measured), *where, "--oracle"]))
    geodesic = [f"--from={point}", f"--dir={vector}", "--time", "0.5", "--steps", "50"]
    out.append(("geodesic", ["geodesic", str(measured), *geodesic]))
    bh = ["bh", str(path), f"--point={point}"]
    out.append(("bh", bh))
    largest_seed = ["--seed", str(2**64 - 1)]
    out.append(("bh:partial-chunk-largest-seed", [*bh, "--samples", "140001", *largest_seed]))
    return out


def outcome(call) -> str:
    """The repr of what a call returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the digest records it
        return f"{type(exc).__name__}: {exc}"


def sweep_calls(spec: dict) -> list[list]:
    """Per seeded point, the s_curvature calls of the sweep's order: the
    four measure kinds at v, then one kind at 2v.  Every point has the
    same v, so that only x tells them apart."""
    space = manifest.space_from_spec(spec)
    F = randers.finsler(space)
    density = expr.parse(density_of(spec), spec["coordinates"])
    measures = [scurvature.measure_from_kind(space, k, density) for k in scurvature.MEASURE_KINDS]
    pairs = core.probe_pairs(space.chart, LIBRARY_POINTS, 1)
    v = pairs[0][1]
    out = []
    for k, (x, _) in enumerate(pairs):
        at = [(m, v) for m in measures] + [(measures[k % len(measures)], [2.0 * c for c in v])]
        out.append([lambda m=m, x=x, v=w: scurvature.s_curvature(F, m, x, v) for m, w in at])
    return out


def sha256(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def library_lines(specs: list[dict], seed: str) -> list[str]:
    """The library:sweep and library:interleaved line of every spec."""
    per_spec = [sweep_calls(spec) for spec in specs]
    in_order = [[outcome(call) for point in points for call in point] for points in per_spec]
    # The i-th call at every point of every space, then the (i+1)-th: for
    # even i point by point within a space, for odd i space by space at a
    # point, so that consecutive calls differ in x alone or in F alone.
    interleaved = [[] for _ in specs]
    spaces, points = range(len(specs)), range(LIBRARY_POINTS)
    for i in range(len(scurvature.MEASURE_KINDS) + 1):
        if i % 2:
            cells = [(s, k) for k in points for s in spaces]
        else:
            cells = [(s, k) for s in spaces for k in points]
        for s, k in cells:
            interleaved[s].append(outcome(per_spec[s][k][i]))
    return [
        f"{label} {spec['name']} {seed} sha256={sha256(values)}"
        for label, results in (("library:sweep", in_order), ("library:interleaved", interleaved))
        for spec, values in zip(specs, results)
    ]


def flat_spec(**fields) -> dict:
    """A flat Randers spec on (-1, 1)^2 with `fields` replaced."""
    spec = {
        "schema": 1, "dimension": 2, "coordinates": ["x1", "x2"],
        "metric": [["1", "0"], ["0", "1"]], "beta": ["0.1", "0"],
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    return {**spec, **fields}


# Expressions of each deeply nested shape, `depth` levels deep: each
# number, operator, call and pair of parentheses is one level.
NESTED = {
    "parentheses": lambda depth: "(" * (depth - 1) + "0" + ")" * (depth - 1),
    "sum": lambda depth: "+".join(["0"] * depth),
    "unary-minus": lambda depth: "-" * (depth - 1) + "0",
    "power-chain": lambda depth: "^".join(["0"] + ["1"] * (depth - 1)),
    "calls": lambda depth: "sin(" * (depth - 1) + "0" + ")" * (depth - 1),
}


def malformed_specs() -> dict:
    """The contract cases: name -> a spec that every spec command refuses
    with exit 1.  tests/test_cli_contract.py runs the same cases."""
    return {
        **{f"coordinate-{name!r}": flat_spec(coordinates=[name, "x2"])
           for name in ["sin", "pi", "1a", "x 1", ""]},
        "infinite-beta": flat_spec(beta=["1e308*1e308", "0"]),
        "infinite-metric": flat_spec(metric=[["1e308*1e308", "0"], ["0", "1"]]),
        **{f"nested-{shape}": flat_spec(beta=[nested(expr.MAX_DEPTH + 1), "0"])
           for shape, nested in NESTED.items()},
        # json.dumps writes these floats as the non-JSON NaN and -Infinity
        "constant-NaN-name": flat_spec(name=math.nan),
        "constant-minus-Infinity-bound": flat_spec(domain=[[-math.inf, 1.0], [-1.0, 1.0]]),
        "domain-overflowing-width": flat_spec(domain=[[-1e308, 1e308], [-1.0, 1.0]]),
        "domain-integer-bound-past-the-float-range": flat_spec(domain=[[-10**400, 1], [-1, 1]]),
        # JSON true and false are Python bools, which compare as 1 and 0
        "domain-booleans": flat_spec(domain=[[False, True], [-1.0, 1.0]]),
        "schema-true": flat_spec(schema=True),
        "name-number": flat_spec(name=1.5),
        "name-list": flat_spec(name=["x", {"y": 1}]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    args = parser.parse_args()
    sets = [("-", specgen.catalog_specs())]
    sets += [(str(seed), workload_specs(seed)) for seed in args.seeds]
    with tempfile.TemporaryDirectory() as tmp:
        for seed, specs in sets:
            paths = specgen.write_specs(specs, Path(tmp) / seed)
            measured = specgen.write_specs(
                [with_custom_measure(spec) for spec in specs], Path(tmp) / seed / "measured"
            )
            for spec, path, measured_path in zip(specs, paths, measured):
                for label, argv in runs(spec, path, measured_path):
                    code, sha = digest(argv)
                    print(f"{label} {spec['name']} {seed} exit={code} sha256={sha}", flush=True)
            for line in library_lines(specs, seed):
                print(line, flush=True)
        for case, spec in malformed_specs().items():
            path = Path(tmp) / "contract.json"
            path.write_text(json.dumps(spec))
            for command in COMMANDS:
                code, sha = digest([command, str(path)])
                print(f"contract:{case} {command} exit={code} sha256={sha}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
