"""The three benchmark workloads: their inputs, set-up, ops and per-op checks.

Each workload is a fixed *cycle* of ops that repeats (with fresh seeded
values where the op takes points) until the run's time is up, so every
run measures the same input mix.  One client runs one op at a time and
waits for its result (a closed loop of one).

verdict-batch      `finslerlab analyze SPEC` in-process, one op per spec.
                   Mostly spec parsing, manifest checks, probe grids and
                   first-order jets; per-spec set-up is on the blocking path.
s-curvature-sweep  `scurvature.s_curvature` on prebuilt spaces, one op per
                   (space, x, v, measure).  Nested jets of the nonlinear
                   connection and jet-valued `inv`; no parsing, no ODEs.
                   The four measures share each (x, v).
validate-battery   `finslerlab validate SPEC` at the default flags, one op
                   per battery.  Transport oracle (RK4 over the closed-form
                   spray), the check battery and the Monte-Carlo density.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import specgen

# Tolerances of the sweep's identities (the validate battery's own values).
S_VANISH_TOL = 1e-8
HOMOGENEITY_TOL = 1e-9


@dataclass
class Op:
    """One timed call, its correctness check and a digest of its result.

    `check(result, results)` returns None or a failure message; `results`
    maps the keys of the ops already run in this cycle to their results.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    digest: Callable[[object], str]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`finslerlab.cli.main(argv)` with stdout captured; (exit code, stdout)."""
    from finslerlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _report(result) -> dict:
    return json.loads(result[1])


def _report_digest(result) -> str:
    code, text = result
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return f"{code}:{json.dumps(report, sort_keys=True)}"


class Workload:
    """Inputs from a seed, set-up, a warm-up op and the repeating op cycle."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.specs: list[dict] = []
        self.paths: list[Path] = []

    def inputs(self, write: bool) -> None:
        """Generate the spec set; `write` puts the files into the workdir."""
        self.specs = self.make_specs()
        directory = self.workdir / "specs"
        if write:
            self.paths = specgen.write_specs(self.specs, directory)
        else:
            self.paths = [directory / f"{spec['name']}.json" for spec in self.specs]

    def make_specs(self) -> list[dict]:
        raise NotImplementedError

    def build(self) -> None:
        """Build whatever the ops share (timed as part of set-up)."""

    def warm_up(self) -> Op:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError


class VerdictBatch(Workload):
    name = "verdict-batch"

    def make_specs(self) -> list[dict]:
        return specgen.catalog_specs() + specgen.generate_set(
            self.seed, specgen.family_grid(), "verdict"
        )

    def _op(self, spec: dict, path: Path) -> Op:
        expected = specgen.expectation(spec)

        def check(result, _results):
            code, _ = result
            want = 0 if expected["admits"] else 3
            if code != want:
                return f"exit code {code}, expected {want}"
            reason = _report(result)["results"]["reason"]
            if reason != expected["reason"]:
                return f"reason {reason!r}, expected {expected['reason']!r}"
            return None

        return Op(spec["name"], lambda: run_cli(["analyze", str(path)]), check, _report_digest)

    def warm_up(self) -> Op:
        return self._op(self.specs[0], self.paths[0])

    def cycle(self, index: int) -> list[Op]:
        return [self._op(spec, path) for spec, path in zip(self.specs, self.paths)]


class ValidateBattery(Workload):
    """Sphere-hopf at n = 3 and three families at n = 2, all at size 0.

    The flat-const battery, the cheapest, is the warm-up op of set-up.
    """

    name = "validate-battery"
    SHAPE = [
        ("hopf", 3, 0),
        ("riemannian", 2, 1),
        ("killing-violated", 2, 0),
        ("length-varies", 2, 0),
        ("flat-const", 2, 0),
    ]

    def make_specs(self) -> list[dict]:
        return specgen.generate_set(self.seed, self.SHAPE, "validate")

    @staticmethod
    def _op(spec: dict, path: Path) -> Op:
        def check(result, _results):
            code, _ = result
            if code != 0:
                return f"exit code {code}"
            report = _report(result)["results"]
            if not report["all_pass"]:
                failed = [c["name"] for c in report["checks"] if not (c["passed"] or c["skipped"])]
                return f"all_pass false: {failed}"
            return None

        return Op(spec["name"], lambda: run_cli(["validate", str(path)]), check, _report_digest)

    def warm_up(self) -> Op:
        return self._op(self.specs[-1], self.paths[-1])

    def cycle(self, index: int) -> list[Op]:
        return [self._op(spec, path) for spec, path in zip(self.specs[:-1], self.paths[:-1])]


@dataclass
class _SweepSpace:
    name: str
    F: object
    measures: dict
    bounds: tuple
    admits: bool
    b_zero: bool


class SCurvatureSweep(Workload):
    """The six catalog spaces plus three generated n = 4 spaces.

    Per cycle and space: one seeded (x, v) under all four measure kinds,
    then one more op at 2v for the kind the cycle index picks (the
    homogeneity identity S(2v) = 2 S(v)).
    """

    name = "s-curvature-sweep"
    SHAPE = [("flat-const", 4, 1), ("riemannian", 4, 2), ("killing-violated", 4, 0)]

    def make_specs(self) -> list[dict]:
        return specgen.catalog_specs() + specgen.generate_set(self.seed, self.SHAPE, "sweep")

    def _density(self, rng: random.Random, coords: list[str]) -> str:
        a, b, c = (rng.uniform(-0.5, 0.5) for _ in range(3))
        return (
            f"exp({specgen.num(a)}*{coords[0]} + {specgen.num(b)}*{coords[1]}^2)"
            f" * (2 + sin({specgen.num(c)}*{coords[-1]}))"
        )

    def build(self) -> None:
        from finslerlab import expr, manifest, randers, scurvature

        rng = random.Random(f"sweep-density:{self.seed}")
        self.spaces = []
        for spec in self.specs:
            space = manifest.space_from_spec(spec)
            density = expr.parse(self._density(rng, spec["coordinates"]), spec["coordinates"])
            measures = {
                kind: scurvature.measure_from_kind(space, kind, density)
                for kind in scurvature.MEASURE_KINDS
            }
            expected = specgen.expectation(spec)
            self.spaces.append(
                _SweepSpace(
                    spec["name"],
                    randers.finsler(space),
                    measures,
                    space.chart.bounds,
                    expected["admits"],
                    expected["b_zero"],
                )
            )

    @staticmethod
    def _point(rng: random.Random, sp: _SweepSpace):
        x = [lo + (0.01 + 0.98 * rng.random()) * (hi - lo) for lo, hi in sp.bounds]
        scale = rng.uniform(0.5, 1.5)
        return x, [scale * c for c in specgen.unit_vector(rng, len(sp.bounds))]

    @staticmethod
    def _op(sp: _SweepSpace, kind: str, x, v, key: str, base_key=None) -> Op:
        from finslerlab import scurvature

        measure = sp.measures[kind]

        def check(result, results):
            if not math.isfinite(result):
                return f"S = {result}"
            if base_key is not None:
                twice = 2.0 * results[base_key]
                if abs(result - twice) > HOMOGENEITY_TOL * max(1.0, abs(twice)):
                    return f"S(2v) = {result!r} but 2 S(v) = {twice!r}"
            elif kind == "busemann-hausdorff" and sp.admits and abs(result) > S_VANISH_TOL:
                return f"|S_BH| = {abs(result):.3e} on an admitting space"
            elif kind == "riemannian-volume" and sp.b_zero and abs(result) > S_VANISH_TOL:
                return f"|S_vol| = {abs(result):.3e} with b = 0"
            return None

        # Looked up on the module at call time, so the tracer's wrapper applies.
        return Op(key, lambda: scurvature.s_curvature(sp.F, measure, x, v), check, repr)

    def cycle(self, index: int) -> list[Op]:
        from finslerlab.scurvature import MEASURE_KINDS as kinds

        rng = random.Random(f"sweep-points:{self.seed}:{index}")
        ops = []
        for sp in self.spaces:
            x, v = self._point(rng, sp)
            for kind in kinds:
                ops.append(self._op(sp, kind, x, v, f"{index}:{sp.name}:{kind}"))
            kind = kinds[index % len(kinds)]
            ops.append(
                self._op(
                    sp, kind, x, [2.0 * c for c in v],
                    f"{index}:{sp.name}:{kind}:2v", base_key=f"{index}:{sp.name}:{kind}",
                )
            )
        return ops

    def warm_up(self) -> Op:
        return self.cycle(-1)[0]


WORKLOADS = {w.name: w for w in (VerdictBatch, SCurvatureSweep, ValidateBattery)}
